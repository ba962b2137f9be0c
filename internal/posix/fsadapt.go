// Typed adapters between the interposed POSIX boundary and Go's standard
// io/fs contract. The paper's data plane is application-agnostic: any
// program that speaks the storage boundary generates the metadata traffic
// PADLL differentiates and throttles (§III-C). In Go, "any program" means
// the io/fs ecosystem — fs.WalkDir, testing/fstest, archive/*, template
// loading — so this file provides the conversions the internal/vfs
// bridge and the internal/osfs backend are built from: FileMode in both
// directions, FileInfo onto fs.FileInfo, and the error translation that
// lets errors.Is(err, fs.ErrNotExist)-style code work unmodified over an
// interposed stack.
package posix

import (
	"errors"
	"io/fs"
	"time"
)

// FSMode converts an interposed mode to its io/fs equivalent: permission
// bits plus the directory flag.
func (m FileMode) FSMode() fs.FileMode {
	fm := fs.FileMode(m & 0o777)
	if m.IsDir() {
		fm |= fs.ModeDir
	}
	return fm
}

// ModeFromFS converts an io/fs mode to the interposed form. Type bits
// other than ModeDir (symlink, device, ...) carry no equivalent on the
// boundary and are dropped; the permission bits and directory flag
// survive round trips.
func ModeFromFS(m fs.FileMode) FileMode {
	pm := FileMode(m.Perm())
	if m.IsDir() {
		pm |= ModeDir
	}
	return pm
}

// fsInfo adapts a FileInfo to fs.FileInfo.
type fsInfo struct{ fi FileInfo }

func (i fsInfo) Name() string       { return i.fi.Name }
func (i fsInfo) Size() int64        { return i.fi.Size }
func (i fsInfo) Mode() fs.FileMode  { return i.fi.Mode.FSMode() }
func (i fsInfo) ModTime() time.Time { return i.fi.ModTime }
func (i fsInfo) IsDir() bool        { return i.fi.Mode.IsDir() }

// Sys exposes the boundary-level FileInfo, so callers that know they are
// over an interposed stack can recover Inode/Nlink/UID/GID.
func (i fsInfo) Sys() any { return i.fi }

// FSInfo adapts the stat payload to the io/fs interface.
func (fi FileInfo) FSInfo() fs.FileInfo { return fsInfo{fi} }

// FSInfoView is a reusable fs.FileInfo over an embedded boundary payload.
// FSInfo boxes a fresh value on every call; a view embedded in a
// longer-lived struct (a direntry slab, a file handle) is filled in place
// and handed out as &view — the interface holds a pointer, so repeated
// Info() calls add zero allocations. The payload must not be refilled
// while a returned interface is still in use.
type FSInfoView struct{ I FileInfo }

func (v *FSInfoView) Name() string       { return v.I.Name }
func (v *FSInfoView) Size() int64        { return v.I.Size }
func (v *FSInfoView) Mode() fs.FileMode  { return v.I.Mode.FSMode() }
func (v *FSInfoView) ModTime() time.Time { return v.I.ModTime }
func (v *FSInfoView) IsDir() bool        { return v.I.Mode.IsDir() }

// Sys exposes the boundary-level FileInfo, matching fsInfo.Sys.
func (v *FSInfoView) Sys() any { return v.I }

// fsErrors pairs each boundary sentinel with its io/fs equivalent, in
// both directions.
var fsErrors = [...]struct{ posix, std error }{
	{ErrNotExist, fs.ErrNotExist},
	{ErrExist, fs.ErrExist},
	{ErrInvalid, fs.ErrInvalid},
	{ErrBadFD, fs.ErrClosed},
	{ErrNotSupported, errors.ErrUnsupported},
}

// bridgedErr satisfies errors.Is for both error vocabularies: the
// original error it wraps (cause) and the sentinel from the other
// vocabulary (alias).
type bridgedErr struct{ cause, alias error }

func (e bridgedErr) Error() string { return e.cause.Error() }

func (e bridgedErr) Is(target error) bool {
	return errors.Is(e.cause, target) || (e.alias != nil && errors.Is(e.alias, target))
}

// Unwrap exposes the original error as the canonical cause.
func (e bridgedErr) Unwrap() error { return e.cause }

// ToFSError lifts a boundary error into the io/fs vocabulary: the result
// still matches the posix sentinel under errors.Is, and additionally
// matches the fs equivalent (fs.ErrNotExist, fs.ErrExist, fs.ErrInvalid,
// fs.ErrClosed, errors.ErrUnsupported) where one exists. Errors with no
// mapping (ErrIsDir, ErrNotEmpty, ...) pass through unchanged.
func ToFSError(err error) error {
	if err == nil {
		return nil
	}
	for _, m := range fsErrors {
		if errors.Is(err, m.posix) {
			return bridgedErr{cause: err, alias: m.std}
		}
	}
	return err
}

// FromFSError lowers an io/fs-vocabulary error onto the boundary
// sentinels: an error matching fs.ErrNotExist becomes one that also
// matches ErrNotExist, and so on. Unmapped errors pass through. OS
// backends use this so an interposed application sees the same error
// identities over a real kernel file system as over the in-memory model.
func FromFSError(err error) error {
	if err == nil {
		return nil
	}
	for _, m := range fsErrors {
		if errors.Is(err, m.posix) {
			return err // already speaks the boundary vocabulary
		}
		if errors.Is(err, m.std) {
			return bridgedErr{cause: err, alias: m.posix}
		}
	}
	return err
}
