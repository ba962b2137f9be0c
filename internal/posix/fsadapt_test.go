package posix

import (
	"errors"
	"io/fs"
	"testing"
	"time"
)

func TestFSModeRoundTrip(t *testing.T) {
	cases := []FileMode{0o644, 0o755, ModeDir | 0o755, ModeDir | 0o700, 0}
	for _, m := range cases {
		fm := m.FSMode()
		if fm.IsDir() != m.IsDir() {
			t.Errorf("mode %o: IsDir mismatch over io/fs", uint32(m))
		}
		if fs.FileMode(m.Perm()) != fm.Perm() {
			t.Errorf("mode %o: perm bits %o != %o", uint32(m), m.Perm(), fm.Perm())
		}
		if back := ModeFromFS(fm); back != m {
			t.Errorf("mode %o: round trip gave %o", uint32(m), uint32(back))
		}
	}
	// Non-directory type bits are dropped on the way in.
	if got := ModeFromFS(fs.ModeSymlink | 0o777); got != 0o777 {
		t.Errorf("symlink mode: got %o, want bare perms", uint32(got))
	}
}

func TestFSInfoAdapters(t *testing.T) {
	now := time.Unix(1700000000, 0)
	fi := FileInfo{Name: "data.bin", Size: 4096, Mode: 0o640, ModTime: now, Inode: 42, Nlink: 2, UID: 7, GID: 8}
	info := fi.FSInfo()
	if info.Name() != "data.bin" || info.Size() != 4096 || info.IsDir() || !info.ModTime().Equal(now) {
		t.Errorf("FSInfo mismatch: %v %v %v %v", info.Name(), info.Size(), info.IsDir(), info.ModTime())
	}
	if info.Mode().Perm() != 0o640 {
		t.Errorf("FSInfo mode = %v", info.Mode())
	}
	sys, ok := info.Sys().(FileInfo)
	if !ok || sys.Inode != 42 {
		t.Errorf("Sys() should expose the boundary FileInfo, got %#v", info.Sys())
	}

	dir := FileInfo{Name: "d", Mode: ModeDir | 0o755, ModTime: now}
	if !dir.FSInfo().IsDir() || dir.FSInfo().Mode()&fs.ModeDir == 0 {
		t.Error("directory flag lost over FSInfo")
	}
}

func TestErrorBridging(t *testing.T) {
	cases := []struct{ posix, std error }{
		{ErrNotExist, fs.ErrNotExist},
		{ErrExist, fs.ErrExist},
		{ErrInvalid, fs.ErrInvalid},
		{ErrBadFD, fs.ErrClosed},
		{ErrNotSupported, errors.ErrUnsupported},
	}
	for _, c := range cases {
		up := ToFSError(c.posix)
		if !errors.Is(up, c.posix) || !errors.Is(up, c.std) {
			t.Errorf("ToFSError(%v): lost an identity (posix=%v std=%v)",
				c.posix, errors.Is(up, c.posix), errors.Is(up, c.std))
		}
		down := FromFSError(c.std)
		if !errors.Is(down, c.posix) || !errors.Is(down, c.std) {
			t.Errorf("FromFSError(%v): lost an identity", c.std)
		}
	}
	// Unmapped errors pass through unchanged in both directions.
	if got := ToFSError(ErrIsDir); got != ErrIsDir {
		t.Errorf("ToFSError(ErrIsDir) = %v", got)
	}
	other := errors.New("backend exploded")
	if got := FromFSError(other); got != other {
		t.Errorf("FromFSError(other) = %v", got)
	}
	if ToFSError(nil) != nil || FromFSError(nil) != nil {
		t.Error("nil must map to nil")
	}
	// Already-boundary errors are not double-wrapped on the way down.
	if got := FromFSError(ErrNotExist); got != ErrNotExist {
		t.Errorf("FromFSError(ErrNotExist) = %v", got)
	}
	// A wrapped os-style error keeps its message.
	wrapped := &fs.PathError{Op: "open", Path: "/x", Err: fs.ErrNotExist}
	down := FromFSError(wrapped)
	if down.Error() != wrapped.Error() {
		t.Errorf("FromFSError must preserve the detailed message: %q", down.Error())
	}
	if !errors.Is(down, ErrNotExist) {
		t.Error("FromFSError(wrapped) must match the boundary sentinel")
	}
}
