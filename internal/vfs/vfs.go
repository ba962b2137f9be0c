// Package vfs bridges the interposed POSIX boundary onto Go's standard
// io/fs contract. Anything that implements posix.FileSystem — a raw
// backend, the mount router, or the full rate-limited interpose.Shim —
// becomes an fs.FS, so stock library code (fs.WalkDir, testing/fstest,
// archive/*, template loading) runs unmodified over PADLL's data plane.
// This is the reproduction's equivalent of the paper's LD_PRELOAD
// transparency claim (§III-C): the application is not changed, only the
// boundary under it.
//
// The bridge implements fs.ReadDirFS, fs.StatFS, fs.ReadFileFS and
// fs.SubFS, plus the write-side extensions io/fs deliberately omits
// (Create, OpenFile, WriteFile, Mkdir, MkdirAll, Remove, RemoveAll,
// Rename), mirroring the os package's shapes so porting call sites is
// mechanical.
//
// Names follow the io/fs convention — slash-separated, unrooted, "." for
// the root — and are mapped to the boundary's rooted paths internally.
// Directory handles opened through Open stream entries over the
// boundary's fd-based readdir, so a walker exercises the same descriptor
// translation an interposed application would.
package vfs

import (
	"errors"
	"io"
	"io/fs"
	"path"
	"strings"
	"sync"

	"padll/internal/posix"
)

// FS adapts a posix.FileSystem to io/fs. Obtain one with New; the zero
// value is not usable.
type FS struct {
	c      *posix.Client
	prefix string // rooted boundary path of this view's root, e.g. "/" or "/sub"
}

var (
	_ fs.FS         = (*FS)(nil)
	_ fs.ReadDirFS  = (*FS)(nil)
	_ fs.StatFS     = (*FS)(nil)
	_ fs.ReadFileFS = (*FS)(nil)
	_ fs.SubFS      = (*FS)(nil)
)

// Option configures the bridge.
type Option func(*config)

type config struct {
	jobID string
	user  string
	pid   int
}

// WithJob stamps job differentiation context (§III-A) onto every
// request, so per-job stage rules classify the bridged traffic.
func WithJob(jobID, user string, pid int) Option {
	return func(c *config) { c.jobID, c.user, c.pid = jobID, user, pid }
}

// New wraps target as an io/fs file system.
func New(target posix.FileSystem, opts ...Option) *FS {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	c := posix.NewClient(target)
	c.JobID, c.User, c.PID = cfg.jobID, cfg.user, cfg.pid
	return &FS{c: c, prefix: "/"}
}

// resolve maps an io/fs name onto the boundary's rooted namespace,
// rejecting names outside the fs.ValidPath grammar.
func (v *FS) resolve(op, name string) (string, error) {
	if !fs.ValidPath(name) {
		return "", &fs.PathError{Op: op, Path: name, Err: fs.ErrInvalid}
	}
	if name == "." {
		return v.prefix, nil
	}
	if v.prefix == "/" {
		return "/" + name, nil
	}
	return v.prefix + "/" + name, nil
}

// pathErr wraps a boundary error for io/fs callers: the result is a
// *fs.PathError whose cause matches both the posix sentinel and the
// io/fs equivalent under errors.Is.
func pathErr(op, name string, err error) error {
	return &fs.PathError{Op: op, Path: name, Err: posix.ToFSError(err)}
}

// Open implements fs.FS. Directories come back as fs.ReadDirFile
// streaming over the boundary's fd-based readdir.
func (v *FS) Open(name string) (fs.File, error) {
	p, err := v.resolve("open", name)
	if err != nil {
		return nil, err
	}
	fi, err := v.c.Stat(p)
	if err != nil {
		return nil, pathErr("open", name, err)
	}
	if fi.Mode.IsDir() {
		fd, err := v.c.Opendir(p)
		if err != nil {
			return nil, pathErr("open", name, err)
		}
		return &dirFile{fs: v, fd: fd, name: name, path: p}, nil
	}
	fd, err := v.c.Open(p, posix.ORdOnly, 0)
	if err != nil {
		return nil, pathErr("open", name, err)
	}
	return &File{fs: v, fd: fd, name: name}, nil
}

// OpenFile opens name with boundary open flags (posix.ORdWr,
// posix.OCreate, ...) and permissions, the write-capable analogue of
// Open.
func (v *FS) OpenFile(name string, flags int, perm fs.FileMode) (*File, error) {
	p, err := v.resolve("open", name)
	if err != nil {
		return nil, err
	}
	fd, err := v.c.Open(p, flags, posix.ModeFromFS(perm))
	if err != nil {
		return nil, pathErr("open", name, err)
	}
	return &File{fs: v, fd: fd, name: name}, nil
}

// Create creates or truncates name for writing, like os.Create.
func (v *FS) Create(name string) (*File, error) {
	return v.OpenFile(name, posix.OCreate|posix.OTrunc|posix.ORdWr, 0o666)
}

// Stat implements fs.StatFS.
func (v *FS) Stat(name string) (fs.FileInfo, error) {
	p, err := v.resolve("stat", name)
	if err != nil {
		return nil, err
	}
	fi, err := v.c.Stat(p)
	if err != nil {
		return nil, pathErr("stat", name, err)
	}
	fi.Name = baseName(name)
	return fi.FSInfo(), nil
}

// ReadDir implements fs.ReadDirFS: one boundary readdir for the listing,
// plus one lazy getattr per entry the caller inspects — exactly the
// walk-and-stat pattern whose amplification the paper throttles.
func (v *FS) ReadDir(name string) ([]fs.DirEntry, error) {
	p, err := v.resolve("readdir", name)
	if err != nil {
		return nil, err
	}
	scratch := readdirScratch.Get().(*[]posix.DirEntry)
	entries, rerr := v.c.ReaddirInto(p, (*scratch)[:0])
	*scratch = entries[:0]
	if rerr != nil {
		readdirScratch.Put(scratch)
		return nil, pathErr("readdir", name, rerr)
	}
	out := v.entrySlab(p, entries)
	readdirScratch.Put(scratch)
	return out, nil
}

// readdirScratch holds reusable boundary readdir buffers; the entries are
// copied into the returned slab before the buffer goes back in the pool.
var readdirScratch = sync.Pool{New: func() any { return new([]posix.DirEntry) }}

// entrySlab adapts a listing in two allocations total (one entry slab,
// one interface slice) instead of a closure pair per entry.
func (v *FS) entrySlab(dir string, entries []posix.DirEntry) []fs.DirEntry {
	if len(entries) == 0 {
		return nil
	}
	slab := make([]dirEnt, len(entries))
	out := make([]fs.DirEntry, len(entries))
	for i, e := range entries {
		slab[i] = dirEnt{v: v, dir: dir, e: e}
		out[i] = &slab[i]
	}
	return out
}

// dirEnt is one slab-allocated directory entry. Info stats lazily —
// on an interposed stack each call is one more classified, rate-limited
// getattr, exactly the per-entry stat storm fs.WalkDir-based tools
// generate — and fills the embedded view, so repeated Info calls on the
// same entry add nothing.
type dirEnt struct {
	v    *FS
	dir  string
	e    posix.DirEntry
	info posix.FSInfoView
}

var _ fs.DirEntry = (*dirEnt)(nil)

func (d *dirEnt) Name() string { return d.e.Name }
func (d *dirEnt) IsDir() bool  { return d.e.IsDir }

func (d *dirEnt) Type() fs.FileMode {
	if d.e.IsDir {
		return fs.ModeDir
	}
	return 0
}

func (d *dirEnt) Info() (fs.FileInfo, error) {
	child := d.dir + "/" + d.e.Name
	if d.dir == "/" {
		child = "/" + d.e.Name
	}
	fi, err := d.v.c.Stat(child)
	if err != nil {
		return nil, posix.ToFSError(err)
	}
	fi.Name = d.e.Name
	d.info.I = fi
	return &d.info, nil
}

// ReadFile implements fs.ReadFileFS: one fstat sizes one result buffer,
// and every boundary read lands directly in it.
func (v *FS) ReadFile(name string) ([]byte, error) {
	p, err := v.resolve("open", name)
	if err != nil {
		return nil, err
	}
	fd, err := v.c.Open(p, posix.ORdOnly, 0)
	if err != nil {
		return nil, pathErr("open", name, err)
	}
	size := int64(0)
	if fi, serr := v.c.FStat(fd); serr == nil {
		if fi.Mode.IsDir() {
			_ = v.c.Close(fd)
			return nil, pathErr("read", name, posix.ErrIsDir)
		}
		size = fi.Size
	}
	// +1 capacity lets the EOF probe land without growing the buffer.
	buf := make([]byte, 0, size+1)
	for {
		if len(buf) == cap(buf) {
			// The file grew past the stat size; extend and keep going.
			buf = append(buf, 0)[:len(buf)]
		}
		n, rerr := v.c.ReadInto(fd, buf[len(buf):cap(buf)])
		if rerr != nil {
			_ = v.c.Close(fd)
			return nil, pathErr("read", name, rerr)
		}
		buf = buf[:len(buf)+n]
		if n == 0 {
			break
		}
	}
	if cerr := v.c.Close(fd); cerr != nil {
		return nil, pathErr("close", name, cerr)
	}
	return buf, nil
}

// WriteFile writes data to name, creating or truncating it, like
// os.WriteFile.
func (v *FS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	f, err := v.OpenFile(name, posix.OCreate|posix.OTrunc|posix.OWrOnly, perm)
	if err != nil {
		return err
	}
	if _, werr := f.Write(data); werr != nil {
		_ = f.Close() // surface the write failure, not the close
		return werr
	}
	return f.Close()
}

// Sub implements fs.SubFS: the returned view shares the client (and its
// job context) but roots names at dir.
func (v *FS) Sub(dir string) (fs.FS, error) {
	p, err := v.resolve("sub", dir)
	if err != nil {
		return nil, err
	}
	if dir == "." {
		return v, nil
	}
	fi, err := v.c.Stat(p)
	if err != nil {
		return nil, pathErr("sub", dir, err)
	}
	if !fi.Mode.IsDir() {
		return nil, pathErr("sub", dir, posix.ErrNotDir)
	}
	return &FS{c: v.c, prefix: p}, nil
}

// Mkdir creates the directory name.
func (v *FS) Mkdir(name string, perm fs.FileMode) error {
	p, err := v.resolve("mkdir", name)
	if err != nil {
		return err
	}
	if merr := v.c.Mkdir(p, posix.ModeFromFS(perm)); merr != nil {
		return pathErr("mkdir", name, merr)
	}
	return nil
}

// MkdirAll creates name and any missing parents, tolerating existing
// directories, like os.MkdirAll.
func (v *FS) MkdirAll(name string, perm fs.FileMode) error {
	if !fs.ValidPath(name) {
		return &fs.PathError{Op: "mkdir", Path: name, Err: fs.ErrInvalid}
	}
	if name == "." {
		return nil
	}
	parts := strings.Split(name, "/")
	for i := range parts {
		step := strings.Join(parts[:i+1], "/")
		err := v.Mkdir(step, perm)
		if err == nil {
			continue
		}
		// Tolerate any segment that already is a directory — including a
		// router mount point, whose backend refuses to re-create its own
		// root with an error other than "exists".
		if fi, serr := v.Stat(step); serr == nil && fi.IsDir() {
			continue
		}
		return err
	}
	return nil
}

// Remove removes a file or an empty directory, like os.Remove.
func (v *FS) Remove(name string) error {
	p, err := v.resolve("remove", name)
	if err != nil {
		return err
	}
	uerr := v.c.Unlink(p)
	if uerr == nil {
		return nil
	}
	if errors.Is(uerr, posix.ErrIsDir) {
		if rerr := v.c.Rmdir(p); rerr != nil {
			return pathErr("remove", name, rerr)
		}
		return nil
	}
	return pathErr("remove", name, uerr)
}

// RemoveAll removes name and everything below it; a missing name is not
// an error, like os.RemoveAll.
func (v *FS) RemoveAll(name string) error {
	fi, err := v.Stat(name)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	if fi.IsDir() {
		entries, err := v.ReadDir(name)
		if err != nil {
			return err
		}
		for _, e := range entries {
			child := name + "/" + e.Name()
			if name == "." {
				child = e.Name()
			}
			if rerr := v.RemoveAll(child); rerr != nil {
				return rerr
			}
		}
	}
	return v.Remove(name)
}

// Rename renames oldname to newname, like os.Rename.
func (v *FS) Rename(oldname, newname string) error {
	op, err := v.resolve("rename", oldname)
	if err != nil {
		return err
	}
	np, err := v.resolve("rename", newname)
	if err != nil {
		return err
	}
	if rerr := v.c.Rename(op, np); rerr != nil {
		return pathErr("rename", oldname, rerr)
	}
	return nil
}

// baseName returns the display name for a stat payload.
func baseName(name string) string {
	if name == "." {
		return "."
	}
	return path.Base(name)
}

// File is an open regular file on the bridge. It implements fs.File and
// the os.File-style positional and write interfaces.
type File struct {
	fs     *FS
	fd     int
	name   string
	closed bool
}

var (
	_ fs.File     = (*File)(nil)
	_ io.ReaderAt = (*File)(nil)
	_ io.Writer   = (*File)(nil)
	_ io.WriterAt = (*File)(nil)
	_ io.Seeker   = (*File)(nil)
)

// Name returns the io/fs name the file was opened as.
func (f *File) Name() string { return f.name }

// Stat implements fs.File.
func (f *File) Stat() (fs.FileInfo, error) {
	if f.closed {
		return nil, pathErr("stat", f.name, posix.ErrBadFD)
	}
	fi, err := f.fs.c.FStat(f.fd)
	if err != nil {
		return nil, pathErr("stat", f.name, err)
	}
	fi.Name = baseName(f.name)
	return fi.FSInfo(), nil
}

// Read implements io.Reader. The boundary reports end-of-file as an
// empty reply; io/fs callers expect io.EOF.
func (f *File) Read(p []byte) (int, error) {
	if f.closed {
		return 0, pathErr("read", f.name, posix.ErrBadFD)
	}
	if len(p) == 0 {
		return 0, nil
	}
	n, err := f.fs.c.ReadInto(f.fd, p)
	if err != nil {
		return 0, pathErr("read", f.name, err)
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// ReadAt implements io.ReaderAt.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, pathErr("read", f.name, posix.ErrBadFD)
	}
	n, err := f.fs.c.PReadInto(f.fd, p, off)
	if err != nil {
		return 0, pathErr("read", f.name, err)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Write implements io.Writer.
func (f *File) Write(p []byte) (int, error) {
	if f.closed {
		return 0, pathErr("write", f.name, posix.ErrBadFD)
	}
	n, err := f.fs.c.Write(f.fd, p)
	if err != nil {
		return 0, pathErr("write", f.name, err)
	}
	return int(n), nil
}

// WriteAt implements io.WriterAt.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, pathErr("write", f.name, posix.ErrBadFD)
	}
	n, err := f.fs.c.PWrite(f.fd, p, off)
	if err != nil {
		return 0, pathErr("write", f.name, err)
	}
	return int(n), nil
}

// Seek implements io.Seeker.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	if f.closed {
		return 0, pathErr("seek", f.name, posix.ErrBadFD)
	}
	pos, err := f.fs.c.LSeek(f.fd, offset, whence)
	if err != nil {
		return 0, pathErr("seek", f.name, err)
	}
	return pos, nil
}

// Sync flushes the file, like os.File.Sync.
func (f *File) Sync() error {
	if f.closed {
		return pathErr("sync", f.name, posix.ErrBadFD)
	}
	if err := f.fs.c.FSync(f.fd); err != nil {
		return pathErr("sync", f.name, err)
	}
	return nil
}

// Close implements fs.File.
func (f *File) Close() error {
	if f.closed {
		return pathErr("close", f.name, posix.ErrBadFD)
	}
	f.closed = true
	if err := f.fs.c.Close(f.fd); err != nil {
		return pathErr("close", f.name, err)
	}
	return nil
}

// dirFile is an open directory streaming entries over the boundary's
// fd-based readdir, one classified request per entry batch.
type dirFile struct {
	fs     *FS
	fd     int
	name   string
	path   string
	closed bool
	// scratch collects raw boundary entries, reused across ReadDir calls.
	scratch []posix.DirEntry
}

var _ fs.ReadDirFile = (*dirFile)(nil)

// Stat implements fs.File.
func (d *dirFile) Stat() (fs.FileInfo, error) {
	if d.closed {
		return nil, pathErr("stat", d.name, posix.ErrBadFD)
	}
	fi, err := d.fs.c.Stat(d.path)
	if err != nil {
		return nil, pathErr("stat", d.name, err)
	}
	fi.Name = baseName(d.name)
	return fi.FSInfo(), nil
}

// Read implements fs.File; reading a directory's bytes is an error.
func (d *dirFile) Read([]byte) (int, error) {
	return 0, pathErr("read", d.name, posix.ErrIsDir)
}

// ReadDir implements fs.ReadDirFile with libc readdir semantics: n <= 0
// drains the stream without error, n > 0 returns at most n entries and
// io.EOF once exhausted.
func (d *dirFile) ReadDir(n int) ([]fs.DirEntry, error) {
	if d.closed {
		return nil, pathErr("readdir", d.name, posix.ErrBadFD)
	}
	d.scratch = d.scratch[:0]
	var rerr error
	for n <= 0 || len(d.scratch) < n {
		e, ok, err := d.fs.c.ReaddirFD(d.fd)
		if err != nil {
			rerr = pathErr("readdir", d.name, err)
			break
		}
		if !ok {
			if rerr == nil && n > 0 && len(d.scratch) == 0 {
				return nil, io.EOF
			}
			break
		}
		d.scratch = append(d.scratch, e)
	}
	return d.fs.entrySlab(d.path, d.scratch), rerr
}

// Close implements fs.File.
func (d *dirFile) Close() error {
	if d.closed {
		return pathErr("close", d.name, posix.ErrBadFD)
	}
	d.closed = true
	if err := d.fs.c.Closedir(d.fd); err != nil {
		return pathErr("close", d.name, err)
	}
	return nil
}
