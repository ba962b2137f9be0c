// Package localfs implements an in-memory POSIX file system that stands in
// for the compute node's local file system (xfs on Frontera in the paper's
// methodology, §IV). It executes all 42 interposed operations against a
// real namespace tree with inodes, descriptors, data and extended
// attributes, so workloads exercise genuine file-system semantics rather
// than no-op stubs, while staying fast enough to sustain the multi-hundred
// KOps/s request rates the experiments replay.
package localfs

import (
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"padll/internal/clock"
	"padll/internal/posix"
)

// node is one inode: a file or directory.
type node struct {
	name     string
	mode     posix.FileMode
	inode    uint64
	data     []byte
	children map[string]*node // directories only
	xattrs   map[string][]byte
	modTime  time.Time
	nlink    int
	uid, gid int
}

func (n *node) isDir() bool { return n.mode.IsDir() }

// openFile is one descriptor-table entry.
type openFile struct {
	n      *node
	flags  int
	offset int64
	isDir  bool
	// dirSnapshot holds the entry list captured at opendir time.
	dirSnapshot []posix.DirEntry
}

// FS is the in-memory file system. It is safe for concurrent use.
type FS struct {
	mu        sync.RWMutex
	clk       clock.Clock
	root      *node
	fds       map[int]*openFile
	nextFD    int
	nextInode uint64
	// capacity reported by statfs.
	totalBytes int64
	totalFiles int64
	usedBytes  int64
	usedFiles  int64
	// serviceTime, when > 0, emulates the per-call cost of a real local
	// file system (syscall entry + in-kernel work, ~2-10us for cached
	// metadata operations on xfs) with a calibrated spin — so relative
	// overhead measurements against this backend are comparable to
	// measurements against a kernel file system.
	serviceTime time.Duration
}

var _ posix.FileSystem = (*FS)(nil)

// New returns an empty file system rooted at "/".
func New(clk clock.Clock) *FS {
	fs := &FS{
		clk:        clk,
		fds:        make(map[int]*openFile),
		nextFD:     3, // mimic stdin/stdout/stderr being taken
		nextInode:  2,
		totalBytes: 240 << 30, // the paper's 240 GiB node-local SSD
		totalFiles: 1 << 24,
	}
	fs.root = &node{
		name:     "/",
		mode:     posix.ModeDir | 0o755,
		inode:    1,
		children: make(map[string]*node),
		modTime:  clk.Now(),
		nlink:    2,
	}
	return fs
}

// clean canonicalizes a path; empty and relative paths are rooted at "/".
func clean(p string) string {
	if p == "" {
		return "/"
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// lookup walks to the node at p. Caller holds at least a read lock.
func (fs *FS) lookup(p string) (*node, error) {
	p = clean(p)
	if p == "/" {
		return fs.root, nil
	}
	cur := fs.root
	for _, part := range strings.Split(strings.TrimPrefix(p, "/"), "/") {
		if !cur.isDir() {
			return nil, posix.ErrNotDir
		}
		next, ok := cur.children[part]
		if !ok {
			return nil, posix.ErrNotExist
		}
		cur = next
	}
	return cur, nil
}

// lookupParent returns the parent directory of p and the leaf name.
func (fs *FS) lookupParent(p string) (*node, string, error) {
	p = clean(p)
	if p == "/" {
		return nil, "", posix.ErrInvalid
	}
	dir, leaf := path.Split(p)
	parent, err := fs.lookup(strings.TrimSuffix(dir, "/"))
	if err != nil {
		return nil, "", err
	}
	if !parent.isDir() {
		return nil, "", posix.ErrNotDir
	}
	return parent, leaf, nil
}

func (fs *FS) newInode() uint64 {
	fs.nextInode++
	return fs.nextInode
}

func (fs *FS) infoFor(n *node) posix.FileInfo {
	return posix.FileInfo{
		Name:    n.name,
		Size:    int64(len(n.data)),
		Mode:    n.mode,
		ModTime: n.modTime,
		Inode:   n.inode,
		Nlink:   n.nlink,
		UID:     n.uid,
		GID:     n.gid,
	}
}

// SetServiceTime enables per-call service-time emulation (0 disables).
func (fs *FS) SetServiceTime(d time.Duration) { fs.serviceTime = d }

// emulateServiceTime charges one call's in-kernel cost. On the wall clock
// this is a calibrated spin; on any other (simulated) clock it is a
// clock.Sleep, so experiment replays stay deterministic instead of mixing
// real CPU time into simulated time — a spin can never finish under a
// simulated clock, whose Now only moves on explicit Advance.
func (fs *FS) emulateServiceTime(d time.Duration) {
	if _, wall := fs.clk.(clock.Real); wall {
		spinFor(d)
		return
	}
	fs.clk.Sleep(d)
}

// spinFor burns CPU for roughly d without yielding the goroutine, which
// models an in-kernel code path more faithfully than time.Sleep's
// scheduler round trip at microsecond scales.
func spinFor(d time.Duration) {
	deadline := time.Now().Add(d) //lint:allow clockcheck calibrated busy-wait must read the wall clock; see emulateServiceTime for the simulated-clock path
	for time.Now().Before(deadline) {
	}
}

// Apply implements posix.FileSystem, dispatching all 42 operations.
func (fs *FS) Apply(req *posix.Request, rep *posix.Reply) error {
	if fs.serviceTime > 0 {
		fs.emulateServiceTime(fs.serviceTime)
	}
	switch req.Op {
	// ---- metadata ----
	case posix.OpOpen, posix.OpOpen64, posix.OpCreat:
		return fs.open(req, rep)
	case posix.OpClose:
		return fs.close(req.FD, rep)
	case posix.OpStat, posix.OpLStat, posix.OpGetAttr:
		return fs.stat(req.Path, rep)
	case posix.OpFStat:
		return fs.fstat(req.FD, rep)
	case posix.OpSetAttr, posix.OpChmod:
		return fs.chmod(req.Path, req.Mode, rep)
	case posix.OpChown:
		return fs.chown(req, rep)
	case posix.OpUtime:
		return fs.utime(req.Path, rep)
	case posix.OpStatFS, posix.OpFStatFS:
		return fs.statfs(rep)
	case posix.OpRename:
		return fs.rename(req.Path, req.NewPath, rep)
	case posix.OpUnlink:
		return fs.unlink(req.Path, rep)
	case posix.OpLink:
		return fs.link(req.Path, req.NewPath, rep)
	case posix.OpSymlink:
		return fs.symlink(req.Path, req.NewPath, rep)
	case posix.OpReadlink:
		return fs.readlink(req.Path, rep)
	case posix.OpAccess:
		return fs.access(req.Path, rep)
	case posix.OpMknod:
		return fs.mknod(req.Path, req.Mode, rep)

	// ---- directory management ----
	case posix.OpMkdir:
		return fs.mkdir(req.Path, req.Mode, rep)
	case posix.OpRmdir:
		return fs.rmdir(req.Path, rep)
	case posix.OpOpendir:
		return fs.opendir(req.Path, rep)
	case posix.OpReaddir:
		return fs.readdir(req, rep)
	case posix.OpClosedir:
		return fs.close(req.FD, rep)

	// ---- data ----
	case posix.OpRead:
		return fs.read(req.FD, req.Size, -1, rep)
	case posix.OpPRead:
		return fs.read(req.FD, req.Size, req.Offset, rep)
	case posix.OpWrite:
		return fs.write(req.FD, req.Data, req.Size, -1, rep)
	case posix.OpPWrite:
		return fs.write(req.FD, req.Data, req.Size, req.Offset, rep)
	case posix.OpLSeek:
		return fs.lseek(req.FD, req.Offset, req.Flags, rep)
	case posix.OpFSync, posix.OpFDataSync, posix.OpSync:
		return nil // data is already "durable" in memory
	case posix.OpTruncate:
		return fs.truncate(req.Path, req.Size, rep)
	case posix.OpFTruncate:
		return fs.ftruncate(req.FD, req.Size, rep)

	// ---- extended attributes ----
	case posix.OpSetXAttr:
		return fs.setxattr(req.Path, req.Name, req.Value, rep)
	case posix.OpGetXAttr, posix.OpLGetXAttr:
		return fs.getxattr(req.Path, req.Name, rep)
	case posix.OpFGetXAttr:
		return fs.fgetxattr(req.FD, req.Name, rep)
	case posix.OpListXAttr:
		return fs.listxattr(req.Path, rep)
	case posix.OpRemoveXAttr:
		return fs.removexattr(req.Path, req.Name, rep)
	}
	return posix.ErrNotSupported
}

func (fs *FS) open(req *posix.Request, rep *posix.Reply) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p := clean(req.Path)
	n, err := fs.lookup(p)
	switch {
	case err == nil:
		if req.Flags&posix.OExcl != 0 && req.Flags&posix.OCreate != 0 {
			return posix.ErrExist
		}
		if n.isDir() && req.Flags&(posix.OWrOnly|posix.ORdWr) != 0 {
			return posix.ErrIsDir
		}
		if req.Flags&posix.OTrunc != 0 && !n.isDir() {
			fs.usedBytes -= int64(len(n.data))
			n.data = nil
			n.modTime = fs.clk.Now()
		}
	case err == posix.ErrNotExist && req.Flags&posix.OCreate != 0:
		parent, leaf, perr := fs.lookupParent(p)
		if perr != nil {
			return perr
		}
		n = &node{
			name:    leaf,
			mode:    req.Mode.Perm(),
			inode:   fs.newInode(),
			xattrs:  nil,
			modTime: fs.clk.Now(),
			nlink:   1,
		}
		parent.children[leaf] = n
		parent.modTime = fs.clk.Now()
		fs.usedFiles++
	default:
		return err
	}
	fd := fs.nextFD
	fs.nextFD++
	of := &openFile{n: n, flags: req.Flags}
	if req.Flags&posix.OAppend != 0 {
		of.offset = int64(len(n.data))
	}
	fs.fds[fd] = of
	rep.FD = fd
	return nil
}

func (fs *FS) close(fd int, rep *posix.Reply) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.fds[fd]; !ok {
		return posix.ErrBadFD
	}
	delete(fs.fds, fd)
	return nil
}

func (fs *FS) stat(p string, rep *posix.Reply) error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	if err != nil {
		return err
	}
	rep.Info = fs.infoFor(n)
	return nil
}

func (fs *FS) fstat(fd int, rep *posix.Reply) error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	of, ok := fs.fds[fd]
	if !ok {
		return posix.ErrBadFD
	}
	rep.Info = fs.infoFor(of.n)
	return nil
}

func (fs *FS) chmod(p string, mode posix.FileMode, rep *posix.Reply) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(p)
	if err != nil {
		return err
	}
	n.mode = (n.mode & posix.ModeDir) | mode.Perm()
	n.modTime = fs.clk.Now()
	return nil
}

func (fs *FS) chown(req *posix.Request, rep *posix.Reply) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(req.Path)
	if err != nil {
		return err
	}
	n.uid, n.gid = int(req.Offset), int(req.Size) // uid/gid carried in spare fields
	n.modTime = fs.clk.Now()
	return nil
}

func (fs *FS) utime(p string, rep *posix.Reply) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(p)
	if err != nil {
		return err
	}
	n.modTime = fs.clk.Now()
	return nil
}

func (fs *FS) statfs(rep *posix.Reply) error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	rep.Stat = posix.FSStat{
		TotalBytes: fs.totalBytes,
		FreeBytes:  fs.totalBytes - fs.usedBytes,
		TotalFiles: fs.totalFiles,
		FreeFiles:  fs.totalFiles - fs.usedFiles,
	}
	return nil
}

func (fs *FS) rename(oldP, newP string, rep *posix.Reply) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	oldParent, oldLeaf, err := fs.lookupParent(oldP)
	if err != nil {
		return err
	}
	n, ok := oldParent.children[oldLeaf]
	if !ok {
		return posix.ErrNotExist
	}
	if n.isDir() && strings.HasPrefix(clean(newP), clean(oldP)+"/") {
		// A directory cannot move below itself. Paths are walked
		// literally (no symlink is followed), so the prefix test is exact.
		return posix.ErrInvalid
	}
	newParent, newLeaf, err := fs.lookupParent(newP)
	if err != nil {
		return err
	}
	if existing, ok := newParent.children[newLeaf]; ok {
		if existing == n {
			return nil // both names already are the one inode: POSIX no-op
		}
		if existing.isDir() && len(existing.children) > 0 {
			return posix.ErrNotEmpty
		}
		if existing.isDir() && !n.isDir() {
			return posix.ErrIsDir
		}
		fs.dropLink(existing)
	}
	delete(oldParent.children, oldLeaf)
	n.name = newLeaf
	newParent.children[newLeaf] = n
	now := fs.clk.Now()
	oldParent.modTime, newParent.modTime, n.modTime = now, now, now
	return nil
}

func (fs *FS) unlink(p string, rep *posix.Reply) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, leaf, err := fs.lookupParent(p)
	if err != nil {
		return err
	}
	n, ok := parent.children[leaf]
	if !ok {
		return posix.ErrNotExist
	}
	if n.isDir() {
		return posix.ErrIsDir
	}
	delete(parent.children, leaf)
	parent.modTime = fs.clk.Now()
	fs.dropLink(n)
	return nil
}

// dropLink accounts for one name of n going away (unlink, or rename over
// it): the inode and its bytes are released with the last name, not
// before. An empty directory has no other name to keep it.
func (fs *FS) dropLink(n *node) {
	n.nlink--
	if n.nlink <= 0 || n.isDir() {
		fs.usedFiles--
		fs.usedBytes -= int64(len(n.data))
	}
}

func (fs *FS) link(oldP, newP string, rep *posix.Reply) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(oldP)
	if err != nil {
		return err
	}
	if n.isDir() {
		return posix.ErrIsDir
	}
	parent, leaf, err := fs.lookupParent(newP)
	if err != nil {
		return err
	}
	if _, exists := parent.children[leaf]; exists {
		return posix.ErrExist
	}
	n.nlink++
	parent.children[leaf] = n
	parent.modTime = fs.clk.Now()
	return nil
}

func (fs *FS) symlink(target, linkP string, rep *posix.Reply) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, leaf, err := fs.lookupParent(linkP)
	if err != nil {
		return err
	}
	if _, exists := parent.children[leaf]; exists {
		return posix.ErrExist
	}
	n := &node{
		name:    leaf,
		mode:    0o777,
		inode:   fs.newInode(),
		data:    []byte(target), // symlink body holds the target path
		modTime: fs.clk.Now(),
		nlink:   1,
		xattrs:  map[string][]byte{"system.symlink": []byte(target)},
	}
	parent.children[leaf] = n
	fs.usedFiles++
	fs.usedBytes += int64(len(n.data)) // released by dropLink with the name
	return nil
}

func (fs *FS) readlink(p string, rep *posix.Reply) error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	if err != nil {
		return err
	}
	if n.xattrs == nil || n.xattrs["system.symlink"] == nil {
		return posix.ErrInvalid
	}
	rep.Data = append(rep.Data[:0], n.data...)
	return nil
}

func (fs *FS) access(p string, rep *posix.Reply) error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if _, err := fs.lookup(p); err != nil {
		return err
	}
	return nil
}

func (fs *FS) mknod(p string, mode posix.FileMode, rep *posix.Reply) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, leaf, err := fs.lookupParent(p)
	if err != nil {
		return err
	}
	if _, exists := parent.children[leaf]; exists {
		return posix.ErrExist
	}
	parent.children[leaf] = &node{
		name:    leaf,
		mode:    mode.Perm(),
		inode:   fs.newInode(),
		modTime: fs.clk.Now(),
		nlink:   1,
	}
	parent.modTime = fs.clk.Now()
	fs.usedFiles++
	return nil
}

func (fs *FS) mkdir(p string, mode posix.FileMode, rep *posix.Reply) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, leaf, err := fs.lookupParent(p)
	if err != nil {
		return err
	}
	if _, exists := parent.children[leaf]; exists {
		return posix.ErrExist
	}
	parent.children[leaf] = &node{
		name:     leaf,
		mode:     posix.ModeDir | mode.Perm(),
		inode:    fs.newInode(),
		children: make(map[string]*node),
		modTime:  fs.clk.Now(),
		nlink:    2,
	}
	parent.modTime = fs.clk.Now()
	fs.usedFiles++
	return nil
}

func (fs *FS) rmdir(p string, rep *posix.Reply) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, leaf, err := fs.lookupParent(p)
	if err != nil {
		return err
	}
	n, ok := parent.children[leaf]
	if !ok {
		return posix.ErrNotExist
	}
	if !n.isDir() {
		return posix.ErrNotDir
	}
	if len(n.children) > 0 {
		return posix.ErrNotEmpty
	}
	delete(parent.children, leaf)
	parent.modTime = fs.clk.Now()
	fs.usedFiles--
	return nil
}

func (fs *FS) snapshotDir(n *node) []posix.DirEntry {
	return fs.appendDir(make([]posix.DirEntry, 0, len(n.children)), n)
}

// appendDir appends n's sorted listing to entries, reusing its capacity;
// path-based readdir fills reply scratch with it instead of allocating a
// snapshot per call.
func (fs *FS) appendDir(entries []posix.DirEntry, n *node) []posix.DirEntry {
	base := len(entries)
	for name, child := range n.children {
		entries = append(entries, posix.DirEntry{Name: name, IsDir: child.isDir(), Inode: child.inode})
	}
	tail := entries[base:]
	sort.Slice(tail, func(i, j int) bool { return tail[i].Name < tail[j].Name })
	return entries
}

func (fs *FS) opendir(p string, rep *posix.Reply) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(p)
	if err != nil {
		return err
	}
	if !n.isDir() {
		return posix.ErrNotDir
	}
	fd := fs.nextFD
	fs.nextFD++
	fs.fds[fd] = &openFile{n: n, isDir: true, dirSnapshot: fs.snapshotDir(n)}
	rep.FD = fd
	return nil
}

// readdir supports both path-based full listing and fd-based streaming
// (one entry per call, as libc readdir does).
func (fs *FS) readdir(req *posix.Request, rep *posix.Reply) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if req.Path != "" {
		n, err := fs.lookup(req.Path)
		if err != nil {
			return err
		}
		if !n.isDir() {
			return posix.ErrNotDir
		}
		rep.Entries = fs.appendDir(rep.Entries[:0], n)
		return nil
	}
	of, ok := fs.fds[req.FD]
	if !ok || !of.isDir {
		return posix.ErrBadFD
	}
	if of.offset >= int64(len(of.dirSnapshot)) {
		return nil // end of directory
	}
	e := of.dirSnapshot[of.offset]
	of.offset++
	rep.Entries = append(rep.Entries[:0], e)
	return nil
}

func (fs *FS) read(fd int, size, offset int64, rep *posix.Reply) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	of, ok := fs.fds[fd]
	if !ok || of.isDir {
		return posix.ErrBadFD
	}
	pos := offset
	if pos < 0 {
		pos = of.offset
	}
	if pos >= int64(len(of.n.data)) || size <= 0 {
		rep.N = 0
		rep.Data = nil
		return nil
	}
	end := pos + size
	if end > int64(len(of.n.data)) {
		end = int64(len(of.n.data))
	}
	rep.Data = append(rep.Data[:0], of.n.data[pos:end]...)
	if offset < 0 {
		of.offset = end
	}
	rep.N = int64(len(rep.Data))
	return nil
}

func (fs *FS) write(fd int, data []byte, size, offset int64, rep *posix.Reply) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	of, ok := fs.fds[fd]
	if !ok || of.isDir {
		return posix.ErrBadFD
	}
	if of.flags&(posix.OWrOnly|posix.ORdWr) == 0 {
		return posix.ErrBadFD
	}
	if data == nil && size > 0 {
		// Size-only modelling: synthesize a zero payload of the given size
		// so workload generators need not materialize buffers.
		data = make([]byte, size)
	}
	pos := offset
	if pos < 0 {
		pos = of.offset
	}
	if of.flags&posix.OAppend != 0 && offset < 0 {
		pos = int64(len(of.n.data))
	}
	end := pos + int64(len(data))
	if end > int64(len(of.n.data)) {
		fs.usedBytes += end - int64(len(of.n.data))
		of.n.data = extend(of.n.data, end)
	}
	copy(of.n.data[pos:end], data)
	of.n.modTime = fs.clk.Now()
	if offset < 0 {
		of.offset = end
	}
	rep.N = int64(len(data))
	return nil
}

// extend grows data to size bytes, zero-filled. Capacity doubles, so a
// stream of appends copies O(n) bytes in all: exact reallocation made a
// sequential writer quadratic, and append's 1.25x steps still copy a
// large file five times over while every other caller waits on the lock.
func extend(data []byte, size int64) []byte {
	if size > int64(cap(data)) {
		grown := make([]byte, size, max(size, 2*int64(cap(data))))
		copy(grown, data)
		return grown
	}
	clear(data[len(data):size]) // a truncation may have left bytes here
	return data[:size]
}

func (fs *FS) lseek(fd int, offset int64, whence int, rep *posix.Reply) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	of, ok := fs.fds[fd]
	if !ok {
		return posix.ErrBadFD
	}
	var base int64
	switch whence {
	case 0: // SEEK_SET
	case 1: // SEEK_CUR
		base = of.offset
	case 2: // SEEK_END
		base = int64(len(of.n.data))
	default:
		return posix.ErrInvalid
	}
	np := base + offset
	if np < 0 {
		return posix.ErrInvalid
	}
	of.offset = np
	rep.N = np
	return nil
}

func (fs *FS) truncate(p string, size int64, rep *posix.Reply) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(p)
	if err != nil {
		return err
	}
	return fs.truncateNode(n, size, rep)
}

func (fs *FS) ftruncate(fd int, size int64, rep *posix.Reply) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	of, ok := fs.fds[fd]
	if !ok {
		return posix.ErrBadFD
	}
	return fs.truncateNode(of.n, size, rep)
}

func (fs *FS) truncateNode(n *node, size int64, rep *posix.Reply) error {
	if n.isDir() {
		return posix.ErrIsDir
	}
	if size < 0 {
		return posix.ErrInvalid
	}
	old := int64(len(n.data))
	switch {
	case size < old:
		n.data = n.data[:size]
	case size > old:
		n.data = extend(n.data, size)
	}
	fs.usedBytes += size - old
	n.modTime = fs.clk.Now()
	return nil
}

func (fs *FS) setxattr(p, name string, value []byte, rep *posix.Reply) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(p)
	if err != nil {
		return err
	}
	if n.xattrs == nil {
		n.xattrs = make(map[string][]byte)
	}
	n.xattrs[name] = append([]byte(nil), value...)
	return nil
}

func (fs *FS) getxattr(p, name string, rep *posix.Reply) error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	if err != nil {
		return err
	}
	v, ok := n.xattrs[name]
	if !ok {
		return posix.ErrNoAttr
	}
	rep.Data = append(rep.Data[:0], v...)
	return nil
}

func (fs *FS) fgetxattr(fd int, name string, rep *posix.Reply) error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	of, ok := fs.fds[fd]
	if !ok {
		return posix.ErrBadFD
	}
	v, ok := of.n.xattrs[name]
	if !ok {
		return posix.ErrNoAttr
	}
	rep.Data = append(rep.Data[:0], v...)
	return nil
}

func (fs *FS) listxattr(p string, rep *posix.Reply) error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	if err != nil {
		return err
	}
	base := len(rep.Names)
	for k := range n.xattrs {
		rep.Names = append(rep.Names, k)
	}
	sort.Strings(rep.Names[base:])
	return nil
}

func (fs *FS) removexattr(p, name string, rep *posix.Reply) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(p)
	if err != nil {
		return err
	}
	if _, ok := n.xattrs[name]; !ok {
		return posix.ErrNoAttr
	}
	delete(n.xattrs, name)
	return nil
}

// OpenFDs returns the number of open descriptors (for leak tests).
func (fs *FS) OpenFDs() int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return len(fs.fds)
}

// FileCount returns the number of files/dirs created (excluding root).
func (fs *FS) FileCount() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.usedFiles
}
