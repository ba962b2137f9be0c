package posix

// Client restores a typed POSIX API on top of any FileSystem. Example
// applications and the workload generators are written against Client, so
// swapping a raw backend for a PADLL-interposed one is a one-line change —
// the transparency property the paper's LD_PRELOAD vector provides.
//
// Every typed method runs on pooled Request/Reply scratch: the request
// path allocates nothing of its own, and results that outlive the call
// (Read's buffer, Readdir's entries) are detached from the scratch before
// it is recycled. The *Into variants go further and fill caller-provided
// buffers, so tight loops can run fully alloc-free.
type Client struct {
	fs FileSystem
	// Context stamped onto every request for differentiation.
	JobID string
	User  string
	PID   int
}

// NewClient returns a client issuing requests against fs.
func NewClient(fs FileSystem) *Client { return &Client{fs: fs} }

// WithJob returns a copy of the client stamped with job context.
func (c *Client) WithJob(jobID, user string, pid int) *Client {
	cp := *c
	cp.JobID, cp.User, cp.PID = jobID, user, pid
	return &cp
}

var zeroDirEntry DirEntry

// apply stamps the client's differentiation context and forwards.
func (c *Client) apply(req *Request, rep *Reply) error {
	req.JobID, req.User, req.PID = c.JobID, c.User, c.PID
	return c.fs.Apply(req, rep)
}

// Apply issues a raw request into caller-provided reply scratch, stamping
// the client's job context. It makes *Client itself a FileSystem, so
// layers can be composed either way around.
func (c *Client) Apply(req *Request, rep *Reply) error { return c.apply(req, rep) }

// Do issues a raw request and returns a freshly allocated reply, for
// workload generators that synthesize arbitrary operation streams and
// keep replies around.
func (c *Client) Do(req *Request) (*Reply, error) {
	rep := new(Reply)
	if err := c.apply(req, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// Open opens path with flags and mode, returning a file descriptor.
func (c *Client) Open(path string, flags int, mode FileMode) (int, error) {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path, req.Flags, req.Mode = OpOpen, path, flags, mode
	err := c.apply(req, rep)
	fd := rep.FD
	PutRequest(req)
	PutReply(rep)
	if err != nil {
		return -1, err
	}
	return fd, nil
}

// Creat creates path, equivalent to open(O_CREATE|O_WRONLY|O_TRUNC).
func (c *Client) Creat(path string, mode FileMode) (int, error) {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path, req.Flags, req.Mode = OpCreat, path, OCreate|OWrOnly|OTrunc, mode
	err := c.apply(req, rep)
	fd := rep.FD
	PutRequest(req)
	PutReply(rep)
	if err != nil {
		return -1, err
	}
	return fd, nil
}

// Close closes the descriptor.
func (c *Client) Close(fd int) error {
	req, rep := GetRequest(), GetReply()
	req.Op, req.FD = OpClose, fd
	err := c.apply(req, rep)
	PutRequest(req)
	PutReply(rep)
	return err
}

// Read reads up to size bytes from the descriptor's current offset. The
// returned buffer is owned by the caller. For an alloc-free loop, use
// ReadInto.
func (c *Client) Read(fd int, size int64) ([]byte, error) {
	req, rep := GetRequest(), GetReply()
	req.Op, req.FD, req.Size = OpRead, fd, size
	err := c.apply(req, rep)
	data := rep.Data
	rep.Data = nil // ownership transfers to the caller
	PutRequest(req)
	PutReply(rep)
	if err != nil {
		return nil, err
	}
	return data, nil
}

// ReadInto reads up to len(p) bytes from the descriptor's current offset
// directly into p, returning the byte count. A zero count with a nil
// error means end of file. Allocation-free when the backend honors the
// reply-scratch contract.
func (c *Client) ReadInto(fd int, p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	req, rep := GetRequest(), GetReply()
	req.Op, req.FD, req.Size = OpRead, fd, int64(len(p))
	rep.Data = p[:0] // backend appends straight into p's array
	err := c.apply(req, rep)
	data := rep.Data
	rep.Data = nil
	PutRequest(req)
	PutReply(rep)
	if err != nil {
		return 0, err
	}
	// Usually a self-copy; real movement only if the backend grew the
	// slice past p's capacity.
	return copy(p, data), nil
}

// Write writes data at the descriptor's current offset.
func (c *Client) Write(fd int, data []byte) (int64, error) {
	req, rep := GetRequest(), GetReply()
	req.Op, req.FD, req.Data, req.Size = OpWrite, fd, data, int64(len(data))
	err := c.apply(req, rep)
	n := rep.N
	PutRequest(req)
	PutReply(rep)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// PRead reads size bytes at offset without moving the file offset. The
// returned buffer is owned by the caller; see PReadInto for the
// alloc-free variant.
func (c *Client) PRead(fd int, size, offset int64) ([]byte, error) {
	req, rep := GetRequest(), GetReply()
	req.Op, req.FD, req.Size, req.Offset = OpPRead, fd, size, offset
	err := c.apply(req, rep)
	data := rep.Data
	rep.Data = nil
	PutRequest(req)
	PutReply(rep)
	if err != nil {
		return nil, err
	}
	return data, nil
}

// PReadInto reads up to len(p) bytes at offset into p without moving the
// file offset. A zero count with a nil error means end of file.
func (c *Client) PReadInto(fd int, p []byte, offset int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	req, rep := GetRequest(), GetReply()
	req.Op, req.FD, req.Size, req.Offset = OpPRead, fd, int64(len(p)), offset
	rep.Data = p[:0]
	err := c.apply(req, rep)
	data := rep.Data
	rep.Data = nil
	PutRequest(req)
	PutReply(rep)
	if err != nil {
		return 0, err
	}
	return copy(p, data), nil
}

// PWrite writes data at offset without moving the file offset.
func (c *Client) PWrite(fd int, data []byte, offset int64) (int64, error) {
	req, rep := GetRequest(), GetReply()
	req.Op, req.FD, req.Data, req.Size, req.Offset = OpPWrite, fd, data, int64(len(data)), offset
	err := c.apply(req, rep)
	n := rep.N
	PutRequest(req)
	PutReply(rep)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// LSeek repositions the file offset (whence in Flags: 0=set,1=cur,2=end).
func (c *Client) LSeek(fd int, offset int64, whence int) (int64, error) {
	req, rep := GetRequest(), GetReply()
	req.Op, req.FD, req.Offset, req.Flags = OpLSeek, fd, offset, whence
	err := c.apply(req, rep)
	n := rep.N
	PutRequest(req)
	PutReply(rep)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// FSync flushes the descriptor.
func (c *Client) FSync(fd int) error {
	req, rep := GetRequest(), GetReply()
	req.Op, req.FD = OpFSync, fd
	err := c.apply(req, rep)
	PutRequest(req)
	PutReply(rep)
	return err
}

// Stat stats the path.
func (c *Client) Stat(path string) (FileInfo, error) {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path = OpStat, path
	err := c.apply(req, rep)
	info := rep.Info
	PutRequest(req)
	PutReply(rep)
	if err != nil {
		return zeroInfo, err
	}
	return info, nil
}

// GetAttr is the Lustre-level getattr the ABCI traces report; it stats
// the path acquiring only read locks at the MDS.
func (c *Client) GetAttr(path string) (FileInfo, error) {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path = OpGetAttr, path
	err := c.apply(req, rep)
	info := rep.Info
	PutRequest(req)
	PutReply(rep)
	if err != nil {
		return zeroInfo, err
	}
	return info, nil
}

// SetAttr updates the path's mode.
func (c *Client) SetAttr(path string, mode FileMode) error {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path, req.Mode = OpSetAttr, path, mode
	err := c.apply(req, rep)
	PutRequest(req)
	PutReply(rep)
	return err
}

// FStat stats the descriptor.
func (c *Client) FStat(fd int) (FileInfo, error) {
	req, rep := GetRequest(), GetReply()
	req.Op, req.FD = OpFStat, fd
	err := c.apply(req, rep)
	info := rep.Info
	PutRequest(req)
	PutReply(rep)
	if err != nil {
		return zeroInfo, err
	}
	return info, nil
}

// Rename atomically renames oldPath to newPath.
func (c *Client) Rename(oldPath, newPath string) error {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path, req.NewPath = OpRename, oldPath, newPath
	err := c.apply(req, rep)
	PutRequest(req)
	PutReply(rep)
	return err
}

// Unlink removes the file at path.
func (c *Client) Unlink(path string) error {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path = OpUnlink, path
	err := c.apply(req, rep)
	PutRequest(req)
	PutReply(rep)
	return err
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string, mode FileMode) error {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path, req.Mode = OpMkdir, path, mode
	err := c.apply(req, rep)
	PutRequest(req)
	PutReply(rep)
	return err
}

// Rmdir removes an empty directory.
func (c *Client) Rmdir(path string) error {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path = OpRmdir, path
	err := c.apply(req, rep)
	PutRequest(req)
	PutReply(rep)
	return err
}

// Readdir lists a directory. The returned slice is owned by the caller;
// ReaddirInto reuses caller scratch instead.
func (c *Client) Readdir(path string) ([]DirEntry, error) {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path = OpReaddir, path
	err := c.apply(req, rep)
	entries := rep.Entries
	rep.Entries = nil // ownership transfers to the caller
	PutRequest(req)
	PutReply(rep)
	if err != nil {
		return nil, err
	}
	return entries, nil
}

// ReaddirInto lists a directory, appending entries to dst (which may be
// nil) and returning the extended slice. Entry names remain valid after
// the call; the slice stays owned by the caller, so loops can reuse one
// buffer across directories.
func (c *Client) ReaddirInto(path string, dst []DirEntry) ([]DirEntry, error) {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path = OpReaddir, path
	rep.Entries = dst[:0]
	err := c.apply(req, rep)
	entries := rep.Entries
	rep.Entries = nil
	PutRequest(req)
	PutReply(rep)
	if err != nil {
		return dst, err
	}
	return entries, nil
}

// Truncate sets the file size.
func (c *Client) Truncate(path string, size int64) error {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path, req.Size = OpTruncate, path, size
	err := c.apply(req, rep)
	PutRequest(req)
	PutReply(rep)
	return err
}

// StatFS reports file-system statistics for the mount containing path.
func (c *Client) StatFS(path string) (FSStat, error) {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path = OpStatFS, path
	err := c.apply(req, rep)
	stat := rep.Stat
	PutRequest(req)
	PutReply(rep)
	if err != nil {
		return zeroStat, err
	}
	return stat, nil
}

// SetXAttr sets an extended attribute.
func (c *Client) SetXAttr(path, name string, value []byte) error {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path, req.Name, req.Value = OpSetXAttr, path, name, value
	err := c.apply(req, rep)
	PutRequest(req)
	PutReply(rep)
	return err
}

// GetXAttr reads an extended attribute. The returned buffer is owned by
// the caller.
func (c *Client) GetXAttr(path, name string) ([]byte, error) {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path, req.Name = OpGetXAttr, path, name
	err := c.apply(req, rep)
	data := rep.Data
	rep.Data = nil
	PutRequest(req)
	PutReply(rep)
	if err != nil {
		return nil, err
	}
	return data, nil
}

// ListXAttr lists extended attribute names.
func (c *Client) ListXAttr(path string) ([]string, error) {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path = OpListXAttr, path
	err := c.apply(req, rep)
	names := rep.Names
	rep.Names = nil
	PutRequest(req)
	PutReply(rep)
	if err != nil {
		return nil, err
	}
	return names, nil
}

// RemoveXAttr removes an extended attribute.
func (c *Client) RemoveXAttr(path, name string) error {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path, req.Name = OpRemoveXAttr, path, name
	err := c.apply(req, rep)
	PutRequest(req)
	PutReply(rep)
	return err
}

// Access checks permissions on path (mode bits in Flags).
func (c *Client) Access(path string, mode int) error {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path, req.Flags = OpAccess, path, mode
	err := c.apply(req, rep)
	PutRequest(req)
	PutReply(rep)
	return err
}

// Link creates a hard link newPath referring to oldPath's inode.
func (c *Client) Link(oldPath, newPath string) error {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path, req.NewPath = OpLink, oldPath, newPath
	err := c.apply(req, rep)
	PutRequest(req)
	PutReply(rep)
	return err
}

// Symlink creates a symbolic link at linkPath pointing at target.
func (c *Client) Symlink(target, linkPath string) error {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path, req.NewPath = OpSymlink, target, linkPath
	err := c.apply(req, rep)
	PutRequest(req)
	PutReply(rep)
	return err
}

// Readlink returns a symbolic link's target.
func (c *Client) Readlink(path string) (string, error) {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path = OpReadlink, path
	err := c.apply(req, rep)
	target := string(rep.Data)
	PutRequest(req)
	PutReply(rep)
	if err != nil {
		return "", err
	}
	return target, nil
}

// Opendir opens a directory stream; entries are read one at a time with
// ReaddirFD and the stream is released with Closedir.
func (c *Client) Opendir(path string) (int, error) {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path = OpOpendir, path
	err := c.apply(req, rep)
	fd := rep.FD
	PutRequest(req)
	PutReply(rep)
	if err != nil {
		return -1, err
	}
	return fd, nil
}

// ReaddirFD reads the next entry from a directory stream; ok is false at
// end of directory.
func (c *Client) ReaddirFD(fd int) (DirEntry, bool, error) {
	req, rep := GetRequest(), GetReply()
	req.Op, req.FD = OpReaddir, fd
	err := c.apply(req, rep)
	entry, ok := zeroDirEntry, false
	if err == nil && len(rep.Entries) > 0 {
		entry, ok = rep.Entries[0], true
	}
	PutRequest(req)
	PutReply(rep)
	if err != nil {
		return zeroDirEntry, false, err
	}
	return entry, ok, nil
}

// Closedir releases a directory stream.
func (c *Client) Closedir(fd int) error {
	req, rep := GetRequest(), GetReply()
	req.Op, req.FD = OpClosedir, fd
	err := c.apply(req, rep)
	PutRequest(req)
	PutReply(rep)
	return err
}

// Chmod updates path's permission bits.
func (c *Client) Chmod(path string, mode FileMode) error {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path, req.Mode = OpChmod, path, mode
	err := c.apply(req, rep)
	PutRequest(req)
	PutReply(rep)
	return err
}

// Chown updates path's owner and group.
func (c *Client) Chown(path string, uid, gid int) error {
	req, rep := GetRequest(), GetReply()
	// uid/gid travel in the spare numeric fields, as the backends expect.
	req.Op, req.Path, req.Offset, req.Size = OpChown, path, int64(uid), int64(gid)
	err := c.apply(req, rep)
	PutRequest(req)
	PutReply(rep)
	return err
}

// Utime refreshes path's modification time.
func (c *Client) Utime(path string) error {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path = OpUtime, path
	err := c.apply(req, rep)
	PutRequest(req)
	PutReply(rep)
	return err
}

// FTruncate sets the open file's size.
func (c *Client) FTruncate(fd int, size int64) error {
	req, rep := GetRequest(), GetReply()
	req.Op, req.FD, req.Size = OpFTruncate, fd, size
	err := c.apply(req, rep)
	PutRequest(req)
	PutReply(rep)
	return err
}

// FDataSync flushes the descriptor's data (without metadata flush).
func (c *Client) FDataSync(fd int) error {
	req, rep := GetRequest(), GetReply()
	req.Op, req.FD = OpFDataSync, fd
	err := c.apply(req, rep)
	PutRequest(req)
	PutReply(rep)
	return err
}

// Sync flushes the whole file system.
func (c *Client) Sync() error {
	req, rep := GetRequest(), GetReply()
	req.Op = OpSync
	err := c.apply(req, rep)
	PutRequest(req)
	PutReply(rep)
	return err
}

// Mknod creates a file-system node without opening it.
func (c *Client) Mknod(path string, mode FileMode) error {
	req, rep := GetRequest(), GetReply()
	req.Op, req.Path, req.Mode = OpMknod, path, mode
	err := c.apply(req, rep)
	PutRequest(req)
	PutReply(rep)
	return err
}
