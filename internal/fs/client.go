package fs

import "bgcnk/internal/kernel"

// OpenFile is an open file description: shared offset and flags, possibly
// referenced by several descriptors (dup).
type OpenFile struct {
	node   *inode
	Offset uint64
	Flags  uint64
	// Path is the resolved absolute path the description was opened by.
	// Checkpoint images record it so a restarted ioproxy can reopen the
	// file and seek back to the mirrored offset.
	Path string
	refs int
}

// Client is one process's view of a filesystem: its file-descriptor
// table, working directory and credentials. A CIOD ioproxy holds exactly
// one Client whose state mirrors the compute-node process (paper Section
// IV-A: "The ioproxy's filesystem state mirrors the CNK process's state
// (e.g., file seek offsets, current working directory, user/group
// permissions)").
type Client struct {
	FS   *FS
	Cred Cred
	cwd  string
	fds  []*OpenFile // index = fd; nil = closed
}

// MaxFDs bounds the per-process descriptor table.
const MaxFDs = 256

// NewClient returns a client rooted at "/" with the given credentials.
func NewClient(f *FS, c Cred) *Client {
	cl := &Client{FS: f, Cred: c, cwd: "/"}
	cl.fds = make([]*OpenFile, 0, 16)
	return cl
}

// Cwd returns the current working directory.
func (c *Client) Cwd() string { return c.cwd }

// Chdir changes the working directory.
func (c *Client) Chdir(path string) kernel.Errno {
	n, errno := c.FS.lookup(c.cwd, path, c.Cred, true)
	if errno != kernel.OK {
		return errno
	}
	if n.typ != TypeDir {
		return kernel.ENOTDIR
	}
	comps := splitPath(c.cwd, path)
	c.cwd = "/" + joinPath(comps)
	return kernel.OK
}

func joinPath(comps []string) string {
	out := ""
	for i, c := range comps {
		if i > 0 {
			out += "/"
		}
		out += c
	}
	return out
}

func (c *Client) allocFD(of *OpenFile) (int, kernel.Errno) {
	for i, f := range c.fds {
		if f == nil {
			c.fds[i] = of
			return i, kernel.OK
		}
	}
	if len(c.fds) >= MaxFDs {
		return -1, kernel.EMFILE
	}
	c.fds = append(c.fds, of)
	return len(c.fds) - 1, kernel.OK
}

func (c *Client) file(fd int) (*OpenFile, kernel.Errno) {
	if fd < 0 || fd >= len(c.fds) || c.fds[fd] == nil {
		return nil, kernel.EBADF
	}
	return c.fds[fd], kernel.OK
}

// Open opens (optionally creating) path and returns a descriptor.
func (c *Client) Open(path string, flags uint64, mode Mode) (int, kernel.Errno) {
	parent, name, n, errno := c.FS.resolve(c.cwd, path, c.Cred, true, 0)
	if errno != kernel.OK {
		return -1, errno
	}
	if n == nil {
		if flags&kernel.OCreat == 0 {
			return -1, kernel.ENOENT
		}
		if !access(parent, c.Cred, 2) {
			return -1, kernel.EACCES
		}
		n = c.FS.newInode(TypeFile, mode&0777, c.Cred)
		parent.entries[name] = n
		parent.mtime = c.FS.now()
	} else {
		if flags&kernel.OCreat != 0 && flags&kernel.OExcl != 0 {
			return -1, kernel.EEXIST
		}
		if n.typ == TypeDir && flags&3 != kernel.ORdonly {
			return -1, kernel.EISDIR
		}
	}
	var want Mode
	switch flags & 3 {
	case kernel.ORdonly:
		want = 4
	case kernel.OWronly:
		want = 2
	case kernel.ORdwr:
		want = 6
	}
	if !access(n, c.Cred, want) {
		return -1, kernel.EACCES
	}
	if flags&kernel.OTrunc != 0 && n.typ == TypeFile && flags&3 != kernel.ORdonly {
		truncate(n, 0)
		n.mtime = c.FS.now()
	}
	of := &OpenFile{node: n, Flags: flags, refs: 1,
		Path: "/" + joinPath(splitPath(c.cwd, path))}
	return c.allocFD(of)
}

// Close releases a descriptor.
func (c *Client) Close(fd int) kernel.Errno {
	of, errno := c.file(fd)
	if errno != kernel.OK {
		return errno
	}
	of.refs--
	c.fds[fd] = nil
	return kernel.OK
}

// Dup duplicates a descriptor (sharing the open file description, hence
// the offset — POSIX dup semantics).
func (c *Client) Dup(fd int) (int, kernel.Errno) {
	of, errno := c.file(fd)
	if errno != kernel.OK {
		return -1, errno
	}
	of.refs++
	return c.allocFD(of)
}

// Read reads up to len(buf) bytes at the descriptor's offset.
func (c *Client) Read(fd int, buf []byte) (int, kernel.Errno) {
	of, errno := c.file(fd)
	if errno != kernel.OK {
		return 0, errno
	}
	if of.Flags&3 == kernel.OWronly {
		return 0, kernel.EBADF
	}
	if of.node.typ == TypeDir {
		return 0, kernel.EISDIR
	}
	if of.Offset >= uint64(len(of.node.data)) {
		return 0, kernel.OK // EOF
	}
	n := copy(buf, of.node.data[of.Offset:])
	of.Offset += uint64(n)
	return n, kernel.OK
}

// Write writes buf at the descriptor's offset (or at EOF with O_APPEND).
func (c *Client) Write(fd int, buf []byte) (int, kernel.Errno) {
	of, errno := c.file(fd)
	if errno != kernel.OK {
		return 0, errno
	}
	if of.Flags&3 == kernel.ORdonly {
		return 0, kernel.EBADF
	}
	n := of.node
	if of.Flags&kernel.OAppend != 0 {
		of.Offset = uint64(len(n.data))
	}
	end := of.Offset + uint64(len(buf))
	if end > uint64(len(n.data)) {
		truncate(n, end)
	}
	copy(n.data[of.Offset:end], buf)
	of.Offset = end
	n.mtime = c.FS.now()
	return len(buf), kernel.OK
}

// FileInfo exposes a descriptor's identity to the I/O-node daemon: the
// inode number, the description's current offset and flags, and whether
// it names a regular file (only a regular file's bytes are addressed by
// inode, through the buffer cache or straight through the filesystem).
// Permission checks already happened at open time, so the daemon may
// address the inode directly.
func (c *Client) FileInfo(fd int) (ino, offset, flags uint64, regular bool, errno kernel.Errno) {
	of, e := c.file(fd)
	if e != kernel.OK {
		return 0, 0, 0, false, e
	}
	return of.node.ino, of.Offset, of.Flags, of.node.typ == TypeFile, kernel.OK
}

// SetOffset stores the descriptor's offset after the daemon read or
// wrote the file's bytes by inode.
func (c *Client) SetOffset(fd int, off uint64) kernel.Errno {
	of, errno := c.file(fd)
	if errno != kernel.OK {
		return errno
	}
	of.Offset = off
	return kernel.OK
}

// Fsync validates the descriptor. The in-memory fs is always "stable
// storage"; when an ION buffer cache sits in front of it, the cache
// intercepts fsync to write back the file's dirty blocks first.
func (c *Client) Fsync(fd int) kernel.Errno {
	_, errno := c.file(fd)
	return errno
}

// Lseek repositions the descriptor's offset.
func (c *Client) Lseek(fd int, off int64, whence int) (uint64, kernel.Errno) {
	of, errno := c.file(fd)
	if errno != kernel.OK {
		return 0, errno
	}
	var base int64
	switch whence {
	case kernel.SeekSet:
		base = 0
	case kernel.SeekCur:
		base = int64(of.Offset)
	case kernel.SeekEnd:
		base = int64(len(of.node.data))
	default:
		return 0, kernel.EINVAL
	}
	pos := base + off
	if pos < 0 {
		return 0, kernel.EINVAL
	}
	of.Offset = uint64(pos)
	return of.Offset, kernel.OK
}

// Fstat stats an open descriptor.
func (c *Client) Fstat(fd int) (Stat, kernel.Errno) {
	of, errno := c.file(fd)
	if errno != kernel.OK {
		return Stat{}, errno
	}
	return of.node.stat(), kernel.OK
}

// Stat stats a path relative to the client's cwd.
func (c *Client) Stat(path string) (Stat, kernel.Errno) {
	return c.FS.Stat(c.cwd, path, c.Cred)
}

// Unlink, Rename, Mkdir, Rmdir, Readdir, Truncate: path operations
// relative to the client's cwd and credentials.

// Unlink removes a file.
func (c *Client) Unlink(path string) kernel.Errno { return c.FS.Unlink(c.cwd, path, c.Cred) }

// Rename moves a file.
func (c *Client) Rename(o, n string) kernel.Errno { return c.FS.Rename(c.cwd, o, n, c.Cred) }

// Mkdir creates a directory.
func (c *Client) Mkdir(path string, m Mode) kernel.Errno { return c.FS.Mkdir(c.cwd, path, m, c.Cred) }

// Rmdir removes a directory.
func (c *Client) Rmdir(path string) kernel.Errno { return c.FS.Rmdir(c.cwd, path, c.Cred) }

// Readdir lists a directory.
func (c *Client) Readdir(path string) ([]string, kernel.Errno) {
	return c.FS.Readdir(c.cwd, path, c.Cred)
}

// Truncate resizes a file by path.
func (c *Client) Truncate(path string, size uint64) kernel.Errno {
	return c.FS.Truncate(c.cwd, path, size, c.Cred)
}

// OpenFileState is one descriptor-table entry as a checkpoint records it:
// enough to reopen the file on restart and seek back to the mirrored
// offset. Dup'd descriptors are recorded (and restored) as independent
// descriptions; the shared-offset relationship is not preserved across a
// restart, matching what a path-based reopen can reconstruct.
type OpenFileState struct {
	FD     int
	Offset uint64
	Flags  uint64
	Path   string
}

// OpenFiles returns the live descriptor table in ascending-fd order.
func (c *Client) OpenFiles() []OpenFileState {
	var out []OpenFileState
	for fd, f := range c.fds {
		if f != nil {
			out = append(out, OpenFileState{FD: fd, Offset: f.Offset, Flags: f.Flags, Path: f.Path})
		}
	}
	return out
}

// RestoreFiles rebuilds the descriptor table from a checkpoint: each
// entry's path is reopened (create/truncate/excl bits stripped — the
// restore must attach to the file as it exists now, not recreate it) at
// the same descriptor number and the offset seeked back. Descriptors
// whose files no longer resolve are reported; the rest still restore.
func (c *Client) RestoreFiles(files []OpenFileState) kernel.Errno {
	for _, f := range c.fds {
		if f != nil {
			f.refs--
		}
	}
	c.fds = c.fds[:0]
	errno := kernel.OK
	for _, f := range files {
		if f.FD < 0 || f.FD >= MaxFDs {
			errno = kernel.EBADF
			continue
		}
		flags := f.Flags &^ (kernel.OCreat | kernel.OTrunc | kernel.OExcl)
		_, _, n, e := c.FS.resolve(c.cwd, f.Path, c.Cred, true, 0)
		if e != kernel.OK || n == nil {
			if errno == kernel.OK {
				errno = kernel.ENOENT
				if e != kernel.OK {
					errno = e
				}
			}
			continue
		}
		for len(c.fds) <= f.FD {
			c.fds = append(c.fds, nil)
		}
		c.fds[f.FD] = &OpenFile{node: n, Offset: f.Offset, Flags: flags, Path: f.Path, refs: 1}
	}
	return errno
}
