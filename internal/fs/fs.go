// Package fs implements the in-memory POSIX filesystem that runs on the
// I/O node. The paper's I/O strategy (Section IV-A, VI-A) is that CNK
// implements no filesystem at all: it function-ships every file system
// call to a CIOD ioproxy on an I/O node running Linux, thereby inheriting
// POSIX semantics ("the calls produce the same result codes, network
// filesystem nuances, etc."). This package is the "Linux filesystem" those
// ioproxies call into; the FWK kernel also uses it directly as its local
// filesystem.
package fs

import (
	"sort"
	"strings"

	"bgcnk/internal/kernel"
)

// FileType distinguishes inode kinds.
type FileType uint8

// Inode kinds.
const (
	TypeFile FileType = iota
	TypeDir
	TypeSymlink
)

// Mode bits (permission part of st_mode).
type Mode uint16

// Permission bit helpers.
const (
	ModeRUsr Mode = 0400
	ModeWUsr Mode = 0200
	ModeXUsr Mode = 0100
	ModeRGrp Mode = 0040
	ModeWGrp Mode = 0020
	ModeXGrp Mode = 0010
	ModeROth Mode = 0004
	ModeWOth Mode = 0002
	ModeXOth Mode = 0001
)

// Cred identifies the caller for permission checks.
type Cred struct {
	UID uint32
	GID uint32
}

// Root is the superuser.
var Root = Cred{UID: 0, GID: 0}

// Stat is the result of a stat call.
type Stat struct {
	Ino   uint64
	Type  FileType
	Mode  Mode
	UID   uint32
	GID   uint32
	Size  uint64
	Nlink uint32
	Mtime uint64
}

type inode struct {
	ino     uint64
	typ     FileType
	mode    Mode
	uid     uint32
	gid     uint32
	mtime   uint64
	nlink   uint32
	data    []byte            // TypeFile
	target  string            // TypeSymlink
	entries map[string]*inode // TypeDir
}

func (n *inode) stat() Stat {
	size := uint64(len(n.data))
	if n.typ == TypeSymlink {
		size = uint64(len(n.target))
	}
	return Stat{Ino: n.ino, Type: n.typ, Mode: n.mode, UID: n.uid, GID: n.gid,
		Size: size, Nlink: n.nlink, Mtime: n.mtime}
}

// FS is one mounted filesystem tree.
type FS struct {
	root    *inode
	nextIno uint64
	byIno   map[uint64]*inode
	tick    uint64
}

// New returns an empty filesystem whose root is mode 0755 and owned by
// root.
func New() *FS {
	f := &FS{nextIno: 2, byIno: map[uint64]*inode{}}
	f.root = &inode{ino: 1, typ: TypeDir, mode: 0755, nlink: 2, entries: map[string]*inode{}}
	f.byIno[1] = f.root
	return f
}

func (f *FS) now() uint64 {
	f.tick++
	return f.tick
}

func (f *FS) newInode(typ FileType, mode Mode, c Cred) *inode {
	n := &inode{ino: f.nextIno, typ: typ, mode: mode, uid: c.UID, gid: c.GID, mtime: f.now(), nlink: 1}
	f.nextIno++
	if typ == TypeDir {
		n.entries = map[string]*inode{}
		n.nlink = 2
	}
	f.byIno[n.ino] = n
	return n
}

// access checks permission bits the POSIX way: owner class, then group,
// then other. UID 0 bypasses permission checks (like Linux capabilities
// for file access).
func access(n *inode, c Cred, want Mode) bool {
	if c.UID == 0 {
		return true
	}
	var bits Mode
	switch {
	case c.UID == n.uid:
		bits = (n.mode >> 6) & 7
	case c.GID == n.gid:
		bits = (n.mode >> 3) & 7
	default:
		bits = n.mode & 7
	}
	return bits&want == want
}

// splitPath normalizes p (relative to cwd when p is relative) into
// components.
func splitPath(cwd, p string) []string {
	if !strings.HasPrefix(p, "/") {
		p = cwd + "/" + p
	}
	var out []string
	for _, c := range strings.Split(p, "/") {
		switch c {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, c)
		}
	}
	return out
}

const maxSymlinkDepth = 8

// resolve walks the path. If followLast is false the final symlink itself
// is returned. It returns the parent directory, the final name, and the
// inode (nil if the final component does not exist).
func (f *FS) resolve(cwd, path string, c Cred, followLast bool, depth int) (parent *inode, name string, n *inode, errno kernel.Errno) {
	if depth > maxSymlinkDepth {
		return nil, "", nil, kernel.ELOOP
	}
	comps := splitPath(cwd, path)
	cur := f.root
	if len(comps) == 0 {
		return nil, "", cur, kernel.OK
	}
	for i, comp := range comps {
		if cur.typ != TypeDir {
			return nil, "", nil, kernel.ENOTDIR
		}
		if !access(cur, c, 1) { // need search (x) permission
			return nil, "", nil, kernel.EACCES
		}
		child := cur.entries[comp]
		last := i == len(comps)-1
		if child != nil && child.typ == TypeSymlink && (!last || followLast) {
			// Re-resolve: target relative to the directory holding the link.
			rest := strings.Join(comps[i+1:], "/")
			target := child.target
			if rest != "" {
				target = target + "/" + rest
			}
			base := "/" + strings.Join(comps[:i], "/")
			return f.resolve(base, target, c, followLast, depth+1)
		}
		if last {
			return cur, comp, child, kernel.OK
		}
		if child == nil {
			return nil, "", nil, kernel.ENOENT
		}
		cur = child
	}
	panic("unreachable")
}

// lookup returns the inode at path or an errno.
func (f *FS) lookup(cwd, path string, c Cred, follow bool) (*inode, kernel.Errno) {
	_, _, n, errno := f.resolve(cwd, path, c, follow, 0)
	if errno != kernel.OK {
		return nil, errno
	}
	if n == nil {
		return nil, kernel.ENOENT
	}
	return n, kernel.OK
}

// Mkdir creates a directory.
func (f *FS) Mkdir(cwd, path string, mode Mode, c Cred) kernel.Errno {
	parent, name, n, errno := f.resolve(cwd, path, c, true, 0)
	if errno != kernel.OK {
		return errno
	}
	if n != nil {
		return kernel.EEXIST
	}
	if name == "" {
		return kernel.EEXIST // root
	}
	if !access(parent, c, 2) {
		return kernel.EACCES
	}
	d := f.newInode(TypeDir, mode&0777, c)
	parent.entries[name] = d
	parent.nlink++
	parent.mtime = f.now()
	return kernel.OK
}

// Rmdir removes an empty directory.
func (f *FS) Rmdir(cwd, path string, c Cred) kernel.Errno {
	parent, name, n, errno := f.resolve(cwd, path, c, false, 0)
	if errno != kernel.OK {
		return errno
	}
	if n == nil {
		return kernel.ENOENT
	}
	if n.typ != TypeDir {
		return kernel.ENOTDIR
	}
	if parent == nil {
		return kernel.EBUSY // rmdir("/")
	}
	if len(n.entries) != 0 {
		return kernel.ENOTEMPTY
	}
	if !access(parent, c, 2) {
		return kernel.EACCES
	}
	delete(parent.entries, name)
	parent.nlink--
	parent.mtime = f.now()
	return kernel.OK
}

// Unlink removes a file or symlink.
func (f *FS) Unlink(cwd, path string, c Cred) kernel.Errno {
	parent, name, n, errno := f.resolve(cwd, path, c, false, 0)
	if errno != kernel.OK {
		return errno
	}
	if n == nil {
		return kernel.ENOENT
	}
	if n.typ == TypeDir {
		return kernel.EISDIR
	}
	if !access(parent, c, 2) {
		return kernel.EACCES
	}
	delete(parent.entries, name)
	n.nlink--
	parent.mtime = f.now()
	return kernel.OK
}

// Rename moves oldpath to newpath, replacing a non-directory target.
func (f *FS) Rename(cwd, oldpath, newpath string, c Cred) kernel.Errno {
	op, oname, on, errno := f.resolve(cwd, oldpath, c, false, 0)
	if errno != kernel.OK {
		return errno
	}
	if on == nil {
		return kernel.ENOENT
	}
	np, nname, nn, errno := f.resolve(cwd, newpath, c, false, 0)
	if errno != kernel.OK {
		return errno
	}
	if op == nil || np == nil {
		return kernel.EBUSY // renaming the root, or over the root
	}
	if !access(op, c, 2) || !access(np, c, 2) {
		return kernel.EACCES
	}
	if nn == on {
		return kernel.OK // POSIX: rename to self is a no-op
	}
	if on.typ == TypeDir && subtreeContains(on, np) {
		return kernel.EINVAL // moving a directory under itself
	}
	if nn != nil {
		if nn.typ == TypeDir {
			if on.typ != TypeDir {
				return kernel.EISDIR
			}
			if len(nn.entries) != 0 {
				return kernel.ENOTEMPTY
			}
		} else if on.typ == TypeDir {
			return kernel.ENOTDIR
		}
	}
	delete(op.entries, oname)
	if nn != nil {
		nn.nlink--
		if nn.typ == TypeDir {
			np.nlink--
		}
	}
	np.entries[nname] = on
	if on.typ == TypeDir && op != np {
		op.nlink--
		np.nlink++
	}
	op.mtime, np.mtime = f.now(), f.now()
	return kernel.OK
}

// subtreeContains reports whether dir's subtree (including dir itself)
// holds n.
func subtreeContains(dir, n *inode) bool {
	if dir == n {
		return true
	}
	for _, c := range dir.entries {
		if c.typ == TypeDir && subtreeContains(c, n) {
			return true
		}
	}
	return false
}

// Symlink creates a symbolic link at path pointing to target.
func (f *FS) Symlink(cwd, target, path string, c Cred) kernel.Errno {
	parent, name, n, errno := f.resolve(cwd, path, c, false, 0)
	if errno != kernel.OK {
		return errno
	}
	if n != nil {
		return kernel.EEXIST
	}
	if !access(parent, c, 2) {
		return kernel.EACCES
	}
	l := f.newInode(TypeSymlink, 0777, c)
	l.target = target
	parent.entries[name] = l
	parent.mtime = f.now()
	return kernel.OK
}

// Readlink returns a symlink's target.
func (f *FS) Readlink(cwd, path string, c Cred) (string, kernel.Errno) {
	n, errno := f.lookup(cwd, path, c, false)
	if errno != kernel.OK {
		return "", errno
	}
	if n.typ != TypeSymlink {
		return "", kernel.EINVAL
	}
	return n.target, kernel.OK
}

// Stat stats the file at path (following symlinks).
func (f *FS) Stat(cwd, path string, c Cred) (Stat, kernel.Errno) {
	n, errno := f.lookup(cwd, path, c, true)
	if errno != kernel.OK {
		return Stat{}, errno
	}
	return n.stat(), kernel.OK
}

// Readdir lists a directory, sorted.
func (f *FS) Readdir(cwd, path string, c Cred) ([]string, kernel.Errno) {
	n, errno := f.lookup(cwd, path, c, true)
	if errno != kernel.OK {
		return nil, errno
	}
	if n.typ != TypeDir {
		return nil, kernel.ENOTDIR
	}
	if !access(n, c, 4) {
		return nil, kernel.EACCES
	}
	names := make([]string, 0, len(n.entries))
	for name := range n.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, kernel.OK
}

// Truncate sets the file at path to the given size.
func (f *FS) Truncate(cwd, path string, size uint64, c Cred) kernel.Errno {
	n, errno := f.lookup(cwd, path, c, true)
	if errno != kernel.OK {
		return errno
	}
	if n.typ == TypeDir {
		return kernel.EISDIR
	}
	if !access(n, c, 2) {
		return kernel.EACCES
	}
	truncate(n, size)
	n.mtime = f.now()
	return kernel.OK
}

func truncate(n *inode, size uint64) {
	if size <= uint64(len(n.data)) {
		n.data = n.data[:size]
		return
	}
	n.data = append(n.data, make([]byte, size-uint64(len(n.data)))...)
}

// Inode-addressed access, used by the I/O node's write-back buffer cache.
// The cache sits below the VFS layer: path resolution and permission
// checks happen at open time; fills and writebacks address the inode
// directly, exactly as the Linux page cache does. An inode stays
// addressable while open even after the last link goes away.

// fileInode returns the regular file with the given inode number.
func (f *FS) fileInode(ino uint64) (*inode, kernel.Errno) {
	n, ok := f.byIno[ino]
	if !ok {
		return nil, kernel.ENOENT
	}
	if n.typ != TypeFile {
		return nil, kernel.EISDIR
	}
	return n, kernel.OK
}

// InodeSize returns the current on-"disk" size of the file.
func (f *FS) InodeSize(ino uint64) (uint64, kernel.Errno) {
	n, errno := f.fileInode(ino)
	if errno != kernel.OK {
		return 0, errno
	}
	return uint64(len(n.data)), kernel.OK
}

// ReadInode reads up to count bytes at off; short at EOF, empty past it.
func (f *FS) ReadInode(ino, off uint64, count int) ([]byte, kernel.Errno) {
	n, errno := f.fileInode(ino)
	if errno != kernel.OK {
		return nil, errno
	}
	if off >= uint64(len(n.data)) {
		return nil, kernel.OK
	}
	end := off + uint64(count)
	if end > uint64(len(n.data)) {
		end = uint64(len(n.data))
	}
	return append([]byte(nil), n.data[off:end]...), kernel.OK
}

// WriteInode writes data at off, zero-filling any gap and extending the
// file as needed (a dirty-block writeback).
func (f *FS) WriteInode(ino, off uint64, data []byte) kernel.Errno {
	n, errno := f.fileInode(ino)
	if errno != kernel.OK {
		return errno
	}
	if end := off + uint64(len(data)); end > uint64(len(n.data)) {
		truncate(n, end)
	}
	copy(n.data[off:], data)
	n.mtime = f.now()
	return kernel.OK
}

// TruncateInode sets the file to size, bypassing permission checks (the
// caller validated the open-time credentials).
func (f *FS) TruncateInode(ino, size uint64) kernel.Errno {
	n, errno := f.fileInode(ino)
	if errno != kernel.OK {
		return errno
	}
	truncate(n, size)
	n.mtime = f.now()
	return kernel.OK
}

// Chmod changes permission bits (owner or root only).
func (f *FS) Chmod(cwd, path string, mode Mode, c Cred) kernel.Errno {
	n, errno := f.lookup(cwd, path, c, true)
	if errno != kernel.OK {
		return errno
	}
	if c.UID != 0 && c.UID != n.uid {
		return kernel.EPERM
	}
	n.mode = mode & 0777
	return kernel.OK
}

// MustMkdirAll creates every directory on path as root; test/bootstrap
// helper.
func (f *FS) MustMkdirAll(path string) {
	comps := splitPath("/", path)
	cur := "/"
	for _, cmp := range comps {
		cur = cur + cmp + "/"
		if errno := f.Mkdir("/", cur, 0755, Root); errno != kernel.OK && errno != kernel.EEXIST {
			panic("fs: MkdirAll " + cur + ": " + errno.String())
		}
	}
}

// WriteFile creates path with the given contents as cred c; bootstrap
// helper used to populate images and test fixtures.
func (f *FS) WriteFile(path string, data []byte, mode Mode, c Cred) kernel.Errno {
	parent, name, n, errno := f.resolve("/", path, c, true, 0)
	if errno != kernel.OK {
		return errno
	}
	if n == nil {
		n = f.newInode(TypeFile, mode&0777, c)
		parent.entries[name] = n
	} else if n.typ != TypeFile {
		return kernel.EISDIR
	}
	n.data = append([]byte(nil), data...)
	n.mtime = f.now()
	return kernel.OK
}

// ReadFile returns the contents of path.
func (f *FS) ReadFile(path string, c Cred) ([]byte, kernel.Errno) {
	n, errno := f.lookup("/", path, c, true)
	if errno != kernel.OK {
		return nil, errno
	}
	if n.typ != TypeFile {
		return nil, kernel.EISDIR
	}
	return append([]byte(nil), n.data...), kernel.OK
}
