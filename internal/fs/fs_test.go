package fs

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"bgcnk/internal/kernel"
)

func user(uid uint32) Cred { return Cred{UID: uid, GID: uid} }

func TestWriteReadFile(t *testing.T) {
	f := New()
	if errno := f.WriteFile("/hello.txt", []byte("world"), 0644, Root); errno != kernel.OK {
		t.Fatal(errno)
	}
	data, errno := f.ReadFile("/hello.txt", Root)
	if errno != kernel.OK || string(data) != "world" {
		t.Fatalf("read: %v %q", errno, data)
	}
}

func TestMkdirAndNesting(t *testing.T) {
	f := New()
	if errno := f.Mkdir("/", "/a", 0755, Root); errno != kernel.OK {
		t.Fatal(errno)
	}
	if errno := f.Mkdir("/", "/a/b", 0755, Root); errno != kernel.OK {
		t.Fatal(errno)
	}
	if errno := f.Mkdir("/", "/a/b", 0755, Root); errno != kernel.EEXIST {
		t.Fatalf("duplicate mkdir: %v", errno)
	}
	if errno := f.Mkdir("/", "/x/y", 0755, Root); errno != kernel.ENOENT {
		t.Fatalf("mkdir under missing parent: %v", errno)
	}
	st, errno := f.Stat("/", "/a/b", Root)
	if errno != kernel.OK || st.Type != TypeDir {
		t.Fatalf("stat dir: %v %v", errno, st.Type)
	}
}

func TestOpenCreateReadWriteSeek(t *testing.T) {
	f := New()
	c := NewClient(f, Root)
	fd, errno := c.Open("/f", kernel.OCreat|kernel.ORdwr, 0644)
	if errno != kernel.OK {
		t.Fatal(errno)
	}
	if n, errno := c.Write(fd, []byte("abcdefgh")); errno != kernel.OK || n != 8 {
		t.Fatalf("write: %v %d", errno, n)
	}
	if pos, errno := c.Lseek(fd, 2, kernel.SeekSet); errno != kernel.OK || pos != 2 {
		t.Fatalf("lseek: %v %d", errno, pos)
	}
	buf := make([]byte, 3)
	if n, errno := c.Read(fd, buf); errno != kernel.OK || n != 3 || string(buf) != "cde" {
		t.Fatalf("read: %v %d %q", errno, n, buf)
	}
	// Seek relative and from end.
	if pos, _ := c.Lseek(fd, -2, kernel.SeekEnd); pos != 6 {
		t.Fatalf("seek end: %d", pos)
	}
	if pos, _ := c.Lseek(fd, 1, kernel.SeekCur); pos != 7 {
		t.Fatalf("seek cur: %d", pos)
	}
	if _, errno := c.Lseek(fd, -100, kernel.SeekSet); errno != kernel.EINVAL {
		t.Fatal("negative seek must fail")
	}
}

func TestReadAtEOF(t *testing.T) {
	f := New()
	c := NewClient(f, Root)
	fd, _ := c.Open("/f", kernel.OCreat|kernel.ORdwr, 0644)
	c.Write(fd, []byte("xy"))
	buf := make([]byte, 10)
	if n, errno := c.Read(fd, buf); errno != kernel.OK || n != 0 {
		t.Fatalf("EOF read: %v %d", errno, n)
	}
}

func TestWriteBeyondEOFZeroFills(t *testing.T) {
	f := New()
	c := NewClient(f, Root)
	fd, _ := c.Open("/f", kernel.OCreat|kernel.ORdwr, 0644)
	c.Lseek(fd, 100, kernel.SeekSet)
	c.Write(fd, []byte("Z"))
	data, _ := f.ReadFile("/f", Root)
	if len(data) != 101 || data[99] != 0 || data[100] != 'Z' {
		t.Fatalf("sparse write: len=%d", len(data))
	}
}

// TestWriteInodeSeveralSlices pins WriteInode's vectored form: writing
// several slices leaves the same bytes, size, zero-filled gap and mtime
// as one write of their concatenation.
func TestWriteInodeSeveralSlices(t *testing.T) {
	parts := [][]byte{[]byte("AB"), nil, []byte("CDE"), []byte("F")}
	var joined []byte
	for _, p := range parts {
		joined = append(joined, p...)
	}
	for _, tc := range []struct {
		name string
		off  uint64
	}{
		{"overwrite", 4},
		{"extend", 12},
		{"past EOF", 40},
	} {
		var got [2]Stat
		var data [2][]byte
		for i, f := range []*FS{New(), New()} {
			if errno := f.WriteFile("/f", []byte("0123456789abcdef"), 0644, Root); errno != kernel.OK {
				t.Fatal(errno)
			}
			st, _ := f.Stat("/", "/f", Root)
			var errno kernel.Errno
			if i == 0 {
				errno = f.WriteInode(st.Ino, tc.off, parts...)
			} else {
				errno = f.WriteInode(st.Ino, tc.off, joined)
			}
			if errno != kernel.OK {
				t.Fatalf("%s: %v", tc.name, errno)
			}
			got[i], _ = f.Stat("/", "/f", Root)
			data[i], _ = f.ReadFile("/f", Root)
		}
		if want := max(16, tc.off+uint64(len(joined))); got[0].Size != want {
			t.Errorf("%s: size %d, want %d", tc.name, got[0].Size, want)
		}
		if got[0] != got[1] || string(data[0]) != string(data[1]) {
			t.Errorf("%s: several slices left %+v %q, one write %+v %q", tc.name, got[0], data[0], got[1], data[1])
		}
	}
}

func TestAppendFlag(t *testing.T) {
	f := New()
	c := NewClient(f, Root)
	fd, _ := c.Open("/log", kernel.OCreat|kernel.OWronly, 0644)
	c.Write(fd, []byte("one"))
	c.Close(fd)
	fd, _ = c.Open("/log", kernel.OWronly|kernel.OAppend, 0)
	c.Write(fd, []byte("two"))
	data, _ := f.ReadFile("/log", Root)
	if string(data) != "onetwo" {
		t.Fatalf("append: %q", data)
	}
}

func TestOTruncTruncates(t *testing.T) {
	f := New()
	f.WriteFile("/f", []byte("longcontent"), 0644, Root)
	c := NewClient(f, Root)
	c.Open("/f", kernel.OWronly|kernel.OTrunc, 0)
	data, _ := f.ReadFile("/f", Root)
	if len(data) != 0 {
		t.Fatalf("O_TRUNC left %d bytes", len(data))
	}
}

func TestOExclOnExisting(t *testing.T) {
	f := New()
	f.WriteFile("/f", nil, 0644, Root)
	c := NewClient(f, Root)
	if _, errno := c.Open("/f", kernel.OCreat|kernel.OExcl|kernel.OWronly, 0644); errno != kernel.EEXIST {
		t.Fatalf("O_EXCL: %v", errno)
	}
}

func TestDupSharesOffset(t *testing.T) {
	f := New()
	f.WriteFile("/f", []byte("abcdef"), 0644, Root)
	c := NewClient(f, Root)
	fd, _ := c.Open("/f", kernel.ORdonly, 0)
	fd2, errno := c.Dup(fd)
	if errno != kernel.OK {
		t.Fatal(errno)
	}
	buf := make([]byte, 2)
	c.Read(fd, buf)
	c.Read(fd2, buf)
	if string(buf) != "cd" {
		t.Fatalf("dup must share offset: %q", buf)
	}
	c.Close(fd)
	if _, errno := c.Read(fd2, buf); errno != kernel.OK {
		t.Fatal("closing one dup must not close the other")
	}
}

func TestBadFD(t *testing.T) {
	c := NewClient(New(), Root)
	if _, errno := c.Read(42, make([]byte, 1)); errno != kernel.EBADF {
		t.Fatal(errno)
	}
	if errno := c.Close(-1); errno != kernel.EBADF {
		t.Fatal(errno)
	}
	fd, _ := c.Open("/f", kernel.OCreat|kernel.ORdwr, 0644)
	c.Close(fd)
	if errno := c.Close(fd); errno != kernel.EBADF {
		t.Fatal("double close must fail")
	}
}

func TestReadWriteModeEnforcement(t *testing.T) {
	f := New()
	f.WriteFile("/f", []byte("data"), 0644, Root)
	c := NewClient(f, Root)
	rfd, _ := c.Open("/f", kernel.ORdonly, 0)
	if _, errno := c.Write(rfd, []byte("x")); errno != kernel.EBADF {
		t.Fatalf("write to O_RDONLY: %v", errno)
	}
	wfd, _ := c.Open("/f", kernel.OWronly, 0)
	if _, errno := c.Read(wfd, make([]byte, 1)); errno != kernel.EBADF {
		t.Fatalf("read from O_WRONLY: %v", errno)
	}
}

func TestPermissionChecks(t *testing.T) {
	f := New()
	f.Mkdir("/", "/private", 0700, Root)
	f.WriteFile("/private/secret", []byte("s"), 0600, Root)
	alice := NewClient(f, user(1000))
	if _, errno := alice.Open("/private/secret", kernel.ORdonly, 0); errno != kernel.EACCES {
		t.Fatalf("search perm: %v", errno)
	}
	f.Mkdir("/", "/pub", 0755, Root)
	f.WriteFile("/pub/ro", []byte("r"), 0644, Root)
	if _, errno := alice.Open("/pub/ro", kernel.OWronly, 0); errno != kernel.EACCES {
		t.Fatalf("write to 0644 root file as alice: %v", errno)
	}
	if _, errno := alice.Open("/pub/ro", kernel.ORdonly, 0); errno != kernel.OK {
		t.Fatalf("read of 0644: %v", errno)
	}
	// Alice cannot create in /pub (0755 root-owned).
	if _, errno := alice.Open("/pub/new", kernel.OCreat|kernel.OWronly, 0644); errno != kernel.EACCES {
		t.Fatalf("create in non-writable dir: %v", errno)
	}
}

func TestGroupPermissions(t *testing.T) {
	f := New()
	f.WriteFile("/shared", []byte("g"), 0, Root)
	f.Chmod("/", "/shared", 0640, Root)
	// Same GID as owner (0) can read; others cannot.
	sameGroup := NewClient(f, Cred{UID: 5, GID: 0})
	if _, errno := sameGroup.Open("/shared", kernel.ORdonly, 0); errno != kernel.OK {
		t.Fatalf("group read: %v", errno)
	}
	other := NewClient(f, Cred{UID: 6, GID: 6})
	if _, errno := other.Open("/shared", kernel.ORdonly, 0); errno != kernel.EACCES {
		t.Fatalf("other read: %v", errno)
	}
}

func TestChmodOwnerOnly(t *testing.T) {
	f := New()
	f.WriteFile("/f", nil, 0644, user(1000))
	if errno := f.Chmod("/", "/f", 0600, user(2000)); errno != kernel.EPERM {
		t.Fatalf("chmod by non-owner: %v", errno)
	}
	if errno := f.Chmod("/", "/f", 0600, user(1000)); errno != kernel.OK {
		t.Fatalf("chmod by owner: %v", errno)
	}
}

func TestUnlinkRename(t *testing.T) {
	f := New()
	f.WriteFile("/a", []byte("1"), 0644, Root)
	if errno := f.Rename("/", "/a", "/b", Root); errno != kernel.OK {
		t.Fatal(errno)
	}
	if _, errno := f.ReadFile("/a", Root); errno != kernel.ENOENT {
		t.Fatal("rename left source")
	}
	if data, _ := f.ReadFile("/b", Root); string(data) != "1" {
		t.Fatal("rename lost content")
	}
	if errno := f.Unlink("/", "/b", Root); errno != kernel.OK {
		t.Fatal(errno)
	}
	if _, errno := f.ReadFile("/b", Root); errno != kernel.ENOENT {
		t.Fatal("unlink left file")
	}
	if errno := f.Unlink("/", "/b", Root); errno != kernel.ENOENT {
		t.Fatal("double unlink must fail")
	}
}

func TestRenameOntoExisting(t *testing.T) {
	f := New()
	f.WriteFile("/a", []byte("new"), 0644, Root)
	f.WriteFile("/b", []byte("old"), 0644, Root)
	if errno := f.Rename("/", "/a", "/b", Root); errno != kernel.OK {
		t.Fatal(errno)
	}
	if data, _ := f.ReadFile("/b", Root); string(data) != "new" {
		t.Fatal("rename must replace target")
	}
	// Directory onto non-empty directory fails.
	f.Mkdir("/", "/d1", 0755, Root)
	f.Mkdir("/", "/d2", 0755, Root)
	f.WriteFile("/d2/x", nil, 0644, Root)
	if errno := f.Rename("/", "/d1", "/d2", Root); errno != kernel.ENOTEMPTY {
		t.Fatalf("rename dir onto non-empty: %v", errno)
	}
}

func TestRmdirSemantics(t *testing.T) {
	f := New()
	f.Mkdir("/", "/d", 0755, Root)
	f.WriteFile("/d/f", nil, 0644, Root)
	if errno := f.Rmdir("/", "/d", Root); errno != kernel.ENOTEMPTY {
		t.Fatal(errno)
	}
	f.Unlink("/", "/d/f", Root)
	if errno := f.Rmdir("/", "/d", Root); errno != kernel.OK {
		t.Fatal(errno)
	}
	f.WriteFile("/f", nil, 0644, Root)
	if errno := f.Rmdir("/", "/f", Root); errno != kernel.ENOTDIR {
		t.Fatal(errno)
	}
	if errno := f.Unlink("/", "/d", Root); errno != kernel.ENOENT {
		t.Fatal("unlink of removed dir")
	}
}

func TestCwdRelativePaths(t *testing.T) {
	f := New()
	f.MustMkdirAll("/home/alice/work")
	c := NewClient(f, Root)
	if errno := c.Chdir("/home/alice"); errno != kernel.OK {
		t.Fatal(errno)
	}
	if c.Cwd() != "/home/alice" {
		t.Fatalf("cwd = %q", c.Cwd())
	}
	fd, errno := c.Open("work/notes.txt", kernel.OCreat|kernel.OWronly, 0644)
	if errno != kernel.OK {
		t.Fatal(errno)
	}
	c.Write(fd, []byte("hi"))
	if data, _ := f.ReadFile("/home/alice/work/notes.txt", Root); string(data) != "hi" {
		t.Fatal("relative create landed elsewhere")
	}
	if errno := c.Chdir("work/../work/./"); errno != kernel.OK {
		t.Fatal(errno)
	}
	if c.Cwd() != "/home/alice/work" {
		t.Fatalf("cwd after dots = %q", c.Cwd())
	}
	if errno := c.Chdir("notes.txt"); errno != kernel.ENOTDIR {
		t.Fatal("chdir to file must fail")
	}
}

func TestSymlinkResolution(t *testing.T) {
	f := New()
	f.MustMkdirAll("/data/real")
	f.WriteFile("/data/real/file", []byte("x"), 0644, Root)
	if errno := f.Symlink("/", "/data/real", "/link", Root); errno != kernel.OK {
		t.Fatal(errno)
	}
	if data, errno := f.ReadFile("/link/file", Root); errno != kernel.OK || string(data) != "x" {
		t.Fatalf("through-symlink read: %v %q", errno, data)
	}
	target, errno := f.Readlink("/", "/link", Root)
	if errno != kernel.OK || target != "/data/real" {
		t.Fatalf("readlink: %v %q", errno, target)
	}
	// Relative symlink.
	f.Symlink("/", "real/file", "/data/rel", Root)
	if data, errno := f.ReadFile("/data/rel", Root); errno != kernel.OK || string(data) != "x" {
		t.Fatalf("relative symlink: %v %q", errno, data)
	}
}

func TestSymlinkLoop(t *testing.T) {
	f := New()
	f.Symlink("/", "/b", "/a", Root)
	f.Symlink("/", "/a", "/b", Root)
	if _, errno := f.ReadFile("/a", Root); errno != kernel.ELOOP {
		t.Fatalf("loop: %v", errno)
	}
}

func TestStatFields(t *testing.T) {
	f := New()
	f.WriteFile("/f", []byte("12345"), 0640, user(7))
	st, errno := f.Stat("/", "/f", Root)
	if errno != kernel.OK {
		t.Fatal(errno)
	}
	if st.Size != 5 || st.UID != 7 || st.Mode != 0640 || st.Type != TypeFile || st.Nlink != 1 {
		t.Fatalf("stat = %+v", st)
	}
	if st.Ino == 0 {
		t.Fatal("inode number missing")
	}
}

func TestReaddirSorted(t *testing.T) {
	f := New()
	for _, n := range []string{"/c", "/a", "/b"} {
		f.WriteFile(n, nil, 0644, Root)
	}
	names, errno := f.Readdir("/", "/", Root)
	if errno != kernel.OK {
		t.Fatal(errno)
	}
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Fatalf("readdir: %v", names)
	}
}

func TestTruncateGrowShrink(t *testing.T) {
	f := New()
	f.WriteFile("/f", []byte("abcdef"), 0644, Root)
	f.Truncate("/", "/f", 3, Root)
	if data, _ := f.ReadFile("/f", Root); string(data) != "abc" {
		t.Fatalf("shrink: %q", data)
	}
	f.Truncate("/", "/f", 6, Root)
	if data, _ := f.ReadFile("/f", Root); len(data) != 6 || data[5] != 0 {
		t.Fatalf("grow: %q", data)
	}
}

func TestFDExhaustion(t *testing.T) {
	f := New()
	f.WriteFile("/f", nil, 0644, Root)
	c := NewClient(f, Root)
	fds := 0
	for {
		_, errno := c.Open("/f", kernel.ORdonly, 0)
		if errno == kernel.EMFILE {
			break
		}
		if errno != kernel.OK {
			t.Fatal(errno)
		}
		fds++
		if fds > MaxFDs {
			t.Fatal("EMFILE never returned")
		}
	}
	if fds != MaxFDs {
		t.Fatalf("opened %d, want %d", fds, MaxFDs)
	}
}

// TestPropertyWriteReadAnyOffset writes and reads back at random
// offsets through a descriptor, then runs seeded random mixes of every
// way a file's bytes change or are read against a flat []byte model:
// WriteInode with several slices, TruncateInode shrinking and growing
// across 4 KiB boundaries, writes past the end that leave holes,
// WriteFile and ReadFile, and Client.Write and Read after a SEEK_END
// seek. After each step the file's size (InodeSize, stat and fstat)
// and a read of a random span must match the model.
func TestPropertyWriteReadAnyOffset(t *testing.T) {
	f := New()
	c := NewClient(f, Root)
	fd, _ := c.Open("/p", kernel.OCreat|kernel.ORdwr, 0644)
	check := func(off uint16, payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		if _, errno := c.Lseek(fd, int64(off), kernel.SeekSet); errno != kernel.OK {
			return false
		}
		if _, errno := c.Write(fd, payload); errno != kernel.OK {
			return false
		}
		if _, errno := c.Lseek(fd, int64(off), kernel.SeekSet); errno != kernel.OK {
			return false
		}
		got := make([]byte, len(payload))
		n, errno := c.Read(fd, got)
		if errno != kernel.OK || n != len(payload) {
			return false
		}
		return string(got) == string(payload)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewPCG(1, 2))
	bytesOf := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.IntN(255) + 1) // never 0, so a hole shows
		}
		return b
	}
	// writeAt and resize are the model's write and truncate.
	writeAt := func(model []byte, off int, p []byte) []byte {
		if len(p) == 0 {
			return model
		}
		if end := off + len(p); end > len(model) {
			model = append(model, make([]byte, end-len(model))...)
		}
		copy(model[off:], p)
		return model
	}
	resize := func(model []byte, size int) []byte {
		if size <= len(model) {
			return model[:size]
		}
		return append(model, make([]byte, size-len(model))...)
	}
	// span is an offset and length anywhere in the first five pages and
	// a little past them.
	span := func() (int, int) { return rng.IntN(5*4096 + 100), rng.IntN(3 * 4096) }
	for round := 0; round < 40; round++ {
		f := New()
		model := bytesOf(rng.IntN(9000))
		if errno := f.WriteFile("/m", model, 0644, Root); errno != kernel.OK {
			t.Fatal(errno)
		}
		st, _ := f.Stat("/", "/m", Root)
		c := NewClient(f, Root)
		fd, errno := c.Open("/m", kernel.ORdwr, 0)
		if errno != kernel.OK {
			t.Fatal(errno)
		}
		for step := 0; step < 60; step++ {
			var op string
			switch rng.IntN(6) {
			case 0:
				off, n := span()
				p := bytesOf(n)
				cut1, cut2 := rng.IntN(n+1), rng.IntN(n+1)
				cut1, cut2 = min(cut1, cut2), max(cut1, cut2)
				op = fmt.Sprintf("WriteInode(%d, %d bytes in 3 slices)", off, n)
				if errno := f.WriteInode(st.Ino, uint64(off), p[:cut1], p[cut1:cut2], p[cut2:]); errno != kernel.OK {
					t.Fatalf("%s: %v", op, errno)
				}
				model = writeAt(model, off, p)
			case 1:
				// Shrink to inside a page, then grow back past the page
				// boundary: the regrown bytes must read as zero.
				small := rng.IntN(len(model) + 1)
				big := small + rng.IntN(2*4096)
				op = fmt.Sprintf("TruncateInode(%d) then (%d)", small, big)
				f.TruncateInode(st.Ino, uint64(small))
				model = resize(model, small)
				f.TruncateInode(st.Ino, uint64(big))
				model = resize(model, big)
			case 2:
				model = bytesOf(rng.IntN(3 * 4096))
				op = fmt.Sprintf("WriteFile(%d bytes)", len(model))
				if errno := f.WriteFile("/m", model, 0644, Root); errno != kernel.OK {
					t.Fatalf("%s: %v", op, errno)
				}
				model = append([]byte(nil), model...)
			case 3:
				delta := rng.IntN(6000) - 3000
				if len(model)+delta < 0 {
					delta = -len(model)
				}
				p := bytesOf(rng.IntN(5000))
				op = fmt.Sprintf("Lseek(%d, SEEK_END) + Write(%d)", delta, len(p))
				pos, errno := c.Lseek(fd, int64(delta), kernel.SeekEnd)
				if errno != kernel.OK || int(pos) != len(model)+delta {
					t.Fatalf("%s: lseek to %d, %v; want %d", op, pos, errno, len(model)+delta)
				}
				if n, errno := c.Write(fd, p); errno != kernel.OK || n != len(p) {
					t.Fatalf("%s: wrote %d, %v", op, n, errno)
				}
				model = writeAt(model, int(pos), p)
			case 4:
				off, n := span()
				op = fmt.Sprintf("Lseek(%d) + Read(%d)", off, n)
				c.Lseek(fd, int64(off), kernel.SeekSet)
				buf := make([]byte, n)
				got, errno := c.Read(fd, buf)
				want := model[min(off, len(model)):min(off+n, len(model))]
				if errno != kernel.OK || string(buf[:got]) != string(want) {
					t.Fatalf("step %d %s: read %d bytes, %v; want %d", step, op, got, errno, len(want))
				}
			case 5:
				op = "ReadFile"
				got, errno := f.ReadFile("/m", Root)
				if errno != kernel.OK || string(got) != string(model) {
					t.Fatalf("step %d ReadFile: %d bytes, %v; want %d", step, len(got), errno, len(model))
				}
			}
			size, _ := f.InodeSize(st.Ino)
			pst, _ := f.Stat("/", "/m", Root)
			fst, _ := c.Fstat(fd)
			if size != uint64(len(model)) || pst.Size != size || fst.Size != size {
				t.Fatalf("round %d step %d after %s: InodeSize %d, stat %d, fstat %d; want %d",
					round, step, op, size, pst.Size, fst.Size, len(model))
			}
			off, n := span()
			got, errno := f.ReadInode(st.Ino, uint64(off), n)
			want := model[min(off, len(model)):min(off+n, len(model))]
			if errno != kernel.OK || string(got) != string(want) {
				t.Fatalf("round %d step %d after %s: ReadInode(%d, %d) gave %d bytes, %v; want %d",
					round, step, op, off, n, len(got), errno, len(want))
			}
		}
	}
}

func TestManyFilesStress(t *testing.T) {
	f := New()
	f.MustMkdirAll("/stress")
	for i := 0; i < 500; i++ {
		path := fmt.Sprintf("/stress/f%03d", i)
		if errno := f.WriteFile(path, []byte{byte(i)}, 0644, Root); errno != kernel.OK {
			t.Fatal(errno)
		}
	}
	names, _ := f.Readdir("/", "/stress", Root)
	if len(names) != 500 {
		t.Fatalf("got %d entries", len(names))
	}
	for i := 0; i < 500; i += 37 {
		data, errno := f.ReadFile(fmt.Sprintf("/stress/f%03d", i), Root)
		if errno != kernel.OK || data[0] != byte(i) {
			t.Fatalf("file %d corrupted", i)
		}
	}
}
