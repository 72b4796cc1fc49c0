package fs

import (
	"testing"

	"bgcnk/internal/kernel"
)

// BenchmarkWriteReadInode measures the I/O node cache's view of the fs:
// one 4 KiB WriteInode and one ReadInode of the same block of one file.
func BenchmarkWriteReadInode(b *testing.B) {
	f := New()
	if errno := f.WriteFile("/data", nil, 0644, Root); errno != kernel.OK {
		b.Fatal(errno)
	}
	st, _ := f.Stat("/", "/data", Root)
	block := make([]byte, 4096)
	b.ReportAllocs()
	for b.Loop() {
		if errno := f.WriteInode(st.Ino, 4096, block); errno != kernel.OK {
			b.Fatal(errno)
		}
		if _, errno := f.ReadInode(st.Ino, 4096, 4096); errno != kernel.OK {
			b.Fatal(errno)
		}
	}
}

// BenchmarkOpenFstatClose measures a shipped open, fstat and close of an
// existing file two directories down, through an ioproxy's Client.
func BenchmarkOpenFstatClose(b *testing.B) {
	f := New()
	f.MustMkdirAll("/gpfs/run")
	if errno := f.WriteFile("/gpfs/run/out.dat", make([]byte, 100), 0644, Root); errno != kernel.OK {
		b.Fatal(errno)
	}
	c := NewClient(f, Cred{UID: 100, GID: 100})
	b.ReportAllocs()
	for b.Loop() {
		fd, errno := c.Open("/gpfs/run/out.dat", kernel.ORdonly, 0)
		if errno != kernel.OK {
			b.Fatal(errno)
		}
		if _, errno := c.Fstat(fd); errno != kernel.OK {
			b.Fatal(errno)
		}
		if errno := c.Close(fd); errno != kernel.OK {
			b.Fatal(errno)
		}
	}
}
