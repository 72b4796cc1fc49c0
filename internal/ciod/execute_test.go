package ciod

import (
	"testing"

	"bgcnk/internal/fs"
	"bgcnk/internal/ion"
	"bgcnk/internal/kernel"
	"bgcnk/internal/sim"
)

// TestExecuteHugeReadCount: a read returns the file's bytes whatever its
// count, up to the largest a request from the wire can carry, straight
// through the filesystem and through an I/O-node cache. Execute cuts the
// count before converting it to an int, so 1<<63 does not turn negative.
func TestExecuteHugeReadCount(t *testing.T) {
	f := fs.New()
	f.WriteFile("/f", []byte("all of it"), 0644, fs.Root)
	cl := fs.NewClient(f, fs.Root)
	fd, errno := cl.Open("/f", kernel.ORdonly, 0)
	if errno != kernel.OK {
		t.Fatal(errno)
	}
	eng := sim.NewEngine()
	eng.Go("proxy", func(c *sim.Coro) {
		for _, files := range []FileData{FSData{f}, ion.NewCache(f, 2)} {
			for _, n := range []uint64{1 << 62, 1 << 63, 1<<64 - 1} {
				cl.SetOffset(fd, 0)
				rep := Execute(c, cl, files, &Request{Op: OpRead, FD: int32(fd), Size: n})
				if rep.Errno != kernel.OK || string(rep.Data) != "all of it" {
					t.Errorf("%T: read of %#x bytes: %v %q, want OK %q", files, n, rep.Errno, rep.Data, "all of it")
				}
			}
		}
	})
	eng.RunUntilIdle()
	eng.Shutdown()
}
