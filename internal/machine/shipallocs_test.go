package machine

import (
	"math"
	"runtime"
	"testing"

	"bgcnk/internal/ion"
	"bgcnk/internal/kernel"
)

// TestShippedCallsAllocate counts the host allocations of a CNK job that
// rewrites and rereads the first KiB of a file, once for a few rounds and
// once for 200 more, with and without an armed ION, the way
// TestRoundsAllocateNothing counts: the difference is what 200 more
// rounds of a shipped lseek, 1 KiB write, lseek and 1 KiB read cost over
// the whole path (the syscall, decode, marshal, the tree both ways, the
// daemon and the store back). A round may make at most allocs, rounded
// to a whole count: the runtime's own allocations move the total by a
// few either way.
//
// The remaining allocations are each call's argument slice and Request
// and, without an ION cache, the read's copy of the file's bytes: every
// request travels in the thread's wire buffer and its reply comes back
// in it.
func TestShippedCallsAllocate(t *testing.T) {
	for _, mc := range []struct {
		name   string
		ion    *ion.Config
		allocs float64
	}{{"CNK", nil, 9}, {"CNK+ION", &ion.Config{}, 8}} {
		t.Run(mc.name, func(t *testing.T) {
			mallocs := func(rounds int) uint64 {
				m, err := New(Config{Nodes: 1, Kind: KindCNK, ION: mc.ion})
				if err != nil {
					t.Fatal(err)
				}
				defer m.Shutdown()
				var failed kernel.Errno
				app := func(ctx kernel.Context, env *Env) {
					base := m.HeapBase(ctx)
					path, data, out := base, base+4096, base+8192
					ctx.StoreCString(path, "/gpfs/allocs")
					ctx.Store(data, make([]byte, 1024))
					fd, errno := ctx.Syscall(kernel.SysOpen, uint64(path), kernel.OCreat|kernel.ORdwr, 0644)
					check := func(_ uint64, errno kernel.Errno) {
						if errno != kernel.OK && failed == kernel.OK {
							failed = errno
						}
					}
					check(fd, errno)
					for r := 0; r < rounds; r++ {
						check(ctx.Syscall(kernel.SysLseek, fd, 0, uint64(kernel.SeekSet)))
						check(ctx.Syscall(kernel.SysWrite, fd, uint64(data), 1024))
						check(ctx.Syscall(kernel.SysLseek, fd, 0, uint64(kernel.SeekSet)))
						check(ctx.Syscall(kernel.SysRead, fd, uint64(out), 1024))
					}
					check(ctx.Syscall(kernel.SysClose, fd))
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if err := m.Run(app, kernel.JobParams{}, 0); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				if failed != kernel.OK {
					t.Fatalf("a file call failed: %v", failed)
				}
				return after.Mallocs - before.Mallocs
			}
			mallocs(10) // warm the runtime's caches
			base, more := mallocs(10), mallocs(210)
			per := float64(more-base) / 200
			t.Logf("%.2f allocations a round", per)
			if math.Round(per) > mc.allocs {
				t.Errorf("a shipped lseek + write + lseek + read makes %.2f allocations, want at most %v", per, mc.allocs)
			}
		})
	}
}
