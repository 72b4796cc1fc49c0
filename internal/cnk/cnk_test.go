package cnk

import (
	"errors"
	"runtime"
	"testing"

	"bgcnk/internal/ciod"
	"bgcnk/internal/collective"
	"bgcnk/internal/fs"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/sim"
)

// node builds a booted single-node CNK with a loopback I/O transport.
func node(t *testing.T, cfg Config) (*sim.Engine, *Kernel, *fs.FS) {
	t.Helper()
	eng := sim.NewEngine()
	chip := hw.NewChip(hw.ChipConfig{ID: 0})
	filesystem := fs.New()
	if cfg.IO == nil {
		cfg.IO = ciod.NewLoopback(eng, filesystem)
	}
	k := New(eng, chip, cfg)
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	return eng, k, filesystem
}

// run launches the job and drives the engine until idle.
func run(t *testing.T, eng *sim.Engine, k *Kernel, spec kernel.JobSpec) *Job {
	t.Helper()
	job, err := k.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntilIdle()
	eng.Shutdown()
	if !job.Done() {
		t.Fatal("job did not finish (deadlock?)")
	}
	return job
}

func TestBootFastAndDeterministic(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, hw.NewChip(hw.ChipConfig{}), Config{Reproducible: true})
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	if k.BootInstr == 0 || k.BootInstr > 500_000 {
		t.Fatalf("CNK boot = %d instructions; must be tiny", k.BootInstr)
	}
	if err := k.Boot(); err == nil {
		t.Fatal("double boot must fail")
	}
}

func TestBootWithBrokenUnits(t *testing.T) {
	eng := sim.NewEngine()
	chip := hw.NewChip(hw.ChipConfig{})
	chip.SetUnitEnabled(hw.UnitTorus, false)
	chip.SetUnitEnabled(hw.UnitFPU, false)
	k := New(eng, chip, Config{})
	if err := k.Boot(); err != nil {
		t.Fatalf("CNK must boot on partial hardware: %v", err)
	}
	if len(k.UnitsDown) != 2 {
		t.Fatalf("units down = %v", k.UnitsDown)
	}
	// DDR is mandatory.
	chip2 := hw.NewChip(hw.ChipConfig{})
	chip2.SetUnitEnabled(hw.UnitDDR, false)
	if err := New(eng, chip2, Config{}).Boot(); err == nil {
		t.Fatal("boot must fail without DDR")
	}
}

func TestJobRunsAndExits(t *testing.T) {
	eng, k, _ := node(t, Config{})
	ran := false
	job := run(t, eng, k, kernel.JobSpec{
		Main: func(ctx kernel.Context, rank int) {
			ctx.Compute(10_000)
			ran = true
		},
	})
	if !ran || job.Procs[0].ExitCode() != 0 {
		t.Fatal("main did not run cleanly")
	}
}

func TestVNModeFourProcesses(t *testing.T) {
	eng, k, _ := node(t, Config{})
	ranks := map[int]uint32{}
	run(t, eng, k, kernel.JobSpec{
		Params: kernel.JobParams{ProcsPerNode: 4},
		Main: func(ctx kernel.Context, rank int) {
			ranks[rank] = ctx.PID()
			ctx.Compute(1000)
		},
	})
	if len(ranks) != 4 {
		t.Fatalf("ranks ran: %v", ranks)
	}
	seen := map[uint32]bool{}
	for _, pid := range ranks {
		if seen[pid] {
			t.Fatal("two ranks shared a PID")
		}
		seen[pid] = true
	}
}

func TestComputeAdvancesExactCycles(t *testing.T) {
	eng, k, _ := node(t, Config{})
	var start, end sim.Cycles
	run(t, eng, k, kernel.JobSpec{
		Main: func(ctx kernel.Context, rank int) {
			start = ctx.Now()
			ctx.Compute(123_456)
			end = ctx.Now()
		},
	})
	if end-start != 123_456 {
		t.Fatalf("compute took %d cycles, want exactly 123456 (CNK adds no noise)", end-start)
	}
}

func TestNoTLBMissesUnderStaticMap(t *testing.T) {
	eng, k, _ := node(t, Config{})
	run(t, eng, k, kernel.JobSpec{
		Main: func(ctx kernel.Context, rank int) {
			p := k.Proc(ctx.PID())
			// Touch memory all over the heap.
			base := p.Layout.HeapBase
			for off := uint64(0); off < 32<<20; off += 1 << 20 {
				if errno := ctx.Touch(base+hw.VAddr(off), 4096, true); errno != kernel.OK {
					t.Errorf("touch at +%d: %v", off, errno)
				}
			}
		},
	})
	for _, c := range k.Chip.Cores {
		if c.TLB.Misses != 0 {
			t.Fatalf("core %d took %d TLB misses under the static map", c.ID, c.TLB.Misses)
		}
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	eng, k, _ := node(t, Config{})
	run(t, eng, k, kernel.JobSpec{
		Main: func(ctx kernel.Context, rank int) {
			p := k.Proc(ctx.PID())
			va := p.Layout.HeapBase + 4096
			if errno := ctx.Store(va, []byte("store me")); errno != kernel.OK {
				t.Error(errno)
			}
			buf := make([]byte, 8)
			if errno := ctx.Load(va, buf); errno != kernel.OK || string(buf) != "store me" {
				t.Errorf("load: %v %q", errno, buf)
			}
			if errno := ctx.Touch(0x10, 4, false); errno != kernel.EFAULT {
				t.Errorf("unmapped access: %v, want EFAULT", errno)
			}
		},
	})
}

func TestBrkGrowsAndGuardRepositions(t *testing.T) {
	eng, k, _ := node(t, Config{})
	var ipisBefore, ipisAfter uint64
	run(t, eng, k, kernel.JobSpec{
		Main: func(ctx kernel.Context, rank int) {
			ipisBefore = k.Chip.Cores[0].IPIs
			old, errno := ctx.Syscall(kernel.SysBrk, 0)
			if errno != kernel.OK {
				t.Error(errno)
			}
			nw, errno := ctx.Syscall(kernel.SysBrk, old+1<<20)
			if errno != kernel.OK || nw != old+1<<20 {
				t.Errorf("brk grow: %v %d", errno, nw)
			}
			// Touch the newly allocated storage: must NOT fault (guard
			// was repositioned above the new break).
			if errno := ctx.Touch(hw.VAddr(old), 4096, true); errno != kernel.OK {
				t.Errorf("legit store hit guard: %v", errno)
			}
			ctx.Compute(1000) // let the IPI be serviced
			ipisAfter = k.Chip.Cores[0].IPIs
		},
	})
	if ipisAfter == ipisBefore {
		t.Fatal("heap growth must IPI the main thread to reposition the guard")
	}
}

func TestGuardPageCatchesStackOverflow(t *testing.T) {
	eng, k, _ := node(t, Config{})
	caught := false
	run(t, eng, k, kernel.JobSpec{
		Main: func(ctx kernel.Context, rank int) {
			ctx.RegisterSignal(kernel.SIGSEGV, func(c kernel.Context, info kernel.SigInfo) {
				caught = true
			})
			// The guard sits just below the original break; storing into
			// it models the stack descending into the heap (paper Fig 4).
			p := k.Proc(ctx.PID())
			guardLo := p.Brk.Base - hw.VAddr(4096)
			ctx.Store(guardLo+8, []byte{1})
		},
	})
	if !caught {
		t.Fatal("guard store did not raise SIGSEGV")
	}
}

func TestMmapAnonymousAndFree(t *testing.T) {
	eng, k, _ := node(t, Config{})
	run(t, eng, k, kernel.JobSpec{
		Main: func(ctx kernel.Context, rank int) {
			va, errno := ctx.Syscall(kernel.SysMmap, 0, 1<<20, kernel.ProtRead|kernel.ProtWrite, kernel.MapAnonymous|kernel.MapPrivate, ^uint64(0), 0)
			if errno != kernel.OK {
				t.Fatalf("mmap: %v", errno)
			}
			if errno := ctx.Store(hw.VAddr(va), []byte("mapped")); errno != kernel.OK {
				t.Errorf("store to mapping: %v", errno)
			}
			if _, errno := ctx.Syscall(kernel.SysMunmap, va, 1<<20); errno != kernel.OK {
				t.Errorf("munmap: %v", errno)
			}
			// Address is reusable.
			va2, errno := ctx.Syscall(kernel.SysMmap, 0, 1<<20, kernel.ProtRead|kernel.ProtWrite, kernel.MapAnonymous, ^uint64(0), 0)
			if errno != kernel.OK || va2 != va {
				t.Errorf("remap: %v %#x vs %#x", errno, va2, va)
			}
		},
	})
}

func TestShmSharedAcrossProcs(t *testing.T) {
	eng, k, _ := node(t, Config{})
	got := make(chan string, 1)
	_ = got
	var readBack string
	run(t, eng, k, kernel.JobSpec{
		Params: kernel.JobParams{ProcsPerNode: 2, ShmBytes: 1 << 20},
		Main: func(ctx kernel.Context, rank int) {
			base, errno := ctx.Syscall(kernel.SysShmGet, 0)
			if errno != kernel.OK {
				t.Errorf("shmget: %v", errno)
				return
			}
			if rank == 0 {
				ctx.Store(hw.VAddr(base), []byte("cross-proc"))
			} else {
				ctx.Compute(2_000_000) // let rank 0 write first
				buf := make([]byte, 10)
				ctx.Load(hw.VAddr(base), buf)
				readBack = string(buf)
			}
		},
	})
	if readBack != "cross-proc" {
		t.Fatalf("shm read %q", readBack)
	}
}

func TestCloneValidatesNPTLFlags(t *testing.T) {
	eng, k, _ := node(t, Config{MaxThreadsPerCore: 3})
	run(t, eng, k, kernel.JobSpec{
		Main: func(ctx kernel.Context, rank int) {
			_, errno := ctx.Clone(kernel.CloneArgs{Flags: kernel.CloneVM, Fn: func(kernel.Context) {}})
			if errno != kernel.EINVAL {
				t.Errorf("nonstandard clone flags: %v, want EINVAL", errno)
			}
		},
	})
}

func TestCloneRunsThreadOnAnotherCore(t *testing.T) {
	eng, k, _ := node(t, Config{})
	var mainCore, childCore int
	childRan := make(chan struct{})
	_ = childRan
	done := uint32(0)
	run(t, eng, k, kernel.JobSpec{
		Main: func(ctx kernel.Context, rank int) {
			mainCore = ctx.CoreID()
			tid, errno := ctx.Clone(kernel.CloneArgs{
				Flags: kernel.NPTLCloneFlags,
				Fn: func(c kernel.Context) {
					childCore = c.CoreID()
					c.Compute(5000)
					done = 1
				},
			})
			if errno != kernel.OK || tid == 0 {
				t.Errorf("clone: %v tid=%d", errno, tid)
			}
			ctx.Compute(100_000) // overlap with child
		},
	})
	if done != 1 {
		t.Fatal("child thread never ran")
	}
	if childCore == mainCore {
		t.Fatalf("child placed on main's core %d despite idle cores (strict affinity prefers empty cores)", childCore)
	}
}

func TestThreadBudgetEnforced(t *testing.T) {
	eng, k, _ := node(t, Config{MaxThreadsPerCore: 1})
	run(t, eng, k, kernel.JobSpec{
		Main: func(ctx kernel.Context, rank int) {
			// 3 more threads fit (4 cores x 1); the 4th clone must fail —
			// CNK does not overcommit threads to cores (paper VII-B).
			for i := 0; i < 3; i++ {
				if _, errno := ctx.Clone(kernel.CloneArgs{Flags: kernel.NPTLCloneFlags, Fn: func(c kernel.Context) { c.Compute(1000) }}); errno != kernel.OK {
					t.Errorf("clone %d: %v", i, errno)
				}
			}
			if _, errno := ctx.Clone(kernel.CloneArgs{Flags: kernel.NPTLCloneFlags, Fn: func(c kernel.Context) {}}); errno != kernel.EAGAIN {
				t.Errorf("overcommitted clone: %v, want EAGAIN", errno)
			}
		},
	})
}

func TestFutexWaitWake(t *testing.T) {
	eng, k, _ := node(t, Config{})
	var waiterWoke, order bool
	run(t, eng, k, kernel.JobSpec{
		Main: func(ctx kernel.Context, rank int) {
			p := k.Proc(ctx.PID())
			futexVA := p.Layout.HeapBase + 8192
			ctx.StoreU32(futexVA, 0)
			ctx.Clone(kernel.CloneArgs{
				Flags: kernel.NPTLCloneFlags,
				Fn: func(c kernel.Context) {
					// Waits while *futex == 0.
					_, errno := c.Syscall(kernel.SysFutex, uint64(futexVA), kernel.FutexWait, 0, 0)
					if errno != kernel.OK {
						t.Errorf("futex wait: %v", errno)
					}
					v, _ := c.LoadU32(futexVA)
					waiterWoke = true
					order = v == 1
				},
			})
			ctx.Compute(50_000)
			ctx.StoreU32(futexVA, 1)
			ctx.Syscall(kernel.SysFutex, uint64(futexVA), kernel.FutexWake, 1)
			ctx.Compute(10_000)
		},
	})
	if !waiterWoke || !order {
		t.Fatalf("futex handoff broken: woke=%v sawStore=%v", waiterWoke, order)
	}
}

func TestFutexValMismatchReturnsEAGAIN(t *testing.T) {
	eng, k, _ := node(t, Config{})
	run(t, eng, k, kernel.JobSpec{
		Main: func(ctx kernel.Context, rank int) {
			p := k.Proc(ctx.PID())
			futexVA := p.Layout.HeapBase + 8192
			ctx.StoreU32(futexVA, 7)
			if _, errno := ctx.Syscall(kernel.SysFutex, uint64(futexVA), kernel.FutexWait, 0, 0); errno != kernel.EAGAIN {
				t.Errorf("futex stale wait: %v, want EAGAIN", errno)
			}
		},
	})
}

func TestFutexTimeout(t *testing.T) {
	eng, k, _ := node(t, Config{})
	var errno kernel.Errno
	var took sim.Cycles
	run(t, eng, k, kernel.JobSpec{
		Main: func(ctx kernel.Context, rank int) {
			p := k.Proc(ctx.PID())
			futexVA := p.Layout.HeapBase + 8192
			ctx.StoreU32(futexVA, 0)
			start := ctx.Now()
			_, errno = ctx.Syscall(kernel.SysFutex, uint64(futexVA), kernel.FutexWait, 0, 100_000)
			took = ctx.Now() - start
		},
	})
	if errno != kernel.ETIMEDOUT {
		t.Fatalf("errno = %v, want ETIMEDOUT", errno)
	}
	if took < 100_000 {
		t.Fatalf("woke after %d cycles, before the timeout", took)
	}
}

func TestThreadsShareCoreViaFutex(t *testing.T) {
	// Two threads on one core (MaxThreadsPerCore=3, 1 proc, force onto
	// core usage by saturating): the scheduler's only real decision.
	eng, k, _ := node(t, Config{MaxThreadsPerCore: 3})
	counts := 0
	run(t, eng, k, kernel.JobSpec{
		Params: kernel.JobParams{ProcsPerNode: 4}, // 1 core per proc
		Main: func(ctx kernel.Context, rank int) {
			if rank != 0 {
				return
			}
			p := k.Proc(ctx.PID())
			futexVA := p.Layout.HeapBase + 8192
			ctx.StoreU32(futexVA, 0)
			ctx.Clone(kernel.CloneArgs{
				Flags: kernel.NPTLCloneFlags,
				Fn: func(c kernel.Context) {
					// Same core as main (only one core in VN mode).
					if c.CoreID() != ctx.CoreID() {
						t.Error("thread escaped its process's core")
					}
					c.StoreU32(futexVA, 1)
					c.Syscall(kernel.SysFutex, uint64(futexVA), kernel.FutexWake, 1)
					counts++
				},
			})
			// Wait for the child; we share the core, so this futex wait
			// is what lets the child run at all.
			for {
				v, _ := ctx.LoadU32(futexVA)
				if v == 1 {
					break
				}
				ctx.Syscall(kernel.SysFutex, uint64(futexVA), kernel.FutexWait, 0, 0)
			}
			counts++
		},
	})
	if counts != 2 {
		t.Fatalf("counts = %d", counts)
	}
}

func TestSetTidAddressAndGettid(t *testing.T) {
	eng, k, _ := node(t, Config{})
	run(t, eng, k, kernel.JobSpec{
		Main: func(ctx kernel.Context, rank int) {
			tid, _ := ctx.Syscall(kernel.SysGettid, 0)
			p := k.Proc(ctx.PID())
			ret, errno := ctx.Syscall(kernel.SysSetTidAddress, uint64(p.Layout.HeapBase+8192))
			if errno != kernel.OK || ret != tid {
				t.Errorf("set_tid_address: %v %d vs %d", errno, ret, tid)
			}
		},
	})
}

func TestUnameReportsNPTLVersion(t *testing.T) {
	eng, k, _ := node(t, Config{})
	var got string
	run(t, eng, k, kernel.JobSpec{
		Main: func(ctx kernel.Context, rank int) {
			p := k.Proc(ctx.PID())
			va := p.Layout.HeapBase + 8192
			if _, errno := ctx.Syscall(kernel.SysUname, uint64(va)); errno != kernel.OK {
				t.Error(errno)
			}
			got, _ = ctx.LoadCString(va, 32)
		},
	})
	if got != kernel.UnameVersion {
		t.Fatalf("uname = %q, want %q", got, kernel.UnameVersion)
	}
}

func TestForkExecAbsent(t *testing.T) {
	eng, k, _ := node(t, Config{})
	run(t, eng, k, kernel.JobSpec{
		Main: func(ctx kernel.Context, rank int) {
			if _, errno := ctx.Syscall(kernel.SysFork); errno != kernel.ENOSYS {
				t.Errorf("fork: %v, want ENOSYS", errno)
			}
			if _, errno := ctx.Syscall(kernel.SysExec); errno != kernel.ENOSYS {
				t.Errorf("exec: %v, want ENOSYS", errno)
			}
		},
	})
}

// writeString stores a C string in the process heap and returns its VA.
func writeString(ctx kernel.Context, k *Kernel, off uint64, s string) hw.VAddr {
	p := k.Proc(ctx.PID())
	va := p.Layout.HeapBase + hw.VAddr(1<<20+off)
	ctx.Store(va, append([]byte(s), 0))
	return va
}

func TestFunctionShippedFileIO(t *testing.T) {
	eng, k, filesystem := node(t, Config{})
	run(t, eng, k, kernel.JobSpec{
		Main: func(ctx kernel.Context, rank int) {
			path := writeString(ctx, k, 0, "/results.dat")
			fd, errno := ctx.Syscall(kernel.SysOpen, uint64(path), kernel.OCreat|kernel.ORdwr, 0644)
			if errno != kernel.OK {
				t.Fatalf("open: %v", errno)
			}
			p := k.Proc(ctx.PID())
			buf := p.Layout.HeapBase + 2<<20
			ctx.Store(buf, []byte("simulation output"))
			n, errno := ctx.Syscall(kernel.SysWrite, fd, uint64(buf), 17)
			if errno != kernel.OK || n != 17 {
				t.Fatalf("write: %v %d", errno, n)
			}
			if _, errno := ctx.Syscall(kernel.SysLseek, fd, 0, kernel.SeekSet); errno != kernel.OK {
				t.Fatalf("lseek: %v", errno)
			}
			rbuf := p.Layout.HeapBase + 3<<20
			n, errno = ctx.Syscall(kernel.SysRead, fd, uint64(rbuf), 17)
			if errno != kernel.OK || n != 17 {
				t.Fatalf("read: %v %d", errno, n)
			}
			got := make([]byte, 17)
			ctx.Load(rbuf, got)
			if string(got) != "simulation output" {
				t.Fatalf("read back %q", got)
			}
			ctx.Syscall(kernel.SysClose, fd)
		},
	})
	// The data must exist on the I/O node's filesystem.
	data, errno := filesystem.ReadFile("/results.dat", fs.Root)
	if errno != kernel.OK || string(data) != "simulation output" {
		t.Fatalf("ION fs: %v %q", errno, data)
	}
}

// TestHugeIOCount pins what a count no buffer can hold does: write
// fails with EFAULT before the kernel allocates or ships anything, and a
// read of any count up to 1<<63 returns the short file's bytes, since
// CIOD reads at most what the file holds. A 64 MiB write from unmapped
// memory fails with EFAULT without allocating its count on the host.
func TestHugeIOCount(t *testing.T) {
	const huge = 1 << 62
	eng, k, _ := node(t, Config{})
	run(t, eng, k, kernel.JobSpec{
		Main: func(ctx kernel.Context, rank int) {
			path := writeString(ctx, k, 0, "/huge.dat")
			fd, errno := ctx.Syscall(kernel.SysOpen, uint64(path), kernel.OCreat|kernel.ORdwr, 0644)
			if errno != kernel.OK {
				t.Errorf("open: %v", errno)
				return
			}
			p := k.Proc(ctx.PID())
			buf := p.Layout.HeapBase + 2<<20
			ctx.Store(buf, []byte("simulation output"))
			if n, errno := ctx.Syscall(kernel.SysWrite, fd, uint64(buf), 17); errno != kernel.OK || n != 17 {
				t.Errorf("write: %v %d", errno, n)
				return
			}
			if n, errno := ctx.Syscall(kernel.SysWrite, fd, uint64(buf), huge); errno != kernel.EFAULT || n != 0 {
				t.Errorf("write of %#x bytes: %d %v, want 0 EFAULT", uint64(huge), n, errno)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			n, errno := ctx.Syscall(kernel.SysWrite, fd, 0x100, 64<<20)
			runtime.ReadMemStats(&after)
			if errno != kernel.EFAULT || n != 0 {
				t.Errorf("write of 64 MiB from unmapped memory: %d %v, want 0 EFAULT", n, errno)
			}
			if a := after.TotalAlloc - before.TotalAlloc; a >= 1<<20 {
				t.Errorf("write of 64 MiB from unmapped memory allocated %d bytes on the host, want under 1 MiB", a)
			}
			rbuf := p.Layout.HeapBase + 3<<20
			for _, count := range []uint64{huge, 1 << 63} {
				ctx.Syscall(kernel.SysLseek, fd, 0, kernel.SeekSet)
				ctx.Store(rbuf, make([]byte, 17))
				n, errno := ctx.Syscall(kernel.SysRead, fd, uint64(rbuf), count)
				got := make([]byte, 17)
				ctx.Load(rbuf, got)
				if errno != kernel.OK || n != 17 || string(got) != "simulation output" {
					t.Errorf("read of %#x bytes: %d %v %q, want 17 OK %q", count, n, errno, got, "simulation output")
				}
			}
			ctx.Syscall(kernel.SysClose, fd)
		},
	})
}

func TestFileIOOverRealCollectiveNetwork(t *testing.T) {
	eng := sim.NewEngine()
	chip := hw.NewChip(hw.ChipConfig{ID: 0})
	tree := collective.NewTree(eng, collective.DefaultConfig(), []int{0})
	ionFS := fs.New()
	srv := ciod.NewServer(eng, tree.ION(), ionFS)
	k := New(eng, chip, Config{IO: ciod.NewClient(tree.CN(0))})
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	var wrote uint64
	job, err := k.Launch(kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
		path := writeString(ctx, k, 0, "/net.dat")
		fd, errno := ctx.Syscall(kernel.SysOpen, uint64(path), kernel.OCreat|kernel.OWronly, 0644)
		if errno != kernel.OK {
			t.Errorf("open: %v", errno)
			return
		}
		p := k.Proc(ctx.PID())
		buf := p.Layout.HeapBase + 2<<20
		ctx.Store(buf, []byte("over the tree"))
		wrote, _ = ctx.Syscall(kernel.SysWrite, fd, uint64(buf), 13)
		ctx.Syscall(kernel.SysClose, fd)
	}})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntilIdle()
	eng.Shutdown()
	if !job.Done() || wrote != 13 {
		t.Fatalf("job done=%v wrote=%d", job.Done(), wrote)
	}
	data, errno := ionFS.ReadFile("/net.dat", fs.Root)
	if errno != kernel.OK || string(data) != "over the tree" {
		t.Fatalf("ION fs: %v %q", errno, data)
	}
	if srv.Calls == 0 || srv.LiveProxies() != 0 {
		t.Fatalf("server calls=%d live=%d (proxy must exit with the proc)", srv.Calls, srv.LiveProxies())
	}
}

func TestStatThroughProxy(t *testing.T) {
	eng, k, filesystem := node(t, Config{})
	filesystem.WriteFile("/input.bin", make([]byte, 12345), 0644, fs.Root)
	var size uint64
	run(t, eng, k, kernel.JobSpec{
		Main: func(ctx kernel.Context, rank int) {
			path := writeString(ctx, k, 0, "/input.bin")
			p := k.Proc(ctx.PID())
			statVA := p.Layout.HeapBase + 2<<20
			n, errno := ctx.Syscall(kernel.SysStat, uint64(path), uint64(statVA))
			if errno != kernel.OK {
				t.Fatalf("stat: %v", errno)
			}
			if n != 12345 {
				t.Fatalf("stat returned %d, want the file size", n)
			}
			raw := make([]byte, ciod.StatWireSize)
			ctx.Load(statVA, raw)
			st, err := ciod.UnmarshalStat(raw)
			if err != nil {
				t.Fatal(err)
			}
			size = st.Size
		},
	})
	if size != 12345 {
		t.Fatalf("stat size = %d", size)
	}
}

func TestMmapFileCopyInReadOnly(t *testing.T) {
	eng, k, filesystem := node(t, Config{})
	filesystem.WriteFile("/lib.so", []byte("SHAREDLIBRARYCODE"), 0755, fs.Root)
	run(t, eng, k, kernel.JobSpec{
		Main: func(ctx kernel.Context, rank int) {
			path := writeString(ctx, k, 0, "/lib.so")
			fd, errno := ctx.Syscall(kernel.SysOpen, uint64(path), kernel.ORdonly, 0)
			if errno != kernel.OK {
				t.Fatalf("open: %v", errno)
			}
			va, errno := ctx.Syscall(kernel.SysMmap, 0, 17, kernel.ProtRead|kernel.ProtExec, kernel.MapPrivate|kernel.MapCopy, fd, 0)
			if errno != kernel.OK {
				t.Fatalf("mmap file: %v", errno)
			}
			buf := make([]byte, 17)
			if errno := ctx.Load(hw.VAddr(va), buf); errno != kernel.OK || string(buf) != "SHAREDLIBRARYCODE" {
				t.Fatalf("mapped contents: %v %q", errno, buf)
			}
		},
	})
}

func TestPersistentMemoryAcrossJobs(t *testing.T) {
	eng, k, _ := node(t, Config{})
	var va1, va2 uint64
	run(t, eng, k, kernel.JobSpec{
		Main: func(ctx kernel.Context, rank int) {
			name := writeString(ctx, k, 0, "table")
			va, errno := ctx.Syscall(kernel.SysPersistOpen, uint64(name), 1<<20)
			if errno != kernel.OK {
				t.Fatalf("persist_open: %v", errno)
			}
			va1 = va
			// Store a "pointer structure": a pointer to itself.
			ctx.StoreU64(hw.VAddr(va), va)
			ctx.Store(hw.VAddr(va)+8, []byte("persisted"))
		},
	})
	// Second job on the same node (same kernel instance — persistence
	// lives on the node).
	eng2 := k.Eng
	job2, err := k.Launch(kernel.JobSpec{
		Main: func(ctx kernel.Context, rank int) {
			name := writeString(ctx, k, 0, "table")
			va, errno := ctx.Syscall(kernel.SysPersistOpen, uint64(name), 0)
			if errno != kernel.OK {
				t.Errorf("persist reopen: %v", errno)
				return
			}
			va2 = va
			ptr, _ := ctx.LoadU64(hw.VAddr(va))
			buf := make([]byte, 9)
			ctx.Load(hw.VAddr(va)+8, buf)
			if ptr != va || string(buf) != "persisted" {
				t.Errorf("persistent contents lost: ptr=%#x data=%q", ptr, buf)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng2.RunUntilIdle()
	if !job2.Done() {
		t.Fatal("second job stuck")
	}
	if va1 != va2 {
		t.Fatalf("virtual address not preserved: %#x vs %#x (paper IV-D)", va1, va2)
	}
}

func TestL1ParityDeliveredAsSignal(t *testing.T) {
	eng, k, _ := node(t, Config{})
	recovered := false
	run(t, eng, k, kernel.JobSpec{
		Main: func(ctx kernel.Context, rank int) {
			ctx.RegisterSignal(kernel.SIGBUS, func(c kernel.Context, info kernel.SigInfo) {
				recovered = true
			})
			k.Chip.Cache.ArmL1Parity(ctx.CoreID())
			p := k.Proc(ctx.PID())
			ctx.Touch(p.Layout.HeapBase, 64, false) // takes the parity hit
			ctx.Compute(1000)
		},
	})
	if !recovered {
		t.Fatal("application never saw the parity signal (paper V-B)")
	}
}

func TestExtendedThreadAffinity(t *testing.T) {
	// Paper Section VIII: n processes per node; in an OpenMP phase one
	// process borrows a designated remote core.
	eng, k, _ := node(t, Config{MaxThreadsPerCore: 3})
	var borrowedCore int
	borrowedRan := false
	run(t, eng, k, kernel.JobSpec{
		Params: kernel.JobParams{ProcsPerNode: 2},
		Main: func(ctx kernel.Context, rank int) {
			if rank != 0 {
				ctx.Compute(500_000) // rank 1 computes; its second core is idle
				return
			}
			ctx.Compute(1000)
			p0 := k.Proc(ctx.PID())
			p1 := k.Proc(ctx.PID() + 1)
			// Lend rank 1's second core (core 3) to rank 0.
			if err := k.LendCore(3, p1, p0); err != nil {
				t.Error(err)
				return
			}
			// Saturate own cores then spill onto the remote one.
			for i := 0; i < 5; i++ {
				_, errno := ctx.Clone(kernel.CloneArgs{Flags: kernel.NPTLCloneFlags, Fn: func(c kernel.Context) {
					if c.CoreID() == 3 {
						borrowedCore = c.CoreID()
						borrowedRan = true
					}
					c.Compute(10_000)
				}})
				if errno != kernel.OK {
					t.Errorf("clone %d: %v", i, errno)
				}
			}
			ctx.Compute(200_000)
		},
	})
	if !borrowedRan || borrowedCore != 3 {
		t.Fatalf("no thread ran on the lent core (ran=%v core=%d)", borrowedRan, borrowedCore)
	}
}

func TestLendCoreValidation(t *testing.T) {
	eng, k, _ := node(t, Config{})
	run(t, eng, k, kernel.JobSpec{
		Params: kernel.JobParams{ProcsPerNode: 2},
		Main: func(ctx kernel.Context, rank int) {
			if rank != 0 {
				return
			}
			p0 := k.Proc(ctx.PID())
			p1 := k.Proc(ctx.PID() + 1)
			if err := k.LendCore(0, p1, p0); err == nil {
				t.Error("lending a core p1 does not own must fail")
			}
			if err := k.LendCore(3, p1, p0); err != nil {
				t.Error(err)
			}
			// Only ONE designated remote process per core.
			if err := k.LendCore(3, p1, p1); err == nil {
				t.Error("double lend must fail")
			}
		},
	})
}

func TestReproducibleResetProtocol(t *testing.T) {
	eng := sim.NewEngine()
	chip := hw.NewChip(hw.ChipConfig{ID: 0})
	k := New(eng, chip, Config{Reproducible: true})
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	chip.Mem.Write(0x100000, []byte("state to keep"))
	eng.Go("lowcore", func(c *sim.Coro) {
		k.PrepareReproducibleReset(c)
	})
	eng.RunUntilIdle()
	if chip.Resets != 1 {
		t.Fatal("chip was not reset")
	}
	if err := k.RestartReproducible(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 13)
	chip.Mem.Read(0x100000, buf)
	if string(buf) != "state to keep" {
		t.Fatalf("DDR lost across reproducible reset: %q", buf)
	}
	if chip.Mem.InSelfRefresh() {
		t.Fatal("restart must take DDR out of self-refresh")
	}
}

func TestRestartWithoutPrepareFails(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, hw.NewChip(hw.ChipConfig{ID: 0}), Config{})
	k.Boot()
	k.booted = false
	err := k.RestartReproducible()
	if err == nil {
		t.Fatal("restart without prepared Boot SRAM must fail")
	}
	var re *ResetError
	if !errors.As(err, &re) {
		t.Fatalf("want *ResetError for missing magic, got %T: %v", err, err)
	}
	if re.Chip != 0 {
		t.Errorf("ResetError names chip %d, want 0", re.Chip)
	}
}

func TestRestartWithoutSelfRefreshFails(t *testing.T) {
	// The magic alone is not enough: if the reset protocol was skipped
	// (DDR never entered self-refresh), memory did not survive and the
	// restart must refuse with a typed error rather than come up on
	// garbage.
	eng := sim.NewEngine()
	chip := hw.NewChip(hw.ChipConfig{ID: 3})
	k := New(eng, chip, Config{})
	copy(chip.BootSRAM[:], resetMagic)
	err := k.RestartReproducible()
	if err == nil {
		t.Fatal("restart with DDR out of self-refresh must fail")
	}
	var re *ResetError
	if !errors.As(err, &re) {
		t.Fatalf("want *ResetError for skipped self-refresh, got %T: %v", err, err)
	}
	if re.Chip != 3 {
		t.Errorf("ResetError names chip %d, want 3", re.Chip)
	}
}

func TestTwoIdenticalRunsAreCycleIdentical(t *testing.T) {
	runOnce := func() (uint64, sim.Cycles) {
		eng := sim.NewEngine()
		chip := hw.NewChip(hw.ChipConfig{ID: 0})
		k := New(eng, chip, Config{Reproducible: true, IO: ciod.NewLoopback(eng, fs.New())})
		k.Boot()
		job, _ := k.Launch(kernel.JobSpec{
			Params: kernel.JobParams{ProcsPerNode: 4},
			Main: func(ctx kernel.Context, rank int) {
				p := k.Proc(ctx.PID())
				for i := 0; i < 10; i++ {
					ctx.Compute(10_000)
					ctx.Touch(p.Layout.HeapBase+hw.VAddr(i*4096), 256, true)
					ctx.Syscall(kernel.SysGettimeofday)
				}
			},
		})
		eng.RunUntilIdle()
		eng.Shutdown()
		if !job.Done() {
			t.Fatal("job stuck")
		}
		return eng.Trace().Hash(), eng.Now()
	}
	h1, t1 := runOnce()
	h2, t2 := runOnce()
	if h1 != h2 || t1 != t2 {
		t.Fatalf("two identical CNK runs diverged: %x@%d vs %x@%d", h1, t1, h2, t2)
	}
}

func TestIOProxyPerThread(t *testing.T) {
	eng := sim.NewEngine()
	chip := hw.NewChip(hw.ChipConfig{ID: 0})
	tree := collective.NewTree(eng, collective.DefaultConfig(), []int{0})
	srv := ciod.NewServer(eng, tree.ION(), fs.New())
	k := New(eng, chip, Config{IO: ciod.NewClient(tree.CN(0)), MaxThreadsPerCore: 1})
	k.Boot()
	var pid uint32
	var gotThreads int
	job, _ := k.Launch(kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
		pid = ctx.PID()
		doIO := func(c kernel.Context, name string) {
			p := k.Proc(c.PID())
			va := p.Layout.HeapBase + hw.VAddr(4<<20) + hw.VAddr(c.TID())*4096
			c.Store(va, append([]byte("/f-"+name), 0))
			fd, _ := c.Syscall(kernel.SysOpen, uint64(va), kernel.OCreat|kernel.OWronly, 0644)
			c.Syscall(kernel.SysClose, fd)
		}
		for i := 0; i < 2; i++ {
			ctx.Clone(kernel.CloneArgs{Flags: kernel.NPTLCloneFlags, Fn: func(c kernel.Context) {
				doIO(c, "t")
				c.Compute(1000)
			}})
		}
		doIO(ctx, "m")
		ctx.Compute(3_000_000)
		// Sample while the job is live: the proxy is torn down at exit.
		gotThreads = srv.ProxyThreads(ctx.PID())
	}})
	eng.RunUntilIdle()
	eng.Shutdown()
	if !job.Done() {
		t.Fatal("stuck")
	}
	_ = pid
	if gotThreads != 3 {
		t.Fatalf("ioproxy threads = %d, want 3 (1:1 with app threads)", gotThreads)
	}
	if srv.LiveProxies() != 0 {
		t.Fatal("proxy must be torn down when the process exits")
	}
}
