package fwk

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"testing"

	"bgcnk/internal/fs"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

func fnode(t *testing.T, cfg Config) (*sim.Engine, *Kernel) {
	t.Helper()
	eng := sim.NewEngine()
	chip := hw.NewChip(hw.ChipConfig{ID: 0})
	k := New(eng, chip, cfg)
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	return eng, k
}

func frun(t *testing.T, eng *sim.Engine, k *Kernel, spec kernel.JobSpec) *Job {
	t.Helper()
	job, err := k.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(eng.Now() + sim.FromSeconds(30)) // daemons run forever; bounded drive
	eng.Shutdown()
	if !job.Done() {
		t.Fatal("job did not finish")
	}
	return job
}

func TestBootSlowerThanCNK(t *testing.T) {
	eng, k := fnode(t, Config{})
	_ = eng
	if k.BootInstr < 10_000_000 {
		t.Fatalf("full FWK boot = %d instructions; should dwarf CNK's", k.BootInstr)
	}
	eng2 := sim.NewEngine()
	k2 := New(eng2, hw.NewChip(hw.ChipConfig{}), Config{Stripped: true})
	k2.Boot()
	if k2.BootInstr >= k.BootInstr {
		t.Fatal("stripped boot should be faster than full")
	}
}

func TestBootNeedsWorkingUnits(t *testing.T) {
	eng := sim.NewEngine()
	chip := hw.NewChip(hw.ChipConfig{})
	chip.SetUnitEnabled(hw.UnitTorus, false)
	if err := New(eng, chip, Config{}).Boot(); err == nil {
		t.Fatal("FWK has no broken-hardware workaround flags; boot must fail")
	}
}

func TestJobRunsToCompletion(t *testing.T) {
	eng, k := fnode(t, Config{})
	ran := false
	frun(t, eng, k, kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
		ctx.Compute(100_000)
		ran = true
	}})
	if !ran {
		t.Fatal("main did not run")
	}
}

func TestComputeIsNoisy(t *testing.T) {
	// The defining FWK property: fixed work takes variable wall time.
	eng, k := fnode(t, Config{Seed: 42})
	var durations []sim.Cycles
	frun(t, eng, k, kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
		for i := 0; i < 300; i++ {
			start := ctx.Now()
			ctx.Compute(658_958)
			durations = append(durations, ctx.Now()-start)
		}
	}})
	min, max := durations[0], durations[0]
	for _, d := range durations {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if min < 658_958 {
		t.Fatalf("compute undercounted: %d", min)
	}
	if max == min {
		t.Fatal("FWK compute showed zero jitter; ticks/daemons not firing")
	}
	if max-min < 2000 {
		t.Fatalf("jitter %d cycles is implausibly small", max-min)
	}
}

func TestDemandPagingCountsFaults(t *testing.T) {
	eng, k := fnode(t, Config{})
	frun(t, eng, k, kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
		p := k.Proc(ctx.PID())
		for off := uint64(0); off < 1<<20; off += pageSize {
			ctx.Touch(p.HeapBase+hw.VAddr(off), 8, true)
		}
	}})
	if got := k.Chip.UPC.Snapshot().Total(upc.PageFault); got < 256 {
		t.Fatalf("minor faults = %d, want ~256 (one per 4KB page)", got)
	}
	misses := uint64(0)
	for _, c := range k.Chip.Cores {
		misses += c.TLB.Misses
	}
	if misses == 0 {
		t.Fatal("no TLB misses under 4KB paging — impossible")
	}
}

func TestMemoryProtectionEnforced(t *testing.T) {
	eng, k := fnode(t, Config{})
	var faulted bool
	frun(t, eng, k, kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
		ctx.RegisterSignal(kernel.SIGSEGV, func(c kernel.Context, info kernel.SigInfo) {
			faulted = true
		})
		va, errno := ctx.Syscall(kernel.SysMmap, 0, 4096, kernel.ProtRead, kernel.MapAnonymous, ^uint64(0), 0)
		if errno != kernel.OK {
			t.Errorf("mmap: %v", errno)
			return
		}
		// Read is fine; write must fault (full memory protection —
		// Table II, available on Linux, not on CNK).
		if errno := ctx.Touch(hw.VAddr(va), 8, false); errno != kernel.OK {
			t.Errorf("read of PROT_READ: %v", errno)
		}
		ctx.Store(hw.VAddr(va), []byte{1})
	}})
	if !faulted {
		t.Fatal("write to read-only mapping did not fault")
	}
}

func TestMprotectChangesEnforcement(t *testing.T) {
	eng, k := fnode(t, Config{})
	frun(t, eng, k, kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
		va, _ := ctx.Syscall(kernel.SysMmap, 0, 4096, kernel.ProtRead|kernel.ProtWrite, kernel.MapAnonymous, ^uint64(0), 0)
		if errno := ctx.Store(hw.VAddr(va), []byte{1}); errno != kernel.OK {
			t.Errorf("initial write: %v", errno)
		}
		if _, errno := ctx.Syscall(kernel.SysMprotect, va, 4096, kernel.ProtRead); errno != kernel.OK {
			t.Errorf("mprotect: %v", errno)
		}
		ctx.RegisterSignal(kernel.SIGSEGV, func(kernel.Context, kernel.SigInfo) {})
		if errno := ctx.Store(hw.VAddr(va), []byte{2}); errno == kernel.OK {
			t.Error("write after mprotect(PROT_READ) must fail")
		}
	}})
}

func TestVtoPScattered(t *testing.T) {
	eng, k := fnode(t, Config{})
	var ranges int
	frun(t, eng, k, kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
		p := k.Proc(ctx.PID())
		// Fault pages in an interleaved order so physical frames are
		// scattered (as they generally are on a busy FWK).
		for _, off := range []uint64{0, 8192, 4096, 24576, 16384, 12288, 20480, 28672} {
			ctx.Touch(p.HeapBase+hw.VAddr(off), 8, true)
		}
		prs, errno := ctx.VtoP(p.HeapBase, 32768)
		if errno != kernel.OK {
			t.Errorf("VtoP: %v", errno)
			return
		}
		ranges = len(prs)
	}})
	if ranges < 3 {
		t.Fatalf("VtoP returned %d ranges; interleaved faulting must scatter frames", ranges)
	}
}

func TestOvercommitThreadsAllProgress(t *testing.T) {
	eng, k := fnode(t, Config{Seed: 1})
	const nThreads = 8 // 2x the cores
	done := 0
	frun(t, eng, k, kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
		for i := 0; i < nThreads; i++ {
			_, errno := ctx.Clone(kernel.CloneArgs{
				Flags: kernel.NPTLCloneFlags,
				Fn: func(c kernel.Context) {
					c.Compute(3_000_000) // several ticks worth
					done++
				},
			})
			if errno != kernel.OK {
				t.Errorf("clone %d: %v (FWK allows overcommit)", i, errno)
			}
		}
		ctx.Compute(2_000_000)
	}})
	if done != nThreads {
		t.Fatalf("only %d/%d overcommitted threads finished", done, nThreads)
	}
}

func TestFutexAcrossThreads(t *testing.T) {
	eng, k := fnode(t, Config{})
	woke := false
	frun(t, eng, k, kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
		p := k.Proc(ctx.PID())
		futexVA := p.HeapBase + 4096
		ctx.StoreU32(futexVA, 0)
		ctx.Clone(kernel.CloneArgs{Flags: kernel.NPTLCloneFlags, Fn: func(c kernel.Context) {
			if _, errno := c.Syscall(kernel.SysFutex, uint64(futexVA), kernel.FutexWait, 0, 0); errno != kernel.OK {
				t.Errorf("wait: %v", errno)
			}
			woke = true
		}})
		ctx.Compute(100_000)
		ctx.StoreU32(futexVA, 1)
		ctx.Syscall(kernel.SysFutex, uint64(futexVA), kernel.FutexWake, 1)
		ctx.Compute(100_000)
	}})
	if !woke {
		t.Fatal("futex waiter never woke")
	}
}

func TestLocalFileIO(t *testing.T) {
	eng, k := fnode(t, Config{})
	frun(t, eng, k, kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
		p := k.Proc(ctx.PID())
		pathVA := p.HeapBase + 4096
		ctx.Store(pathVA, append([]byte("/local.txt"), 0))
		fd, errno := ctx.Syscall(kernel.SysOpen, uint64(pathVA), kernel.OCreat|kernel.ORdwr, 0644)
		if errno != kernel.OK {
			t.Errorf("open: %v", errno)
			return
		}
		buf := p.HeapBase + 8192
		ctx.Store(buf, []byte("local write"))
		if n, errno := ctx.Syscall(kernel.SysWrite, fd, uint64(buf), 11); errno != kernel.OK || n != 11 {
			t.Errorf("write: %v %d", errno, n)
		}
		ctx.Syscall(kernel.SysLseek, fd, 0, uint64(kernel.SeekSet))
		rb := p.HeapBase + 12288
		if n, errno := ctx.Syscall(kernel.SysRead, fd, uint64(rb), 11); errno != kernel.OK || n != 11 {
			t.Errorf("read: %v %d", errno, n)
		}
		got := make([]byte, 11)
		ctx.Load(rb, got)
		if string(got) != "local write" {
			t.Errorf("read back %q", got)
		}
		ctx.Syscall(kernel.SysClose, fd)
	}})
	data, errno := k.FS.ReadFile("/local.txt", fs.Root)
	if errno != kernel.OK || string(data) != "local write" {
		t.Fatalf("fs: %v %q", errno, data)
	}
}

// TestHugeIOCount pins what a count no buffer can hold does: write
// fails with EFAULT before the kernel allocates anything, a read of any
// count up to 1<<63 returns the short file's bytes through a buffer no
// larger than the file can fill, and read of a directory fails with
// EISDIR — each read under 1 MiB of host allocation on a default-size
// chip, whose 256 MB of DDR would otherwise bound the buffer. A 64 MiB
// write from unmapped memory fails with EFAULT under that bound too.
func TestHugeIOCount(t *testing.T) {
	const huge = 1 << 62
	eng, k := fnode(t, Config{})
	frun(t, eng, k, kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
		p := k.Proc(ctx.PID())
		pathVA := p.HeapBase + 4096
		ctx.Store(pathVA, append([]byte("/huge.txt"), 0))
		fd, errno := ctx.Syscall(kernel.SysOpen, uint64(pathVA), kernel.OCreat|kernel.ORdwr, 0644)
		if errno != kernel.OK {
			t.Errorf("open: %v", errno)
			return
		}
		buf := p.HeapBase + 8192
		ctx.Store(buf, []byte("local write"))
		if n, errno := ctx.Syscall(kernel.SysWrite, fd, uint64(buf), 11); errno != kernel.OK || n != 11 {
			t.Errorf("write: %v %d", errno, n)
		}
		if n, errno := ctx.Syscall(kernel.SysWrite, fd, uint64(buf), huge); errno != kernel.EFAULT || n != 0 {
			t.Errorf("write of %#x bytes: %d %v, want 0 EFAULT", uint64(huge), n, errno)
		}
		// hostAlloced runs a syscall and fails the test if it allocated
		// 1 MiB or more on the host.
		hostAlloced := func(what string, num kernel.Sys, args ...uint64) (uint64, kernel.Errno) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			n, errno := ctx.Syscall(num, args...)
			runtime.ReadMemStats(&after)
			if a := after.TotalAlloc - before.TotalAlloc; a >= 1<<20 {
				t.Errorf("%s allocated %d bytes on the host, want under 1 MiB", what, a)
			}
			return n, errno
		}
		if n, errno := hostAlloced("write of 64 MiB from unmapped memory", kernel.SysWrite, fd, 0x100, 64<<20); errno != kernel.EFAULT || n != 0 {
			t.Errorf("write of 64 MiB from unmapped memory: %d %v, want 0 EFAULT", n, errno)
		}
		rb := p.HeapBase + 12288
		for _, count := range []uint64{huge, 1 << 63} {
			ctx.Syscall(kernel.SysLseek, fd, 0, uint64(kernel.SeekSet))
			ctx.Store(rb, make([]byte, 11))
			n, errno := hostAlloced(fmt.Sprintf("read of %#x bytes", count), kernel.SysRead, fd, uint64(rb), count)
			got := make([]byte, 11)
			ctx.Load(rb, got)
			if errno != kernel.OK || n != 11 || string(got) != "local write" {
				t.Errorf("read of %#x bytes: %d %v %q, want 11 OK %q", count, n, errno, got, "local write")
			}
		}
		ctx.Syscall(kernel.SysClose, fd)
		ctx.Store(pathVA, []byte{'/', 0})
		dir, errno := ctx.Syscall(kernel.SysOpen, uint64(pathVA), kernel.ORdonly, 0)
		if errno != kernel.OK {
			t.Errorf("open /: %v", errno)
			return
		}
		if n, errno := hostAlloced("read from a directory", kernel.SysRead, dir, uint64(rb), huge); errno != kernel.EISDIR || n != 0 {
			t.Errorf("read of %#x bytes from a directory: %d %v, want 0 EISDIR", uint64(huge), n, errno)
		}
		ctx.Syscall(kernel.SysClose, dir)
	}})
}

// TestRebootKillsOldDaemons: a reboot starts a new set of daemons and
// unwinds the previous incarnation's daemon coroutines, which nothing can
// dispatch any more, instead of leaving their goroutines to Shutdown.
func TestRebootKillsOldDaemons(t *testing.T) {
	eng, k := fnode(t, Config{})
	daemons := func() []*sim.Coro {
		var cs []*sim.Coro
		for _, c := range k.cpus {
			for _, d := range c.daemons {
				cs = append(cs, d.coro)
			}
		}
		return cs
	}
	old := daemons()
	if len(old) == 0 {
		t.Fatal("no daemons after boot")
	}
	eng.RunUntilIdle()
	if err := k.Reboot(nil); err != nil {
		t.Fatal(err)
	}
	for i, c := range old {
		if !c.Done() {
			t.Errorf("daemon %d of the first boot (%s) is still live after the reboot", i, c.Name())
		}
	}
	if now := daemons(); len(now) != len(old) {
		t.Errorf("%d daemons after the reboot, want %d", len(now), len(old))
	} else {
		for i, c := range now {
			if c.Done() {
				t.Errorf("daemon %d of the second boot (%s) is done", i, c.Name())
			}
		}
	}
	eng.Shutdown()
}

func TestForkCreatesProcessWithCopiedMemory(t *testing.T) {
	eng, k := fnode(t, Config{})
	var childSaw string
	var childPID uint32
	frun(t, eng, k, kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
		p := k.Proc(ctx.PID())
		va := p.HeapBase + 4096
		ctx.Store(va, []byte("inherited"))
		pid, errno := k.Fork(ctx.(*kernel.Thread), func(c kernel.Context) {
			buf := make([]byte, 9)
			c.Load(va, buf) // same VA, copied contents
			childSaw = string(buf)
			// Child writes; parent must not see it (copy, not share).
			c.Store(va, []byte("childmods"))
		})
		if errno != kernel.OK {
			t.Errorf("fork: %v", errno)
			return
		}
		childPID = pid
		ctx.Compute(5_000_000)
		buf := make([]byte, 9)
		ctx.Load(va, buf)
		if string(buf) != "inherited" {
			t.Errorf("parent memory polluted by child: %q", buf)
		}
	}})
	if childSaw != "inherited" {
		t.Fatalf("child saw %q", childSaw)
	}
	if cp := k.Proc(childPID); cp == nil || !cp.Done() {
		t.Fatal("child process did not complete")
	}
}

func TestParityKillsTaskOnFWK(t *testing.T) {
	eng, k := fnode(t, Config{})
	job, err := k.Launch(kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
		ctx.RegisterSignal(kernel.SIGBUS, func(kernel.Context, kernel.SigInfo) {
			t.Error("FWK must not offer application parity recovery")
		})
		k.Chip.Cache.ArmL1Parity(ctx.CoreID())
		p := k.Proc(ctx.PID())
		ctx.Touch(p.HeapBase, 64, false)
		ctx.Compute(1000)
	}})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(eng.Now() + sim.FromSeconds(5))
	eng.Shutdown()
	if !job.Done() {
		t.Fatal("job hung")
	}
	if job.Procs[0].ExitCode() != 128+int(kernel.SIGKILL) {
		t.Fatalf("exit code %d; machine check should kill the task", job.Procs[0].ExitCode())
	}
}

func TestSeedChangesTiming(t *testing.T) {
	// Different boot seeds → different daemon phases → different wall
	// time for identical work: the FWK is not performance-reproducible.
	elapsed := func(seed uint64) sim.Cycles {
		eng := sim.NewEngine()
		k := New(eng, hw.NewChip(hw.ChipConfig{ID: 0}), Config{Seed: seed})
		k.Boot()
		var d sim.Cycles
		job, _ := k.Launch(kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
			start := ctx.Now()
			ctx.Compute(50_000_000)
			d = ctx.Now() - start
		}})
		eng.Run(eng.Now() + sim.FromSeconds(30))
		eng.Shutdown()
		if !job.Done() {
			t.Fatal("stuck")
		}
		return d
	}
	if elapsed(1) == elapsed(2) {
		t.Fatal("different seeds produced identical timing")
	}
	if elapsed(7) != elapsed(7) {
		t.Fatal("same seed must reproduce timing exactly")
	}
}

func TestTickCounterAdvances(t *testing.T) {
	eng, k := fnode(t, Config{})
	frun(t, eng, k, kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
		ctx.Compute(10 * 850_000) // ~10ms
	}})
	if k.cpus[0].Ticks < 8 {
		t.Fatalf("ticks = %d, want ~10 over 10ms", k.cpus[0].Ticks)
	}
}

func TestExecReplacesImage(t *testing.T) {
	eng, k := fnode(t, Config{})
	var oldData, newData string
	frun(t, eng, k, kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
		p := k.Proc(ctx.PID())
		ctx.Store(p.HeapBase, []byte("old image"))
		buf := make([]byte, 9)
		ctx.Load(p.HeapBase, buf)
		oldData = string(buf)
		k.Exec(ctx.(*kernel.Thread), 1<<20, 1<<20, func(c kernel.Context) {
			// The new program sees a fresh (zeroed) image.
			np := k.Proc(c.PID())
			nb := make([]byte, 9)
			c.Load(np.HeapBase, nb)
			newData = string(nb)
		})
		t.Error("exec returned to the old program")
	}})
	if oldData != "old image" {
		t.Fatalf("setup: %q", oldData)
	}
	if newData == "old image" {
		t.Fatal("exec leaked the old image into the new program")
	}
}

func TestShellScriptPattern(t *testing.T) {
	// The paper's VII-B con, inverted: on an FWK an application CAN be
	// structured as a shell that forks children which exec different
	// executables. (CNK returns ENOSYS for fork/exec; see the cnk tests.)
	eng, k := fnode(t, Config{})
	var outputs []string
	frun(t, eng, k, kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
		for _, prog := range []string{"preprocess", "solve"} {
			prog := prog
			_, errno := k.Fork(ctx.(*kernel.Thread), func(c kernel.Context) {
				k.Exec(c.(*kernel.Thread), 1<<20, 1<<20, func(c2 kernel.Context) {
					c2.Compute(100_000)
					outputs = append(outputs, prog)
				})
			})
			if errno != kernel.OK {
				t.Errorf("fork %s: %v", prog, errno)
			}
		}
		ctx.Compute(3_000_000) // "wait" for the children
	}})
	if len(outputs) != 2 {
		t.Fatalf("executables that ran: %v", outputs)
	}
}

// TestForkExecFramesReproducible runs one fork and one exec in fresh
// kernels: a job touches 64 heap pages, forks, then execs and touches 64
// pages of its new image. The frame each page of the child and of the
// new image gets must be the same in every run, whatever order Go's map
// iteration visits the resident pages in.
func TestForkExecFramesReproducible(t *testing.T) {
	const runs, pages = 6, 64
	frameMap := func(p *Proc) string {
		var b strings.Builder
		for _, vp := range slices.Sorted(maps.Keys(p.pages)) {
			fmt.Fprintf(&b, "%x:%x ", vp, p.pages[vp])
		}
		return b.String()
	}
	var first [2]string
	for run := 0; run < runs; run++ {
		eng, k := fnode(t, Config{})
		var got [2]string
		frun(t, eng, k, kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
			heap := k.Proc(ctx.PID()).HeapBase
			for i := uint64(0); i < pages; i++ {
				ctx.Store(heap+hw.VAddr(i*pageSize), []byte{1})
			}
			pid, errno := k.Fork(ctx.(*kernel.Thread), func(kernel.Context) {})
			if errno != kernel.OK {
				t.Errorf("fork: %v", errno)
				return
			}
			got[0] = frameMap(k.Proc(pid))
			k.Exec(ctx.(*kernel.Thread), 1<<20, 1<<20, func(c kernel.Context) {
				np := k.Proc(c.PID())
				for i := uint64(0); i < pages; i++ {
					c.Store(np.HeapBase+hw.VAddr(i*pageSize), []byte{2})
				}
				got[1] = frameMap(np)
			})
		}})
		if got[0] == "" || got[1] == "" {
			t.Fatalf("run %d: fork or exec did not run", run)
		}
		if run == 0 {
			first = got
			continue
		}
		if got[0] != first[0] {
			t.Errorf("run %d: the forked child's page-to-frame map differs from run 0's", run)
		}
		if got[1] != first[1] {
			t.Errorf("run %d: the exec'd image's page-to-frame map differs from run 0's", run)
		}
	}
}
