package cnk

import (
	"testing"

	"bgcnk/internal/fs"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
)

// TestShippedDirectoryOperations exercises the remaining function-shipped
// calls (mkdir/chdir/getcwd/readdir/rename/unlink/truncate/dup) end to
// end against the ioproxy.
func TestShippedDirectoryOperations(t *testing.T) {
	eng, k, filesystem := node(t, Config{})
	run(t, eng, k, kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
		p := k.Proc(ctx.PID())
		scratch := p.Layout.HeapBase + 1<<20
		put := func(off uint64, s string) uint64 {
			va := scratch + hw.VAddr(off)
			ctx.Store(va, append([]byte(s), 0))
			return uint64(va)
		}
		if _, errno := ctx.Syscall(kernel.SysMkdir, put(0, "/run"), 0755); errno != kernel.OK {
			t.Fatalf("mkdir: %v", errno)
		}
		if _, errno := ctx.Syscall(kernel.SysChdir, put(0, "/run")); errno != kernel.OK {
			t.Fatalf("chdir: %v", errno)
		}
		cwdVA := scratch + 4096
		if _, errno := ctx.Syscall(kernel.SysGetcwd, uint64(cwdVA), 64); errno != kernel.OK {
			t.Fatalf("getcwd: %v", errno)
		}
		if cwd, _ := ctx.LoadCString(cwdVA, 64); cwd != "/run" {
			t.Fatalf("cwd = %q (proxy must mirror it)", cwd)
		}
		// Create two files with relative paths, rename one, unlink the other.
		for _, n := range []string{"a.dat", "b.dat"} {
			fd, errno := ctx.Syscall(kernel.SysOpen, put(0, n), kernel.OCreat|kernel.OWronly, 0644)
			if errno != kernel.OK {
				t.Fatalf("open %s: %v", n, errno)
			}
			// dup shares the offset; write through both descriptors.
			fd2, errno := ctx.Syscall(kernel.SysDup, fd)
			if errno != kernel.OK {
				t.Fatalf("dup: %v", errno)
			}
			buf := put(8192, "xy")
			ctx.Syscall(kernel.SysWrite, fd, buf, 2)
			ctx.Syscall(kernel.SysWrite, fd2, buf, 2)
			ctx.Syscall(kernel.SysClose, fd)
			ctx.Syscall(kernel.SysClose, fd2)
		}
		if _, errno := ctx.Syscall(kernel.SysRename, put(0, "a.dat"), put(512, "c.dat")); errno != kernel.OK {
			t.Fatalf("rename: %v", errno)
		}
		if _, errno := ctx.Syscall(kernel.SysUnlink, put(0, "b.dat")); errno != kernel.OK {
			t.Fatalf("unlink: %v", errno)
		}
		if _, errno := ctx.Syscall(kernel.SysTruncate, put(0, "c.dat"), 1); errno != kernel.OK {
			t.Fatalf("truncate: %v", errno)
		}
		// readdir must show exactly c.dat.
		listVA := scratch + 12288
		n, errno := ctx.Syscall(kernel.SysReaddir, put(0, "/run"), uint64(listVA), 256)
		if errno != kernel.OK || n != 1 {
			t.Fatalf("readdir: %v n=%d", errno, n)
		}
		name, _ := ctx.LoadCString(listVA, 32)
		if name != "c.dat" {
			t.Fatalf("entry = %q", name)
		}
	}})
	// Verify on the ION side: dup'd writes advanced one shared offset.
	data, errno := filesystem.ReadFile("/run/c.dat", fs.Root)
	if errno != kernel.OK || len(data) != 1 {
		t.Fatalf("final file: %v %q (dup offset sharing + truncate)", errno, data)
	}
}

func TestPersistPrivilegesViaSyscall(t *testing.T) {
	eng, k, _ := node(t, Config{})
	// Job 1 (uid 100) creates a region.
	job, err := k.Launch(kernel.JobSpec{UID: 100, Main: func(ctx kernel.Context, rank int) {
		name := writeString(ctx, k, 0, "secret")
		if _, errno := ctx.Syscall(kernel.SysPersistOpen, uint64(name), 4096); errno != kernel.OK {
			t.Errorf("create: %v", errno)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntilIdle()
	if !job.Done() {
		t.Fatal("job 1 stuck")
	}
	// Job 2 (uid 200) must be denied (paper IV-D: "assuming the correct
	// privileges").
	job2, err := k.Launch(kernel.JobSpec{UID: 200, Main: func(ctx kernel.Context, rank int) {
		name := writeString(ctx, k, 0, "secret")
		if _, errno := ctx.Syscall(kernel.SysPersistOpen, uint64(name), 0); errno != kernel.EACCES {
			t.Errorf("foreign uid open: %v, want EACCES", errno)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntilIdle()
	eng.Shutdown()
	if !job2.Done() {
		t.Fatal("job 2 stuck")
	}
}

func TestMmapRejectsZeroLength(t *testing.T) {
	eng, k, _ := node(t, Config{})
	run(t, eng, k, kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
		if _, errno := ctx.Syscall(kernel.SysMmap, 0, 0, kernel.ProtRead, kernel.MapAnonymous, ^uint64(0), 0); errno != kernel.EINVAL {
			t.Errorf("mmap(0): %v", errno)
		}
	}})
}

func TestYieldWithoutSiblingIsNoop(t *testing.T) {
	eng, k, _ := node(t, Config{})
	run(t, eng, k, kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
		before := ctx.Now()
		if _, errno := ctx.Syscall(kernel.SysYield); errno != kernel.OK {
			t.Errorf("yield: %v", errno)
		}
		// Only the syscall entry cost; no context switch happened.
		if d := ctx.Now() - before; d > 1000 {
			t.Errorf("lone yield cost %d cycles", d)
		}
	}})
}

func TestDUALModeLayout(t *testing.T) {
	eng, k, _ := node(t, Config{})
	cores := map[int]int{}
	run(t, eng, k, kernel.JobSpec{
		Params: kernel.JobParams{ProcsPerNode: 2},
		Main: func(ctx kernel.Context, rank int) {
			cores[rank] = ctx.CoreID()
			ctx.Compute(1000)
		},
	})
	// DUAL mode: rank 0 on cores {0,1}, rank 1 on cores {2,3}.
	if cores[0] != 0 || cores[1] != 2 {
		t.Fatalf("DUAL placement: %v", cores)
	}
}

func TestSyscallTraceRecordsInReproducibleMode(t *testing.T) {
	eng, k, _ := node(t, Config{Reproducible: true})
	count0 := eng.Trace().Count()
	run(t, eng, k, kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
		ctx.Syscall(kernel.SysGetpid)
		ctx.Syscall(kernel.SysGettid)
	}})
	if eng.Trace().Count() <= count0 {
		t.Fatal("reproducible mode must trace syscalls (the scans depend on it)")
	}
}
