package nptl

import (
	"testing"

	"bgcnk/internal/ciod"
	"bgcnk/internal/cnk"
	"bgcnk/internal/fs"
	"bgcnk/internal/fwk"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/sim"
)

// onCNK runs main as a CNK job with 3 threads/core allowed.
func onCNK(t *testing.T, main func(ctx kernel.Context)) {
	t.Helper()
	eng := sim.NewEngine()
	k := cnk.New(eng, hw.NewChip(hw.ChipConfig{ID: 0}), cnk.Config{
		MaxThreadsPerCore: 3,
		IO:                ciod.NewLoopback(eng, fs.New()),
	})
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	job, err := k.Launch(kernel.JobSpec{Main: func(ctx kernel.Context, rank int) { main(ctx) }})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntilIdle()
	eng.Shutdown()
	if !job.Done() {
		t.Fatal("job did not finish")
	}
}

// onFWK runs main as an FWK job.
func onFWK(t *testing.T, main func(ctx kernel.Context)) {
	t.Helper()
	eng := sim.NewEngine()
	k := fwk.New(eng, hw.NewChip(hw.ChipConfig{ID: 0}), fwk.Config{Seed: 3})
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	job, err := k.Launch(kernel.JobSpec{Main: func(ctx kernel.Context, rank int) { main(ctx) }})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(eng.Now() + sim.FromSeconds(60))
	eng.Shutdown()
	if !job.Done() {
		t.Fatal("job did not finish")
	}
}

// onBoth runs the scenario on both kernels: the whole point of the NPTL
// layer is that it is kernel-agnostic.
func onBoth(t *testing.T, main func(ctx kernel.Context)) {
	t.Helper()
	t.Run("CNK", func(t *testing.T) { onCNK(t, main) })
	t.Run("FWK", func(t *testing.T) { onFWK(t, main) })
}

func TestInitChecksKernelVersion(t *testing.T) {
	onBoth(t, func(ctx kernel.Context) {
		l, err := Init(ctx)
		if err != nil {
			t.Errorf("Init: %v", err)
			return
		}
		if l.KernelVersion() < "2.6" {
			t.Errorf("version %q", l.KernelVersion())
		}
	})
}

func TestMallocFreeReuse(t *testing.T) {
	onBoth(t, func(ctx kernel.Context) {
		l, _ := Init(ctx)
		a, errno := l.Malloc(ctx, 100)
		if errno != kernel.OK {
			t.Errorf("malloc: %v", errno)
			return
		}
		if errno := ctx.Store(a, []byte("heap data")); errno != kernel.OK {
			t.Errorf("store: %v", errno)
		}
		l.Free(ctx, a, 100)
		b, _ := l.Malloc(ctx, 100)
		if b != a {
			t.Errorf("free list not reused: %#x vs %#x", uint64(b), uint64(a))
		}
	})
}

func TestLargeMallocUsesMmap(t *testing.T) {
	onBoth(t, func(ctx kernel.Context) {
		l, _ := Init(ctx)
		small, _ := l.Malloc(ctx, 512)
		big, errno := l.Malloc(ctx, 2<<20)
		if errno != kernel.OK {
			t.Errorf("big malloc: %v", errno)
			return
		}
		// mmap arena is far from the brk heap.
		diff := int64(big) - int64(small)
		if diff < 0 {
			diff = -diff
		}
		if diff < 1<<20 {
			t.Errorf("big allocation not from mmap arena (delta %d)", diff)
		}
		if errno := ctx.Store(big+hw.VAddr(2<<20-8), []byte{1}); errno != kernel.OK {
			t.Errorf("store to mmap tail: %v", errno)
		}
	})
}

func TestPthreadCreateJoin(t *testing.T) {
	onBoth(t, func(ctx kernel.Context) {
		l, _ := Init(ctx)
		ran := false
		pt, errno := l.PthreadCreate(ctx, func(c kernel.Context) {
			c.Compute(10_000)
			ran = true
		})
		if errno != kernel.OK {
			t.Errorf("create: %v", errno)
			return
		}
		if errno := l.PthreadJoin(ctx, pt); errno != kernel.OK {
			t.Errorf("join: %v", errno)
		}
		if !ran {
			t.Error("thread never ran before join returned")
		}
	})
}

func TestManyThreadsJoinAll(t *testing.T) {
	onBoth(t, func(ctx kernel.Context) {
		l, _ := Init(ctx)
		count := 0
		var pts []*PThread
		for i := 0; i < 3; i++ {
			pt, errno := l.PthreadCreate(ctx, func(c kernel.Context) {
				c.Compute(5_000)
				count++
			})
			if errno != kernel.OK {
				t.Errorf("create %d: %v", i, errno)
				return
			}
			pts = append(pts, pt)
		}
		for _, pt := range pts {
			l.PthreadJoin(ctx, pt)
		}
		if count != 3 {
			t.Errorf("count = %d", count)
		}
	})
}

func TestMutexMutualExclusion(t *testing.T) {
	onBoth(t, func(ctx kernel.Context) {
		l, _ := Init(ctx)
		m, _ := l.NewMutex(ctx)
		counterVA, _ := l.Malloc(ctx, 8)
		ctx.StoreU32(counterVA, 0)
		worker := func(c kernel.Context) {
			for i := 0; i < 20; i++ {
				m.Lock(c)
				v, _ := c.LoadU32(counterVA)
				c.Compute(50) // widen the race window
				c.StoreU32(counterVA, v+1)
				m.Unlock(c)
			}
		}
		var pts []*PThread
		for i := 0; i < 3; i++ {
			pt, errno := l.PthreadCreate(ctx, worker)
			if errno != kernel.OK {
				t.Errorf("create: %v", errno)
				return
			}
			pts = append(pts, pt)
		}
		worker(ctx)
		for _, pt := range pts {
			l.PthreadJoin(ctx, pt)
		}
		v, _ := ctx.LoadU32(counterVA)
		if v != 80 {
			t.Errorf("counter = %d, want 80 (lost updates)", v)
		}
	})
}

func TestCondSignal(t *testing.T) {
	onBoth(t, func(ctx kernel.Context) {
		l, _ := Init(ctx)
		m, _ := l.NewMutex(ctx)
		cv, _ := l.NewCond(ctx)
		flagVA, _ := l.Malloc(ctx, 8)
		ctx.StoreU32(flagVA, 0)
		consumed := false
		pt, _ := l.PthreadCreate(ctx, func(c kernel.Context) {
			m.Lock(c)
			for {
				v, _ := c.LoadU32(flagVA)
				if v == 1 {
					break
				}
				cv.Wait(c, m)
			}
			consumed = true
			m.Unlock(c)
		})
		ctx.Compute(100_000)
		m.Lock(ctx)
		ctx.StoreU32(flagVA, 1)
		cv.Signal(ctx)
		m.Unlock(ctx)
		l.PthreadJoin(ctx, pt)
		if !consumed {
			t.Error("consumer never saw the flag")
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	onBoth(t, func(ctx kernel.Context) {
		l, _ := Init(ctx)
		const n = 4
		b, _ := l.NewBarrier(ctx, n)
		arriveVA, _ := l.Malloc(ctx, 8)
		ctx.StoreU32(arriveVA, 0)
		violated := false
		body := func(c kernel.Context, delay sim.Cycles) {
			c.Compute(delay)
			v, _ := c.LoadU32(arriveVA)
			c.StoreU32(arriveVA, v+1)
			b.Wait(c)
			// After the barrier, everyone must have arrived.
			if v, _ := c.LoadU32(arriveVA); v != n {
				violated = true
			}
		}
		var pts []*PThread
		for i := 0; i < n-1; i++ {
			d := sim.Cycles(10_000 * (i + 1))
			pt, errno := l.PthreadCreate(ctx, func(c kernel.Context) { body(c, d) })
			if errno != kernel.OK {
				t.Errorf("create: %v", errno)
				return
			}
			pts = append(pts, pt)
		}
		body(ctx, 40_000)
		for _, pt := range pts {
			l.PthreadJoin(ctx, pt)
		}
		if violated {
			t.Error("a thread passed the barrier before all arrived")
		}
	})
}

func TestGuardPageArmsOnClone(t *testing.T) {
	// The mprotect-before-clone handshake must arm a DAC guard on the
	// child's core under CNK: a store into the guard page faults.
	eng := sim.NewEngine()
	k := cnk.New(eng, hw.NewChip(hw.ChipConfig{ID: 0}), cnk.Config{
		MaxThreadsPerCore: 3,
		IO:                ciod.NewLoopback(eng, fs.New()),
	})
	k.Boot()
	caught := false
	job, _ := k.Launch(kernel.JobSpec{Main: func(ctx kernel.Context, rank int) {
		ctx.RegisterSignal(kernel.SIGSEGV, func(kernel.Context, kernel.SigInfo) { caught = true })
		l, _ := Init(ctx)
		var pt *PThread
		pt, errno := l.PthreadCreate(ctx, func(c kernel.Context) {
			// Overflow our own stack into the guard page.
			c.Store(pt.StackLo+8, []byte{0xAA})
		})
		if errno != kernel.OK {
			t.Errorf("create: %v", errno)
			return
		}
		ctx.Compute(500_000)
		_ = pt
	}})
	eng.RunUntilIdle()
	eng.Shutdown()
	if !job.Done() {
		t.Fatal("stuck")
	}
	if !caught {
		t.Fatal("stack overflow into guard page not caught (paper Fig 4)")
	}
}

func TestSameBinaryBothKernels(t *testing.T) {
	// One workload closure, run unmodified on CNK and FWK — the paper's
	// "Linux environment without a Linux kernel" claim, end to end.
	workload := func(ctx kernel.Context) {
		l, err := Init(ctx)
		if err != nil {
			t.Errorf("init: %v", err)
			return
		}
		m, _ := l.NewMutex(ctx)
		sum, _ := l.Malloc(ctx, 8)
		ctx.StoreU32(sum, 0)
		var pts []*PThread
		for i := 0; i < 2; i++ {
			pt, errno := l.PthreadCreate(ctx, func(c kernel.Context) {
				m.Lock(c)
				v, _ := c.LoadU32(sum)
				c.StoreU32(sum, v+7)
				m.Unlock(c)
			})
			if errno != kernel.OK {
				t.Errorf("create: %v", errno)
				return
			}
			pts = append(pts, pt)
		}
		for _, pt := range pts {
			l.PthreadJoin(ctx, pt)
		}
		if v, _ := ctx.LoadU32(sum); v != 14 {
			t.Errorf("sum = %d", v)
		}
	}
	onBoth(t, workload)
}
