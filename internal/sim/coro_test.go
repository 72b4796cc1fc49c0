package sim

import (
	"fmt"
	"runtime"
	"testing"
	"weak"
)

// TestCoroKillWhileParked is the basic shutdown-unwind path: a coroutine
// parked forever is killed, its deferred cleanup runs, and the code after
// the park never does.
func TestCoroKillWhileParked(t *testing.T) {
	e := NewEngine()
	cleaned := false
	resumed := false
	c := e.Go("p", func(c *Coro) {
		defer func() { cleaned = true }()
		c.Park(Forever)
		resumed = true
	})
	e.RunUntilIdle()
	e.Shutdown()
	if !cleaned {
		t.Fatal("deferred cleanup did not run on kill")
	}
	if resumed {
		t.Fatal("killed coroutine ran past its park")
	}
	if !c.Done() {
		t.Fatal("killed coroutine should report Done once unwound")
	}
}

// TestCoroKillWhileParkedWithTimeout kills a coroutine that still has an
// in-flight timeout event; the queue is torn down with it and nothing
// resumes or panics.
func TestCoroKillWhileParkedWithTimeout(t *testing.T) {
	e := NewEngine()
	e.Go("p", func(c *Coro) {
		c.Park(1_000_000)
		t.Error("should never resume")
	})
	// Drive only the initial dispatch, leaving the timeout pending.
	e.Run(0)
	if e.Pending() == 0 {
		t.Fatal("expected the park timeout to be pending")
	}
	e.Shutdown()
	if e.Pending() != 0 {
		t.Fatalf("Shutdown left %d events queued", e.Pending())
	}
}

// TestCoroKillAfterFinish: killing a coroutine whose function already
// returned is a no-op (no panic, no deadlock, Done stays true).
func TestCoroKillAfterFinish(t *testing.T) {
	e := NewEngine()
	c := e.Go("p", func(c *Coro) {})
	e.RunUntilIdle()
	if !c.Done() {
		t.Fatal("coroutine should be done")
	}
	c.kill()
	if !c.Done() {
		t.Fatal("kill flipped Done on a finished coroutine")
	}
	e.Shutdown() // and the engine-level sweep must tolerate it too
}

// TestCoroDoubleKill: killing an already-killed coroutine is a no-op, as
// is shutting the engine down twice.
func TestCoroDoubleKill(t *testing.T) {
	e := NewEngine()
	c := e.Go("p", func(c *Coro) {
		c.Park(Forever)
	})
	e.RunUntilIdle()
	c.kill()
	c.kill() // second kill must not resume the unwound coroutine
	e.Shutdown()
	e.Shutdown() // idempotent
}

// TestCoroWakeAfterKillIsNoop: a killed coroutine is dead; a stray Wake
// must neither panic nor schedule a resume.
func TestCoroWakeAfterKillIsNoop(t *testing.T) {
	e := NewEngine()
	c := e.Go("p", func(c *Coro) {
		c.Park(Forever)
	})
	e.RunUntilIdle()
	c.kill()
	c.Wake()
	if n := e.RunUntilIdle(); n != 0 {
		t.Fatalf("wake on a dead coroutine scheduled %d events", n)
	}
}

// TestCoroKillRunsInStartOrder: Shutdown unwinds every live coroutine,
// regardless of how many are parked, and runs all their cleanups.
func TestCoroKillRunsInStartOrder(t *testing.T) {
	e := NewEngine()
	var cleaned []int
	for i := 0; i < 5; i++ {
		i := i
		e.Go("p", func(c *Coro) {
			defer func() { cleaned = append(cleaned, i) }()
			c.Park(Forever)
		})
	}
	e.RunUntilIdle()
	e.Shutdown()
	if len(cleaned) != 5 {
		t.Fatalf("only %d of 5 parked coroutines were unwound", len(cleaned))
	}
	for i, v := range cleaned {
		if v != i {
			t.Fatalf("cleanup order %v not start order", cleaned)
		}
	}
}

// TestShutdownInsideEventPanics pins the Shutdown contract: calling it
// from inside an event callback used to silently corrupt the dispatch in
// flight; it must panic instead.
func TestShutdownInsideEventPanics(t *testing.T) {
	e := NewEngine()
	panicked := false
	e.At(10, func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		e.Shutdown()
	})
	e.RunUntilIdle()
	if !panicked {
		t.Fatal("Shutdown inside an event did not panic")
	}
}

// TestShutdownInsideCoroutinePanics: same contract from coroutine
// context — a coroutine cannot unwind itself synchronously.
func TestShutdownInsideCoroutinePanics(t *testing.T) {
	e := NewEngine()
	panicked := false
	e.Go("suicidal", func(c *Coro) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		e.Shutdown()
	})
	e.RunUntilIdle()
	if !panicked {
		t.Fatal("Shutdown inside a coroutine did not panic")
	}
	e.Shutdown() // still legal from host context afterwards
}

// TestShutdownAfterIdleThenReuseKeepsPanicGuard: the stepping flag must
// be cleared between events so legal host-side Shutdown stays legal.
func TestShutdownAfterIdleThenReuseKeepsPanicGuard(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {})
	e.RunUntilIdle()
	e.Shutdown() // must not panic: engine is idle, caller is host code
}

// TestCoroGoThenShutdownNeverRuns: a coroutine killed before its first
// dispatch never starts, so neither its body nor its deferred cleanup
// runs, and it still reports Done.
func TestCoroGoThenShutdownNeverRuns(t *testing.T) {
	e := NewEngine()
	ran, cleaned := false, false
	c := e.Go("p", func(c *Coro) {
		defer func() { cleaned = true }()
		ran = true
	})
	e.Shutdown()
	if ran || cleaned {
		t.Fatalf("killed-before-start coroutine ran=%v cleaned=%v", ran, cleaned)
	}
	if !c.Done() {
		t.Fatal("killed-before-start coroutine should report Done")
	}
}

// TestCoroPanicReraisesFromStep: a panic inside a coroutine ends it and
// surfaces from the engine call that resumed it, on the caller's
// goroutine, with the original value.
func TestCoroPanicReraisesFromStep(t *testing.T) {
	type boom struct{ n int }
	e := NewEngine()
	c := e.Go("p", func(c *Coro) {
		c.Sleep(5)
		panic(boom{7})
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.RunUntilIdle()
	}()
	if got != (boom{7}) {
		t.Fatalf("recovered %#v from RunUntilIdle, want boom{7}", got)
	}
	if e.Now() != 5 {
		t.Fatalf("panic surfaced at cycle %d, want 5", e.Now())
	}
	if !c.Done() {
		t.Fatal("panicked coroutine should report Done")
	}
}

// TestCoroListStaysBounded: the engine forgets finished coroutines, so
// a long run of short-lived ones does not grow its shutdown list.
func TestCoroListStaysBounded(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10_000; i++ {
		e.Go("short", func(c *Coro) { c.Sleep(1) })
		if i%10 == 9 {
			e.RunUntilIdle()
		}
	}
	if n := len(e.coros); n > 64 {
		t.Fatalf("engine tracks %d coroutines after 10000 short-lived ones", n)
	}
	e.Shutdown()
}

type capture struct{ buf [64]byte }

// startCapturing starts a coroutine whose closure alone holds a new
// capture, and returns a weak pointer to it.
func startCapturing(e *Engine) (*Coro, weak.Pointer[capture]) {
	p := new(capture)
	c := e.Go("capturing", func(c *Coro) {
		p.buf[0]++
		c.Park(Forever)
		p.buf[1]++
	})
	return c, weak.Make(p)
}

// TestCoroEndReleasesCaptures: a finished or killed coroutine must not
// keep what its function captured reachable, even while its *Coro and
// the engine are still alive.
func TestCoroEndReleasesCaptures(t *testing.T) {
	e := NewEngine()
	finished, wf := startCapturing(e)
	killed, wk := startCapturing(e)
	e.RunUntilIdle()
	finished.Wake()
	e.RunUntilIdle()
	killed.kill()
	runtime.GC()
	if wf.Value() != nil {
		t.Error("a finished coroutine keeps its closure's captures alive")
	}
	if wk.Value() != nil {
		t.Error("a killed coroutine keeps its closure's captures alive")
	}
	runtime.KeepAlive(finished)
	runtime.KeepAlive(killed)
	runtime.KeepAlive(e)
}

// TestParkWakeAllocFree: once the event pool and wheel slots are warm, a
// Wake/Park(Forever) round trip and a Park(timeout) that times out
// allocate nothing, whether a bare Step resumes it or, inside Run, it is
// the engine's next event.
func TestParkWakeAllocFree(t *testing.T) {
	e := NewEngine()
	ping := e.Go("ping", func(c *Coro) {
		for {
			c.Park(Forever)
		}
	})
	e.Go("tick", func(c *Coro) {
		for c.Park(1) == WakeTimeout {
		}
	})
	e.Run(0)
	if n := testing.AllocsPerRun(100, func() {
		ping.Wake()
		e.Run(e.Now())
	}); n != 0 {
		t.Errorf("Wake/Park(Forever) round trip: %v allocs, want 0", n)
	}
	// Let the timeouts visit every level-0 wheel slot once, so the
	// measured steps reuse slot storage instead of growing it.
	for range 256 {
		e.Step()
	}
	if n := testing.AllocsPerRun(100, func() { e.Step() }); n != 0 {
		t.Errorf("Park(timeout) timing out: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { e.Run(e.Now() + 10) }); n != 0 {
		t.Errorf("Park(timeout) timing out inside Run: %v allocs, want 0", n)
	}
	e.Shutdown()
}

// TestParkStepRunsOneEvent: a bare Step runs exactly one event, so a
// coroutine that parks under a Step-driven engine resumes only on a
// later Step, even when its resume is the only event queued.
func TestParkStepRunsOneEvent(t *testing.T) {
	for _, kind := range schedKinds {
		e := NewEngineWith(EngineConfig{Scheduler: kind})
		var woke []Cycles
		e.Go("p", func(c *Coro) {
			for _, d := range []Cycles{0, 5, 5} {
				c.Park(d)
				woke = append(woke, c.Now())
			}
		})
		for step, want := range []struct {
			woke    int
			now     Cycles
			pending int
		}{{0, 0, 1}, {1, 0, 1}, {2, 5, 1}, {3, 10, 0}} {
			if !e.Step() {
				t.Fatalf("%v: Step %d found no event", kind, step)
			}
			if len(woke) != want.woke || e.Now() != want.now || e.Pending() != want.pending {
				t.Fatalf("%v: after Step %d: %d resumes at cycle %d, %d pending; want %d at %d, %d pending",
					kind, step, len(woke), e.Now(), e.Pending(), want.woke, want.now, want.pending)
			}
		}
		if e.Step() {
			t.Fatalf("%v: a fifth Step found an event", kind)
		}
	}
}

// TestParkRunStopsAtLimit: Run(limit) leaves the clock at or before limit
// when a park's resume lies beyond it, and the next Run resumes the
// coroutine at the cycle the park asked for.
func TestParkRunStopsAtLimit(t *testing.T) {
	for _, kind := range schedKinds {
		e := NewEngineWith(EngineConfig{Scheduler: kind})
		var woke []Cycles
		e.Go("p", func(c *Coro) {
			for range 6 {
				c.Park(30)
				woke = append(woke, c.Now())
			}
		})
		for _, want := range []struct {
			limit, now Cycles
			n, woke    int
		}{{0, 0, 1, 0}, {29, 0, 0, 0}, {50, 30, 1, 1}, {120, 120, 3, 4}, {1000, 180, 2, 6}} {
			n := e.Run(want.limit)
			if n != want.n || e.Now() != want.now || len(woke) != want.woke {
				t.Fatalf("%v: Run(%d) = %d ending at cycle %d with %d resumes; want %d at %d with %d",
					kind, want.limit, n, e.Now(), len(woke), want.n, want.now, want.woke)
			}
		}
		for i, at := range woke {
			if at != Cycles(30*(i+1)) {
				t.Fatalf("%v: resumes at %v, want every 30 cycles", kind, woke)
			}
		}
	}
}

// TestParkQueuedEventAtResumeRunsFirst: an event already queued at a
// park's resume cycle holds the lower sequence number, so it runs before
// the coroutine resumes; one queued a cycle later runs after.
func TestParkQueuedEventAtResumeRunsFirst(t *testing.T) {
	for _, kind := range schedKinds {
		e := NewEngineWith(EngineConfig{Scheduler: kind})
		var order []string
		note := func(s string) func() {
			return func() { order = append(order, fmt.Sprintf("%s@%d", s, e.Now())) }
		}
		e.Go("p", func(c *Coro) {
			c.Park(0)
			note("coro")()
			c.Park(10)
			note("coro")()
			c.Park(10)
			note("coro")()
		})
		e.At(0, note("ev"))
		e.At(10, note("ev"))
		e.At(21, note("ev"))
		e.RunUntilIdle()
		want := "[ev@0 coro@0 ev@10 coro@10 coro@20 ev@21]"
		if got := fmt.Sprint(order); got != want {
			t.Fatalf("%v: order %s, want %s", kind, got, want)
		}
	}
}

// parkScript runs two seeded coroutines that park on short timeouts,
// sleep and wake each other, driven by Run over 50-cycle windows. It
// returns every advance-hook call as "prev>now" and every Run's return.
func parkScript(kind SchedulerKind, seed uint64) (hooks []string, runs []int) {
	e := NewEngineWith(EngineConfig{Scheduler: kind})
	e.SetAdvanceHook(func(prev, now Cycles) { hooks = append(hooks, fmt.Sprintf("%d>%d", prev, now)) })
	rng := NewRNG(seed)
	var cs [2]*Coro
	for i := range cs {
		r := rng.Fork(uint64(i))
		cs[i] = e.Go(fmt.Sprintf("c%d", i), func(c *Coro) {
			for range 8 {
				switch r.Intn(3) {
				case 0:
					c.Park(r.Cycles(40))
				case 1:
					cs[1-i].Wake()
					c.Sleep(1 + r.Cycles(20))
				default:
					c.Sleep(r.Cycles(60))
				}
			}
		})
	}
	for limit := Cycles(0); e.Pending() > 0; limit += 50 {
		runs = append(runs, e.Run(limit))
	}
	return hooks, runs
}

// TestParkAdvanceHookPinned holds parkScript at seed 1 to a fixed table,
// on both schedulers: the clock advances the hook reports and the events
// each Run counts.
func TestParkAdvanceHookPinned(t *testing.T) {
	const (
		wantHooks = "[0>6 6>20 20>31 31>34 34>62 62>67 67>74 74>77 77>82 82>88 88>101 101>104 104>135 135>156 156>166 166>182]"
		wantRuns  = "[2 6 9 3 3]"
	)
	for _, kind := range schedKinds {
		hooks, runs := parkScript(kind, 1)
		if got := fmt.Sprint(hooks); got != wantHooks {
			t.Errorf("%v: advance hook calls\n  %s\nwant\n  %s", kind, got, wantHooks)
		}
		if got := fmt.Sprint(runs); got != wantRuns {
			t.Errorf("%v: Run returns %s, want %s", kind, got, wantRuns)
		}
	}
}
