package sim

import (
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
// allocate nothing.
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
	e.Shutdown()
}
