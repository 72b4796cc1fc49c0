package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.RunUntilIdle()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %d, want 30", e.Now())
	}
}

func TestEngineSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.RunUntilIdle()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events not FIFO: %v", got)
		}
	}
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Cycles
	e.At(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.RunUntilIdle()
	if at != 150 {
		t.Fatalf("After fired at %d, want 150", at)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(50, func() {})
	})
	e.RunUntilIdle()
}

func TestEngineRunLimit(t *testing.T) {
	e := NewEngine()
	ran := 0
	for _, c := range []Cycles{10, 20, 30, 40} {
		e.At(c, func() { ran++ })
	}
	n := e.Run(25)
	if n != 2 || ran != 2 {
		t.Fatalf("Run(25) executed %d events, want 2", ran)
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	e.RunUntilIdle()
	if ran != 4 {
		t.Fatalf("remaining events not run: %d", ran)
	}
}

func TestCoroSleepAdvancesTime(t *testing.T) {
	e := NewEngine()
	var wake Cycles
	e.Go("sleeper", func(c *Coro) {
		c.Sleep(1000)
		wake = c.Now()
	})
	e.RunUntilIdle()
	if wake != 1000 {
		t.Fatalf("woke at %d, want 1000", wake)
	}
}

func TestCoroInterleaving(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("a", func(c *Coro) {
		order = append(order, "a0")
		c.Sleep(10)
		order = append(order, "a10")
		c.Sleep(20)
		order = append(order, "a30")
	})
	e.Go("b", func(c *Coro) {
		order = append(order, "b0")
		c.Sleep(15)
		order = append(order, "b15")
	})
	e.RunUntilIdle()
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCoroParkTimeout(t *testing.T) {
	e := NewEngine()
	var reason WakeReason
	var at Cycles
	e.Go("p", func(c *Coro) {
		reason = c.Park(500)
		at = c.Now()
	})
	e.RunUntilIdle()
	if reason != WakeTimeout || at != 500 {
		t.Fatalf("park returned %v at %d, want timeout at 500", reason, at)
	}
}

func TestCoroParkWake(t *testing.T) {
	e := NewEngine()
	var reason WakeReason
	var at Cycles
	var p *Coro
	p = e.Go("p", func(c *Coro) {
		reason = c.Park(Forever)
		at = c.Now()
	})
	e.At(200, func() { p.Wake() })
	e.RunUntilIdle()
	if reason != WakeSignal || at != 200 {
		t.Fatalf("park returned %v at %d, want signal at 200", reason, at)
	}
}

func TestCoroWakeCancelsTimeout(t *testing.T) {
	e := NewEngine()
	var wakes []WakeReason
	var times []Cycles
	var p *Coro
	p = e.Go("p", func(c *Coro) {
		wakes = append(wakes, c.Park(1000)) // woken early at 100
		times = append(times, c.Now())
		wakes = append(wakes, c.Park(50)) // times out at 150
		times = append(times, c.Now())
	})
	e.At(100, func() { p.Wake() })
	e.RunUntilIdle()
	if len(wakes) != 2 || wakes[0] != WakeSignal || wakes[1] != WakeTimeout {
		t.Fatalf("wakes = %v, want [signal timeout]", wakes)
	}
	// The stale 1000-cycle timeout must not resume the coroutine a third
	// time or perturb the second park.
	if times[0] != 100 || times[1] != 150 {
		t.Fatalf("wake times = %v, want [100 150]", times)
	}
}

func TestCoroWakeWhileRunningIsPending(t *testing.T) {
	// A timed park with nothing else queued is the engine's next event;
	// the pending signal must still win over its timeout.
	for _, timeout := range []Cycles{Forever, 5} {
		e := NewEngine()
		var reason WakeReason
		var at Cycles
		var self *Coro
		self = e.Go("p", func(c *Coro) {
			c.Sleep(3)
			self.Wake() // signal posted while running
			reason = c.Park(timeout)
			at = c.Now()
		})
		e.RunUntilIdle()
		if reason != WakeSignal || at != 3 {
			t.Fatalf("Park(%v): pending wake not consumed: %v at %d, want signal at 3", timeout, reason, at)
		}
	}
}

func TestCoroMultipleWakesCollapse(t *testing.T) {
	e := NewEngine()
	count := 0
	var p *Coro
	p = e.Go("p", func(c *Coro) {
		c.Park(Forever)
		count++
		c.Park(Forever) // never woken again; sim ends with it parked
		count++
	})
	e.At(10, func() { p.Wake(); p.Wake(); p.Wake() })
	e.RunUntilIdle()
	if count != 1 {
		t.Fatalf("coroutine woke %d times, want 1", count)
	}
	e.Shutdown()
}

func TestCoroWakeAfterDoneIsNoop(t *testing.T) {
	e := NewEngine()
	p := e.Go("p", func(c *Coro) {})
	e.RunUntilIdle()
	if !p.Done() {
		t.Fatal("coroutine should be done")
	}
	p.Wake() // must not panic or deadlock
	e.RunUntilIdle()
}

func TestEngineShutdownUnwindsParked(t *testing.T) {
	e := NewEngine()
	cleaned := false
	e.Go("p", func(c *Coro) {
		defer func() { cleaned = true }()
		c.Park(Forever)
		t.Error("should never resume")
	})
	e.RunUntilIdle()
	e.Shutdown()
	if !cleaned {
		t.Fatal("deferred cleanup did not run on shutdown")
	}
}

func TestDeterminismIdenticalRuns(t *testing.T) {
	run := func() (uint64, Cycles) {
		e := NewEngine()
		rng := NewRNG(42)
		for i := 0; i < 4; i++ {
			i := i
			e.Go("w", func(c *Coro) {
				for j := 0; j < 50; j++ {
					d := 1 + rng.Cycles(100)
					c.Sleep(d)
					e.Trace().Record(c.Now(), "w", c.Name())
					_ = i
				}
			})
		}
		e.RunUntilIdle()
		return e.Trace().Hash(), e.Now()
	}
	h1, t1 := run()
	h2, t2 := run()
	if h1 != h2 || t1 != t2 {
		t.Fatalf("identical configs diverged: hash %x vs %x, end %d vs %d", h1, h2, t1, t2)
	}
}

func TestRNGDeterministicAndForkIndependent(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(7)
	f1 := c.Fork(1)
	f2 := c.Fork(2)
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked streams should differ")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(1)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestTraceHashSensitivity(t *testing.T) {
	a := NewTrace()
	b := NewTrace()
	a.Record(10, "x", "p")
	b.Record(10, "x", "p")
	if a.Hash() != b.Hash() {
		t.Fatal("identical traces must hash equal")
	}
	b.Record(11, "x", "p")
	if a.Hash() == b.Hash() {
		t.Fatal("different traces must hash differently")
	}
	c := NewTrace()
	c.Record(10, "x", "q")
	if a.Hash() == c.Hash() {
		t.Fatal("detail must affect hash")
	}
}

func TestTraceRingBounded(t *testing.T) {
	tr := NewTrace()
	for i := 0; i < 10000; i++ {
		tr.Record(Cycles(i), "t", "d")
	}
	if len(tr.Entries()) != 4096 {
		t.Fatalf("ring size %d, want 4096", len(tr.Entries()))
	}
	if tr.Count() != 10000 {
		t.Fatalf("count %d, want 10000", tr.Count())
	}
	if tr.Entries()[0].At != Cycles(10000-4096) {
		t.Fatalf("oldest retained entry at %d", tr.Entries()[0].At)
	}
}

func TestTraceDisabled(t *testing.T) {
	tr := NewTrace()
	h0 := tr.Hash()
	tr.SetEnabled(false)
	tr.Record(1, "t", "d")
	if tr.Hash() != h0 || tr.Count() != 0 {
		t.Fatal("disabled trace must not record")
	}
}

func TestCyclesConversions(t *testing.T) {
	if CyclesPerMicro != 850 {
		t.Fatalf("CyclesPerMicro = %d, want 850", CyclesPerMicro)
	}
	if got := FromMicros(1.0); got != 850 {
		t.Fatalf("FromMicros(1) = %d", got)
	}
	if got := Cycles(850).Micros(); got != 1.0 {
		t.Fatalf("Micros = %v", got)
	}
	if got := FromSeconds(1); got != ClockHz {
		t.Fatalf("FromSeconds(1) = %d", got)
	}
	if got := FromMillis(1); got != 850_000 {
		t.Fatalf("FromMillis(1) = %d", got)
	}
}

func TestCyclesStringForms(t *testing.T) {
	cases := map[Cycles]string{
		100:     "100cy",
		Forever: "forever",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", uint64(c), got, want)
		}
	}
	if s := FromSeconds(2).String(); s != "2.000s" {
		t.Errorf("seconds form = %q", s)
	}
	if s := FromMillis(3).String(); s != "3.000ms" {
		t.Errorf("millis form = %q", s)
	}
}
