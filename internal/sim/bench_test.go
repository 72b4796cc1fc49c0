package sim

import "testing"

// The scheduler micro-benchmarks drive both implementations through the
// three shapes the machine model produces: raw scheduling, dense
// same-window dispatch (barrier storms, packet bursts), and sparse
// far-flung timers (daemon periods, checkpoint intervals).

func benchBoth(b *testing.B, fn func(b *testing.B, kind SchedulerKind)) {
	for _, kind := range []SchedulerKind{SchedHeap, SchedWheel} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			fn(b, kind)
		})
	}
}

// BenchmarkSchedule measures At() with a steady queue: each op schedules
// one event into a standing population of pending events, draining
// periodically so the queue neither empties nor grows without bound.
func BenchmarkSchedule(b *testing.B) {
	benchBoth(b, func(b *testing.B, kind SchedulerKind) {
		e := NewEngineWith(EngineConfig{Scheduler: kind})
		e.Trace().SetEnabled(false)
		rng := NewRNG(1)
		nop := func() {}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.After(rng.Cycles(100_000), nop)
			if e.Pending() >= 8192 {
				e.Run(e.Now() + 50_000)
			}
		}
	})
}

// BenchmarkStepDense measures dispatch when events cluster: every event
// reschedules itself 0-3 cycles out, so most steps hit the same-cycle
// batch path.
func BenchmarkStepDense(b *testing.B) {
	benchBoth(b, func(b *testing.B, kind SchedulerKind) {
		e := NewEngineWith(EngineConfig{Scheduler: kind})
		e.Trace().SetEnabled(false)
		rng := NewRNG(2)
		var tick func()
		tick = func() { e.After(rng.Cycles(4), tick) }
		for i := 0; i < 512; i++ {
			e.After(rng.Cycles(4), tick)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	})
}

// BenchmarkStepSparse measures dispatch when events are scattered across
// the timer range: every event reschedules itself up to a billion cycles
// out, exercising the wheel's higher levels, cascades, and overflow.
func BenchmarkStepSparse(b *testing.B) {
	benchBoth(b, func(b *testing.B, kind SchedulerKind) {
		e := NewEngineWith(EngineConfig{Scheduler: kind})
		e.Trace().SetEnabled(false)
		rng := NewRNG(3)
		var tick func()
		tick = func() { e.After(1+rng.Cycles(1_000_000_000), tick) }
		for i := 0; i < 512; i++ {
			e.After(1+rng.Cycles(1_000_000_000), tick)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	})
}

// BenchmarkTraceRecord measures the trace hot path (hash + ring append);
// it must stay allocation-free.
func BenchmarkTraceRecord(b *testing.B) {
	b.ReportAllocs()
	tr := NewTrace()
	for i := 0; i < b.N; i++ {
		tr.Record(Cycles(i), "core0", "tracepoint")
	}
}

// BenchmarkCoroSwitch times one coroutine round trip: Wake a parked
// coroutine, and RunUntilIdle resumes it and runs it to its next
// Park(Forever), which hands control back to the engine.
func BenchmarkCoroSwitch(b *testing.B) {
	e := NewEngine()
	c := e.Go("ping", func(c *Coro) {
		for {
			c.Park(Forever)
		}
	})
	e.RunUntilIdle()
	b.ReportAllocs()
	for b.Loop() {
		c.Wake()
		e.RunUntilIdle()
	}
	e.Shutdown()
}

// BenchmarkTimedPark times one Park(10) that times out, driven by
// RunUntilIdle. In "alone" the parking coroutine is the only one, so its
// resume is always the engine's next event. In "interleaved" a second
// coroutine parks for the same time one step behind it, so the other
// coroutine's resume always comes first; an op there is one park of
// each.
func BenchmarkTimedPark(b *testing.B) {
	b.Run("alone", func(b *testing.B) {
		b.ReportAllocs()
		e := NewEngine()
		e.Go("parker", func(c *Coro) {
			for b.Loop() {
				c.Park(10)
			}
		})
		e.RunUntilIdle()
		e.Shutdown()
	})
	b.Run("interleaved", func(b *testing.B) {
		b.ReportAllocs()
		e := NewEngine()
		done := false
		e.Go("parker", func(c *Coro) {
			for b.Loop() {
				c.Park(10)
			}
			done = true
		})
		e.Go("other", func(c *Coro) {
			for !done {
				c.Park(10)
			}
		})
		e.RunUntilIdle()
		e.Shutdown()
	})
}
