package sim

import (
	"fmt"
	"testing"
)

// The event-queue micro-benchmarks drive three shapes: raw scheduling
// into an 8 192-deep queue, dense same-window dispatch (barrier storms,
// packet bursts), and sparse far-flung timers (daemon periods,
// checkpoint intervals), the last two 512 deep. BenchmarkRunCoros below
// holds the queue at the few dozen events the workloads keep pending.

// BenchmarkSchedule measures At() with a steady queue: each op schedules
// one event into a standing population of pending events, draining
// periodically so the queue neither empties nor grows without bound.
func BenchmarkSchedule(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	rng := NewRNG(1)
	nop := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(rng.Cycles(100_000), nop)
		if e.Pending() >= 8192 {
			e.Run(e.Now() + 50_000)
		}
	}
}

// BenchmarkStepDense measures dispatch when events cluster: every event
// reschedules itself 0-3 cycles out, so many steps pop same-cycle
// events.
func BenchmarkStepDense(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
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
}

// BenchmarkStepSparse measures dispatch when events are scattered: every
// event reschedules itself up to a billion cycles out.
func BenchmarkStepSparse(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
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
}

// BenchmarkRunCoros measures the engine at the depth the workloads keep:
// n coroutines each park for 1-5 000 seeded cycles, over and over, under
// one Run, so at most n events are pending. An op is one park.
func BenchmarkRunCoros(b *testing.B) {
	for _, n := range []int{4, 32} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			e := NewEngine()
			left := b.N
			for i := range n {
				r := NewRNG(uint64(i + 1))
				e.Go("parker", func(c *Coro) {
					for left > 0 {
						left--
						c.Park(1 + r.Cycles(5000))
					}
				})
			}
			b.ResetTimer()
			e.Run(Forever)
			e.Shutdown()
		})
	}
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
