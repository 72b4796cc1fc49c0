package barrier

import (
	"testing"

	"bgcnk/internal/sim"
)

func TestBarrierReleasesAllTogether(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 4, 1000)
	var release []sim.Cycles
	for i := 0; i < 4; i++ {
		i := i
		eng.Go("p", func(c *sim.Coro) {
			c.Sleep(sim.Cycles(100 * (i + 1))) // staggered arrival
			b.Enter(c, i)
			release = append(release, c.Now())
		})
	}
	eng.RunUntilIdle()
	if len(release) != 4 {
		t.Fatalf("released %d of 4", len(release))
	}
	for _, r := range release {
		// Last arrival at 400, plus wire latency 1000.
		if r != 1400 {
			t.Fatalf("release at %d, want 1400 (all: %v)", r, release)
		}
	}
	if b.Barriers != 1 {
		t.Fatalf("barrier count = %d", b.Barriers)
	}
}

func TestBarrierReusable(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 2, 10)
	count := 0
	for i := 0; i < 2; i++ {
		i := i
		eng.Go("p", func(c *sim.Coro) {
			for round := 0; round < 5; round++ {
				b.Enter(c, i)
			}
			count++
		})
	}
	eng.RunUntilIdle()
	if count != 2 || b.Barriers != 5 {
		t.Fatalf("count=%d barriers=%d", count, b.Barriers)
	}
}

func TestDoubleEnterPanics(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 2, 10)
	panicked := false
	eng.Go("p", func(c *sim.Coro) {
		defer func() {
			if recover() != nil {
				panicked = true
				panic("rethrow") // keep coroutine unwinding
			}
		}()
		b.Enter(c, 0)
	})
	eng.Go("q", func(c *sim.Coro) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		b.Enter(c, 0) // same id while 0 is still waiting
	})
	func() {
		defer func() { recover() }()
		eng.RunUntilIdle()
	}()
	if !panicked {
		t.Fatal("double enter must panic")
	}
}

func TestArbiterStateAndReset(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 1, 10)
	eng.Go("p", func(c *sim.Coro) {
		b.Enter(c, 0)
		b.Enter(c, 0)
	})
	eng.RunUntilIdle()
	if b.ArbiterState() != 2 {
		t.Fatalf("arbiter state = %d", b.ArbiterState())
	}
	b.ResetArbiters()
	if b.ArbiterState() != 0 {
		t.Fatal("reset failed")
	}
}

func TestWaitingCount(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 3, 10)
	for i := 0; i < 2; i++ {
		i := i
		eng.Go("p", func(c *sim.Coro) { b.Enter(c, i) })
	}
	eng.RunUntilIdle()
	if b.Waiting() != 2 {
		t.Fatalf("waiting = %d", b.Waiting())
	}
	eng.Shutdown()
}

// TestBarrierResumesInParticipantOrder repeats a 6-participant barrier
// whose participants arrive in reverse order. The last arriver waits out
// the wire latency and resumes first; the wire then releases everyone
// else at the same cycle, woken in participant order, so every round of
// every run resumes 0, 1, ..., 5.
func TestBarrierResumesInParticipantOrder(t *testing.T) {
	const n, rounds, runs = 6, 3, 20
	for run := 0; run < runs; run++ {
		eng := sim.NewEngine()
		b := New(eng, n, 1000)
		var order []int
		for i := 0; i < n; i++ {
			i := i
			eng.Go("p", func(c *sim.Coro) {
				for r := 0; r < rounds; r++ {
					c.Sleep(sim.Cycles(100 * (n - i)))
					b.Enter(c, i)
					order = append(order, i)
				}
			})
		}
		eng.RunUntilIdle()
		if len(order) != n*rounds {
			t.Fatalf("run %d: %d resumes, want %d", run, len(order), n*rounds)
		}
		for k, id := range order {
			if id != k%n {
				t.Fatalf("run %d: resume order %v, want participants 0..%d each round", run, order, n-1)
			}
		}
	}
}
