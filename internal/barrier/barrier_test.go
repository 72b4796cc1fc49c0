package barrier

import (
	"runtime"
	"testing"

	"bgcnk/internal/sim"
)

func TestBarrierReleasesAllTogether(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 4)
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
		// Last arrival at 400, plus the wire latency.
		if want := 400 + barrierLatency; r != want {
			t.Fatalf("release at %d, want %d (all: %v)", r, want, release)
		}
	}
	if b.Barriers != 1 {
		t.Fatalf("barrier count = %d", b.Barriers)
	}
}

func TestBarrierReusable(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 2)
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
	b := New(eng, 2)
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
	b := New(eng, 1)
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
	b := New(eng, 3)
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
		b := New(eng, n)
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

// TestCombineResumesInParticipantOrder repeats a 6-participant combine
// whose participants arrive in reverse order. The last arriver waits out
// the tree latency and resumes first; the tree then releases everyone
// else at the same cycle, woken in participant order, so every round of
// every run resumes 0, 1, ..., 5, each with the round's sum.
func TestCombineResumesInParticipantOrder(t *testing.T) {
	const n, rounds, runs = 6, 3, 20
	for run := 0; run < runs; run++ {
		eng := sim.NewEngine()
		cb := NewCombine(eng, n)
		var order []int
		for i := 0; i < n; i++ {
			i := i
			eng.Go("p", func(c *sim.Coro) {
				for r := 0; r < rounds; r++ {
					c.Sleep(sim.Cycles(100 * (n - i)))
					got, err := cb.AllreduceErr(c, i, float64(r*n+i))
					if want := float64(r*n*n + n*(n-1)/2); got != want || err != nil {
						t.Errorf("run %d round %d: participant %d got %v, %v, want %v", run, r, i, got, err, want)
					}
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

// TestRoundsAllocateNothing checks that a completed round allocates
// nothing on the host: a 16-way combine run for 1 000 more rounds makes
// exactly as many allocations, counted while its engine runs.
func TestRoundsAllocateNothing(t *testing.T) {
	const n = 16
	mallocs := func(rounds int) uint64 {
		eng := sim.NewEngine()
		b := NewCombine(eng, n)
		for i := 0; i < n; i++ {
			eng.Go("p", func(c *sim.Coro) {
				for r := 0; r < rounds; r++ {
					c.Sleep(sim.Cycles(1 + (7*i+r)%5))
					if _, err := b.AllreduceErr(c, i, 1); err != nil {
						panic(err)
					}
				}
			})
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng.RunUntilIdle()
		runtime.ReadMemStats(&after)
		if b.Barriers != uint64(rounds) {
			t.Fatalf("%d rounds completed, want %d", b.Barriers, rounds)
		}
		eng.Shutdown()
		return after.Mallocs - before.Mallocs
	}
	mallocs(10) // warm the runtime's caches
	if base, more := mallocs(10), mallocs(1010); more != base {
		t.Fatalf("1 000 more rounds made %d more allocations, want 0", int64(more)-int64(base))
	}
}
