package sim

import (
	"fmt"
	"testing"
)

// schedKinds are the implementations the differential battery holds to
// identical observable behaviour.
var schedKinds = []SchedulerKind{SchedHeap, SchedWheel}

// workloadResult captures everything observable about a run: the trace
// hash (covering every recorded event in order), the retained entries,
// the final clock, and the number of events executed.
type workloadResult struct {
	hash    uint64
	count   uint64
	end     Cycles
	nevents int
	entries []TraceEntry
}

func sameResult(t *testing.T, label string, a, b workloadResult) {
	t.Helper()
	if a.hash != b.hash || a.count != b.count || a.end != b.end || a.nevents != b.nevents {
		t.Fatalf("%s: heap vs wheel diverged: hash %016x/%016x count %d/%d end %d/%d events %d/%d",
			label, a.hash, b.hash, a.count, b.count, a.end, b.end, a.nevents, b.nevents)
	}
	if len(a.entries) != len(b.entries) {
		t.Fatalf("%s: retained %d vs %d trace entries", label, len(a.entries), len(b.entries))
	}
	for i := range a.entries {
		if a.entries[i] != b.entries[i] {
			t.Fatalf("%s: trace entry %d differs:\n  heap:  %v\n  wheel: %v",
				label, i, a.entries[i], b.entries[i])
		}
	}
}

// runRandomEvents replays a seeded pure-event workload: bursts of
// same-cycle events, zero-delay chains, random offsets spanning every
// wheel level, and far-future events beyond the wheel horizon (the
// overflow path). Each event records itself to the trace, so the hash is
// a total order witness.
func runRandomEvents(kind SchedulerKind, seed uint64) workloadResult {
	e := NewEngineWith(EngineConfig{Scheduler: kind})
	rng := NewRNG(seed)
	id := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		id++
		me := id
		var d Cycles
		switch rng.Intn(10) {
		case 0:
			d = 0 // same-cycle chain
		case 1, 2, 3:
			d = Cycles(rng.Intn(4)) // dense
		case 4, 5, 6:
			d = Cycles(rng.Intn(100_000)) // levels 0-2
		case 7, 8:
			d = Cycles(rng.Intn(1 << 30)) // level 3
		default:
			d = Cycles(1)<<32 + Cycles(rng.Intn(1<<30)) // overflow horizon
		}
		e.After(d, func() {
			e.Trace().Record(e.Now(), "ev", fmt.Sprintf("id%d", me))
			if depth > 0 && rng.Intn(3) > 0 {
				schedule(depth - 1)
				if rng.Intn(4) == 0 {
					schedule(depth - 1)
				}
			}
		})
	}
	for i := 0; i < 40; i++ {
		schedule(6)
	}
	// Bursts at one instant exercise batch dispatch FIFO.
	for i := 0; i < 64; i++ {
		i := i
		e.At(500, func() { e.Trace().Record(e.Now(), "burst", fmt.Sprintf("b%d", i)) })
	}
	n := e.RunUntilIdle()
	return workloadResult{
		hash: e.Trace().Hash(), count: e.Trace().Count(), end: e.Now(),
		nevents: n, entries: e.Trace().Entries(),
	}
}

// runRandomCoros replays a seeded coroutine workload: sleepers, parkers
// with timeouts, cross-coroutine wakes, and killed-at-shutdown parkers —
// the full resume/yield machinery on top of the scheduler under test.
func runRandomCoros(kind SchedulerKind, seed uint64) workloadResult {
	e := NewEngineWith(EngineConfig{Scheduler: kind})
	rng := NewRNG(seed)
	var coros []*Coro
	for i := 0; i < 8; i++ {
		i := i
		r := rng.Fork(uint64(i))
		c := e.Go(fmt.Sprintf("w%d", i), func(c *Coro) {
			for j := 0; j < 40; j++ {
				switch r.Intn(4) {
				case 0:
					c.Sleep(1 + r.Cycles(2000))
				case 1:
					reason := c.Park(1 + r.Cycles(500))
					e.Trace().Record(c.Now(), c.Name(), "woke "+reason.String())
				case 2:
					if len(coros) > 0 {
						coros[r.Intn(len(coros))].Wake()
					}
					c.Sleep(1 + r.Cycles(50))
				default:
					c.Sleep(r.Cycles(5))
				}
				e.Trace().Record(c.Now(), c.Name(), fmt.Sprintf("step%d", j))
			}
		})
		coros = append(coros, c)
	}
	n := e.RunUntilIdle()
	out := workloadResult{
		hash: e.Trace().Hash(), count: e.Trace().Count(), end: e.Now(),
		nevents: n, entries: e.Trace().Entries(),
	}
	e.Shutdown()
	return out
}

// runSegmented drives the same event workload through Run(limit) windows
// instead of RunUntilIdle, exercising peek() (the wheel's non-mutating
// lookahead) against the heap's.
func runSegmented(kind SchedulerKind, seed uint64) workloadResult {
	e := NewEngineWith(EngineConfig{Scheduler: kind})
	rng := NewRNG(seed)
	for i := 0; i < 300; i++ {
		i := i
		d := Cycles(rng.Intn(1_000_000))
		if i%17 == 0 {
			d = Cycles(1)<<33 + Cycles(rng.Intn(1000))
		}
		e.At(d, func() { e.Trace().Record(e.Now(), "seg", fmt.Sprintf("s%d", i)) })
	}
	n := 0
	limit := Cycles(0)
	for e.Pending() > 0 {
		limit += 1 + Cycles(rng.Intn(50_000_000))
		n += e.Run(limit)
	}
	return workloadResult{
		hash: e.Trace().Hash(), count: e.Trace().Count(), end: e.Now(),
		nevents: n, entries: e.Trace().Entries(),
	}
}

// TestDifferentialSchedulers is the scheduler substitution proof at the
// engine level: seeded random workloads replayed on the reference heap
// and the timer wheel must produce bit-identical traces, clocks, and
// event counts. A divergence here means the wheel broke the (time, seq)
// FIFO ordering contract.
func TestDifferentialSchedulers(t *testing.T) {
	workloads := []struct {
		name string
		run  func(SchedulerKind, uint64) workloadResult
	}{
		{"events", runRandomEvents},
		{"coros", runRandomCoros},
		{"segmented", runSegmented},
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 12; seed++ {
				ref := w.run(SchedHeap, seed)
				got := w.run(SchedWheel, seed)
				sameResult(t, fmt.Sprintf("%s seed %d", w.name, seed), ref, got)
			}
		})
	}
}

// pinnedCoros is runRandomCoros for seeds 1-12. Heap vs wheel only
// compares two live runs with each other; this table holds both to a
// fixed reference, so a Park/Wake change that shifts every scheduler
// alike still fails.
var pinnedCoros = []struct {
	seed    uint64
	hash    uint64
	count   uint64
	end     Cycles
	nevents int
}{
	{1, 0x06dc2678d5acfafa, 406, 16235, 427},
	{2, 0x1a74705043dde1f4, 411, 13874, 397},
	{3, 0x4e8f3ecf224d11a1, 398, 15647, 435},
	{4, 0x2b69bb720889a2ce, 401, 17100, 428},
	{5, 0xbb164316957ac53b, 387, 16430, 422},
	{6, 0xafd9e9b4d9faf4a0, 393, 14598, 452},
	{7, 0xc06effec0b590bd6, 401, 14141, 406},
	{8, 0x2e23107b78d2b492, 403, 16591, 426},
	{9, 0xe932aa2e49e1fbec, 409, 19590, 423},
	{10, 0x080ba6d6bdc38c50, 392, 17333, 416},
	{11, 0x3f6a7917fa679abb, 399, 17943, 420},
	{12, 0x7315d4cdf0edfef5, 412, 19397, 399},
}

// TestDifferentialCorosPinned replays the coroutine workload on both
// schedulers and checks each run against pinnedCoros.
func TestDifferentialCorosPinned(t *testing.T) {
	for _, kind := range schedKinds {
		for _, want := range pinnedCoros {
			got := runRandomCoros(kind, want.seed)
			if got.hash != want.hash || got.count != want.count || got.end != want.end || got.nevents != want.nevents {
				t.Errorf("%v seed %d: hash %016x count %d end %d events %d; pinned %016x %d %d %d",
					kind, want.seed, got.hash, got.count, got.end, got.nevents,
					want.hash, want.count, want.end, want.nevents)
			}
		}
	}
}

// TestDifferentialOverflowTieFIFO pins the subtlest ordering case: an
// event scheduled beyond the wheel horizon (overflow-resident) and an
// event scheduled later for the same cycle (wheel-resident) must run in
// seq order — overflow first.
func TestDifferentialOverflowTieFIFO(t *testing.T) {
	target := Cycles(1)<<33 + 17
	for _, kind := range schedKinds {
		e := NewEngineWith(EngineConfig{Scheduler: kind})
		var order []string
		e.At(target, func() { order = append(order, "far") }) // seq 1, beyond horizon
		e.At(target-1000, func() {
			// Scheduled close to the target: wheel-resident.
			e.At(target, func() { order = append(order, "near") })
		})
		e.RunUntilIdle()
		if len(order) != 2 || order[0] != "far" || order[1] != "near" {
			t.Fatalf("%v: same-cycle overflow/wheel tie out of seq order: %v", kind, order)
		}
	}
}

// TestDifferentialHorizonSweep walks event deltas across every wheel
// level boundary (and the overflow horizon) to catch off-by-one
// classification errors.
func TestDifferentialHorizonSweep(t *testing.T) {
	deltas := []Cycles{0, 1, 255, 256, 257, 65_535, 65_536, 65_537,
		1<<24 - 1, 1 << 24, 1<<24 + 1, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1 << 40}
	run := func(kind SchedulerKind) workloadResult {
		e := NewEngineWith(EngineConfig{Scheduler: kind})
		for round := 0; round < 3; round++ {
			base := Cycles(round) * 7919
			for i, d := range deltas {
				i, d := i, d
				e.At(base+d, func() {
					e.Trace().Record(e.Now(), "sweep", fmt.Sprintf("r%dd%d", round, i))
				})
			}
		}
		n := e.RunUntilIdle()
		return workloadResult{hash: e.Trace().Hash(), count: e.Trace().Count(),
			end: e.Now(), nevents: n, entries: e.Trace().Entries()}
	}
	sameResult(t, "horizon sweep", run(SchedHeap), run(SchedWheel))
}
