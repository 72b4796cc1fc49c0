package sim

import (
	"fmt"
	"testing"
)

// workloadResult captures everything observable about a run: the trace
// hash (covering every recorded event in order), the number of records,
// the final clock, and the number of events executed.
type workloadResult struct {
	hash    uint64
	count   uint64
	end     Cycles
	nevents int
}

// runRandomEvents replays a seeded pure-event workload: bursts of
// same-cycle events, zero-delay chains, and random offsets from a few
// cycles to beyond 2^32. Each event records itself to the trace, so the
// hash is a total order witness.
func runRandomEvents(seed uint64) workloadResult {
	e := NewEngine()
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
	return workloadResult{hash: e.Trace().Hash(), count: e.Trace().Count(), end: e.Now(), nevents: n}
}

// runRandomCoros replays a seeded coroutine workload: sleepers, parkers
// with timeouts, cross-coroutine wakes, and killed-at-shutdown parkers —
// the full resume/yield machinery on top of the event queue.
func runRandomCoros(seed uint64) workloadResult {
	return runCoros(seed, (*Engine).RunUntilIdle)
}

// runCorosWindowed replays the runRandomCoros workload through short
// Run(limit) windows, so timed parks that end past a window's limit take
// the queue instead of resuming in place.
func runCorosWindowed(seed uint64) workloadResult {
	return runCoros(seed, func(e *Engine) int {
		rng := NewRNG(^seed)
		n := 0
		limit := Cycles(0)
		for e.Pending() > 0 {
			limit += 1 + Cycles(rng.Intn(300))
			n += e.Run(limit)
		}
		return n
	})
}

// runCoros builds the seeded coroutine workload, drives it with run,
// and shuts the engine down.
func runCoros(seed uint64, run func(*Engine) int) workloadResult {
	e := NewEngine()
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
	n := run(e)
	out := workloadResult{hash: e.Trace().Hash(), count: e.Trace().Count(), end: e.Now(), nevents: n}
	e.Shutdown()
	return out
}

// runSegmented drives a seeded event workload through Run(limit) windows
// instead of RunUntilIdle, exercising Run's look at the earliest pending
// event without taking it.
func runSegmented(seed uint64) workloadResult {
	e := NewEngine()
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
	return workloadResult{hash: e.Trace().Hash(), count: e.Trace().Count(), end: e.Now(), nevents: n}
}

// pinnedRun is a seeded run's fixed reference: its trace hash and
// record count, its final clock, and the events it executed.
type pinnedRun struct {
	seed    uint64
	hash    uint64
	count   uint64
	end     Cycles
	nevents int
}

// check fails the test unless got matches the pinned run.
func (want pinnedRun) check(t *testing.T, label string, got workloadResult) {
	t.Helper()
	if got.hash != want.hash || got.count != want.count || got.end != want.end || got.nevents != want.nevents {
		t.Errorf("%s seed %d: hash %016x count %d end %d events %d; pinned %016x %d %d %d",
			label, want.seed, got.hash, got.count, got.end, got.nevents,
			want.hash, want.count, want.end, want.nevents)
	}
}

// pinnedEvents, pinnedCoros and pinnedSegmented are runRandomEvents,
// runRandomCoros and runSegmented for seeds 1-12, generated when the
// engine still checked a timer wheel against a reference heap.
var pinnedEvents = []pinnedRun{
	{1, 0x11c964760a22dcc1, 267, 10038066525, 267},
	{2, 0x1016dd8a638d6c7b, 258, 14649549434, 258},
	{3, 0x0bb42ff5b84fa644, 288, 10579605030, 288},
	{4, 0x22fa41c04e1650f8, 219, 11089352543, 219},
	{5, 0xa193ea3a7d2f7155, 254, 15419150698, 254},
	{6, 0xcaea4c2f2738b3d2, 232, 9777411053, 232},
	{7, 0xd23b47dcc3c69d52, 250, 7161972366, 250},
	{8, 0x5bbeb9d83c526f13, 199, 11613521529, 199},
	{9, 0x9896695ff47aa1fd, 220, 10540473412, 220},
	{10, 0xd2866b4322c3e0ea, 211, 10097343718, 211},
	{11, 0x0c735d6ed5360c5f, 216, 10709647640, 216},
	{12, 0x70c4c263e57b4c38, 237, 10213589456, 237},
}

var pinnedSegmented = []pinnedRun{
	{1, 0xe3a1806b0cd6f84f, 300, 8589935589, 300},
	{2, 0x4646a7d5229014dc, 300, 8589935513, 300},
	{3, 0x8f42d2d608dc1c8a, 300, 8589935469, 300},
	{4, 0xf59505d2b7227a71, 300, 8589935581, 300},
	{5, 0x3391fef28e6fdfde, 300, 8589935574, 300},
	{6, 0x14b8b3322846c5d2, 300, 8589935581, 300},
	{7, 0x6fa8b5bb1567ea35, 300, 8589935569, 300},
	{8, 0xa79519f330a6c902, 300, 8589935581, 300},
	{9, 0x6646926d9000afb0, 300, 8589935430, 300},
	{10, 0x6b9855c5dd02cb65, 300, 8589935581, 300},
	{11, 0x65124c2720007bf4, 300, 8589935590, 300},
	{12, 0x73d53664f033878f, 300, 8589935554, 300},
}

var pinnedCoros = []pinnedRun{
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

// TestDifferentialSchedulers holds the engine to fixed references: each
// seeded workload must reproduce its pinned trace hash, record count,
// final clock and event count. A divergence means the queue broke the
// (time, seq) FIFO ordering contract, or Park and Wake moved an event.
func TestDifferentialSchedulers(t *testing.T) {
	workloads := []struct {
		name   string
		run    func(uint64) workloadResult
		pinned []pinnedRun
	}{
		{"events", runRandomEvents, pinnedEvents},
		{"coros", runRandomCoros, pinnedCoros},
		{"segmented", runSegmented, pinnedSegmented},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, want := range w.pinned {
				want.check(t, w.name, w.run(want.seed))
			}
		})
	}
}

// TestDifferentialCorosPinned holds the coroutine workload to pinnedCoros
// when it runs in short Run(limit) windows: the window limits decide which
// timed parks resume in place, and must change no trace, clock or count.
func TestDifferentialCorosPinned(t *testing.T) {
	for _, want := range pinnedCoros {
		want.check(t, "coros windowed", runCorosWindowed(want.seed))
	}
}

// TestDifferentialOverflowTieFIFO pins a same-cycle tie between events
// scheduled far apart in time: one scheduled 2^33 cycles ahead and one
// scheduled for the same cycle just before it is due must run in the
// order they were scheduled — the far one first.
func TestDifferentialOverflowTieFIFO(t *testing.T) {
	target := Cycles(1)<<33 + 17
	e := NewEngine()
	var order []string
	e.At(target, func() { order = append(order, "far") }) // seq 1
	e.At(target-1000, func() {
		e.At(target, func() { order = append(order, "near") })
	})
	e.RunUntilIdle()
	if len(order) != 2 || order[0] != "far" || order[1] != "near" {
		t.Fatalf("same-cycle tie out of seq order: %v", order)
	}
}

// TestDifferentialHorizonSweep schedules three rounds of events at
// deltas either side of every power of 256 up to 2^32, and 2^40, and
// holds the run to its pinned reference.
func TestDifferentialHorizonSweep(t *testing.T) {
	deltas := []Cycles{0, 1, 255, 256, 257, 65_535, 65_536, 65_537,
		1<<24 - 1, 1 << 24, 1<<24 + 1, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1 << 40}
	e := NewEngine()
	for round := 0; round < 3; round++ {
		base := Cycles(round) * 7919
		for i, d := range deltas {
			e.At(base+d, func() {
				e.Trace().Record(e.Now(), "sweep", fmt.Sprintf("r%dd%d", round, i))
			})
		}
	}
	n := e.RunUntilIdle()
	got := workloadResult{hash: e.Trace().Hash(), count: e.Trace().Count(), end: e.Now(), nevents: n}
	pinnedRun{0, 0x5c3b96cee2f1ad4f, 45, 1099511643614, 45}.check(t, "horizon sweep", got)
}

// TestDifferentialQueueModel holds the event queue to a model: seeded
// pushes and pops, with same-cycle ties and deltas from 0 to beyond 2^32,
// where every pop must return the least (at, seq) not yet popped. Each
// seed grows the queue to a few hundred events, then drains it.
func TestDifferentialQueueModel(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := NewRNG(seed)
		var q eventQueue
		var pending []*event // the model: every event pushed, not yet popped
		var now Cycles
		var seq uint64
		for op := 0; op < 2000 || len(pending) > 0; op++ {
			pushes := 7 // of 10, while the queue grows
			if op >= 1000 {
				pushes = 3
			}
			if op < 2000 && (len(pending) == 0 || rng.Intn(10) < pushes) {
				at := now
				switch rng.Intn(5) {
				case 0: // same cycle as now
				case 1:
					at += Cycles(rng.Intn(4))
				case 2:
					at += Cycles(rng.Intn(100_000))
				case 3:
					at += Cycles(1)<<32 + Cycles(rng.Intn(1<<32))
				default: // tie with a pending event
					if len(pending) > 0 {
						at = pending[rng.Intn(len(pending))].at
					}
				}
				seq++
				ev := &event{at: at, seq: seq}
				q.push(ev)
				pending = append(pending, ev)
				continue
			}
			least := 0
			for i, ev := range pending {
				m := pending[least]
				if ev.at < m.at || ev.at == m.at && ev.seq < m.seq {
					least = i
				}
			}
			want := pending[least]
			got := q.pop()
			if got != want {
				t.Fatalf("seed %d op %d: popped (%d, %d), want (%d, %d)",
					seed, op, got.at, got.seq, want.at, want.seq)
			}
			pending = append(pending[:least], pending[least+1:]...)
			now = got.at
		}
		if len(q) != 0 {
			t.Fatalf("seed %d: %d events left after the model drained", seed, len(q))
		}
	}
}
