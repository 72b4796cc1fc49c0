package ctrlsys

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"bgcnk/internal/machine"
	"bgcnk/internal/sim"
)

func TestAllocateFirstFitAndRelease(t *testing.T) {
	s := New(Config{Topology: Topology{Racks: 2, MidplanesPerRack: 2, NodesPerMidplane: 4}})
	if got := s.Topology().Midplanes(); got != 4 {
		t.Fatalf("midplanes = %d, want 4", got)
	}
	a, err := s.Allocate(2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Base != 0 || a.Nodes != 8 || a.Block != "R00-M0+2" {
		t.Errorf("first partition: base %d nodes %d block %q", a.Base, a.Nodes, a.Block)
	}
	b, err := s.Allocate(1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Base != 2 || b.Block != "R01-M0" {
		t.Errorf("second partition: base %d block %q", b.Base, b.Block)
	}
	if _, err := s.Allocate(2); err == nil {
		t.Error("expected contiguity failure: only midplane 3 is free")
	}
	s.Release(a)
	c, err := s.Allocate(2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Base != 0 {
		t.Errorf("reallocation after release: base %d, want 0", c.Base)
	}
	if _, err := s.Allocate(99); err == nil {
		t.Error("expected oversized-partition error")
	}
	if got := s.FreeMidplanes(); got != 1 {
		t.Errorf("free midplanes = %d, want 1", got)
	}
}

// TestBootScalingShape pins the paper's qualitative boot result at the
// model level: doubling the node count barely moves a CNK broadcast boot
// but roughly doubles an FWK staggered boot.
func TestBootScalingShape(t *testing.T) {
	for n := 64; n <= 1024; n *= 2 {
		small := SimulateBoot(BootConfig{Kind: machine.KindCNK, Nodes: n, NodesPerMidplane: 32})
		big := SimulateBoot(BootConfig{Kind: machine.KindCNK, Nodes: 2 * n, NodesPerMidplane: 32})
		if ratio := float64(big.Total) / float64(small.Total); ratio > 1.2 {
			t.Errorf("CNK boot %d->%d nodes grew %.2fx; broadcast should be near-flat", n, 2*n, ratio)
		}
		small = SimulateBoot(BootConfig{Kind: machine.KindFWK, Nodes: n, NodesPerMidplane: 32})
		big = SimulateBoot(BootConfig{Kind: machine.KindFWK, Nodes: 2 * n, NodesPerMidplane: 32})
		if ratio := float64(big.Total) / float64(small.Total); ratio < 1.7 {
			t.Errorf("FWK boot %d->%d nodes grew only %.2fx; staggered load should be ~linear", n, 2*n, ratio)
		}
	}
	// Phases must add up, and the stripped image must beat the full one.
	r := SimulateBoot(BootConfig{Kind: machine.KindFWK, Nodes: 128, NodesPerMidplane: 32})
	if r.Total != r.ImagePhase+r.PerNodePhase+r.InitPhase {
		t.Error("FWK boot phases do not sum to total")
	}
	stripped := SimulateBoot(BootConfig{Kind: machine.KindFWK, Nodes: 128, NodesPerMidplane: 32, Stripped: true})
	if stripped.Total >= r.Total {
		t.Error("stripped FWK boot is not faster than full")
	}
}

// replayQueue replays jobs whose single attempts occupied their blocks
// for durs, the way a drain replays its merged results: a job that never
// booted (zero duration) holds its block for one cycle.
func replayQueue(topo Topology, jobs []Job, durs []sim.Cycles) Schedule {
	results := make([]*JobResult, len(jobs))
	for i, job := range jobs {
		results[i] = &JobResult{Job: job, Run: durs[i]}
	}
	return ScheduleQueue(topo, jobs, results, CkptConfig{}.normalized())
}

// TestScheduleFIFOBackfill checks EASY backfill on a hand-built queue,
// then pins the replay on a seeded table of random queues: up to 12
// midplanes and 12 jobs, with zero-midplane, oversized and zero-duration
// requests. One FNV digest covers every placement, the makespan, the
// backfill count and the utilization bits.
func TestScheduleFIFOBackfill(t *testing.T) {
	topo := Topology{Racks: 2, MidplanesPerRack: 2, NodesPerMidplane: 4} // 4 midplanes
	jobs := []Job{
		{ID: 0, Midplanes: 2},
		{ID: 1, Midplanes: 4},
		{ID: 2, Midplanes: 2},
		{ID: 3, Midplanes: 1},
	}
	sched := replayQueue(topo, jobs, []sim.Cycles{100, 100, 150, 40})

	p := sched.Placements
	if p[0].Start != 0 {
		t.Errorf("job 0 start %d, want 0", p[0].Start)
	}
	// Job 1 (the blocked head, needs the whole machine) must start the
	// moment job 0 frees its block — backfill may not delay it.
	if p[1].Start != 100 {
		t.Errorf("job 1 start %d, want 100 (EASY reservation violated)", p[1].Start)
	}
	// Job 2 fits at t=0 but its 150 cycles would run past the head's
	// t=100 reservation; it must NOT backfill. Job 3 drains before the
	// reservation and must.
	if p[2].Backfilled || p[2].Start != 200 {
		t.Errorf("job 2: backfilled=%v start=%d, want queued start at 200", p[2].Backfilled, p[2].Start)
	}
	if !p[3].Backfilled || p[3].Start != 0 {
		t.Errorf("job 3: backfilled=%v start=%d, want backfill at 0", p[3].Backfilled, p[3].Start)
	}
	if sched.Backfilled != 1 {
		t.Errorf("backfilled = %d, want 1", sched.Backfilled)
	}
	if sched.Makespan != 350 {
		t.Errorf("makespan = %d, want 350", sched.Makespan)
	}
	if sched.Utilization <= 0 || sched.Utilization > 1 {
		t.Errorf("utilization = %f out of range", sched.Utilization)
	}

	const want uint64 = 0x4123f5b6df20ce20
	rng := sim.NewRNG(0xeb5f)
	h := fnv.New64a()
	for c := 0; c < 2000; c++ {
		topo := Topology{Racks: 1, MidplanesPerRack: 1 + rng.Intn(12), NodesPerMidplane: 1}
		jobs := make([]Job, 1+rng.Intn(12))
		durs := make([]sim.Cycles, len(jobs))
		for i := range jobs {
			jobs[i] = Job{ID: i, Midplanes: rng.Intn(topo.Midplanes() + 3)}
			if rng.Intn(5) != 0 {
				durs[i] = rng.Cycles(400)
			}
		}
		sched := replayQueue(topo, jobs, durs)
		if len(sched.Drained) != 0 || sched.Resubmits != 0 {
			t.Fatalf("case %d: single attempts drained %v, resubmitted %d", c, sched.Drained, sched.Resubmits)
		}
		for _, p := range sched.Placements {
			fmt.Fprintf(h, "%d|%d|%d|%d|%d|%v|%d|", p.JobID, p.Base, p.Midplanes,
				p.Start, p.End, p.Backfilled, p.Attempt)
		}
		fmt.Fprintf(h, "makespan%d|backfill%d|util%x;", sched.Makespan, sched.Backfilled,
			math.Float64bits(sched.Utilization))
	}
	if got := h.Sum64(); got != want {
		t.Errorf("random queue replay digest %016x, pinned %016x", got, want)
	}
}

func TestGenerateJobsDeterministic(t *testing.T) {
	a := GenerateJobs(7, 50, 4)
	b := GenerateJobs(7, 50, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Midplanes < 1 || a[i].Midplanes > 4 {
			t.Fatalf("job %d midplanes %d out of range", i, a[i].Midplanes)
		}
	}
	if c := GenerateJobs(8, 50, 4); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Error("different seeds produced an identical job prefix")
	}
}

// TestDrainSmoke drains a small CNK queue serially and checks the basics:
// every job succeeds, the schedule covers every job, and a repeat drain
// is signature-identical.
func TestDrainSmoke(t *testing.T) {
	cfg := Config{
		Topology: Topology{Racks: 2, MidplanesPerRack: 2, NodesPerMidplane: 2},
		Kind:     machine.KindCNK,
		Seed:     3,
	}
	s := New(cfg)
	jobs := GenerateJobs(cfg.Seed, 8, cfg.Topology.Midplanes())
	d, err := s.Drain(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if d.Failures != 0 {
		for _, r := range d.Results {
			if r.Failed() {
				t.Errorf("job %d failed: err=%q exits=%v", r.Job.ID, r.Err, r.ExitCodes)
			}
		}
	}
	for id, p := range d.Sched.Placements {
		if p.End <= p.Start {
			t.Errorf("job %d placement [%d,%d] is empty", id, p.Start, p.End)
		}
	}
	if d.JobsPerSecond() <= 0 {
		t.Error("jobs/sec not positive")
	}
	d2, err := New(cfg).Drain(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if d.Signature() != d2.Signature() {
		t.Errorf("repeat drain signature %016x != %016x", d2.Signature(), d.Signature())
	}
}

func TestPartitionPersonalities(t *testing.T) {
	s := New(Config{Topology: DefaultTopology(), Kind: machine.KindFWK, Seed: 9})
	p, err := s.Allocate(2)
	if err != nil {
		t.Fatal(err)
	}
	pers := p.Personalities()
	if len(pers) != p.Nodes {
		t.Fatalf("%d personalities for %d nodes", len(pers), p.Nodes)
	}
	seen := map[int32]bool{}
	for _, per := range pers {
		if seen[per.Rank] {
			t.Fatalf("duplicate rank %d", per.Rank)
		}
		seen[per.Rank] = true
		got, err := UnmarshalPersonality(per.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if *got != per {
			t.Fatalf("round trip changed: %+v vs %+v", *got, per)
		}
	}
}

// TestKernelBootInstrMatchesProbe checks that each memoized boot probe
// answers for its own kernel kind and stripped flag.
func TestKernelBootInstrMatchesProbe(t *testing.T) {
	for _, c := range []struct {
		kind     machine.KernelKind
		stripped bool
	}{{machine.KindCNK, false}, {machine.KindFWK, false}, {machine.KindFWK, true}} {
		if got, want := kernelBootInstr(c.kind, c.stripped), probeBootInstr(c.kind, c.stripped); got != want {
			t.Errorf("kernelBootInstr(%v, stripped %v) = %d, want the probe's %d", c.kind, c.stripped, got, want)
		}
	}
}
