package ctrlsys

import (
	"errors"
	"fmt"
	"testing"

	"bgcnk/internal/ckpt"
	"bgcnk/internal/ion"
	"bgcnk/internal/machine"
	"bgcnk/internal/ras"
)

// The resilience battery. The contract under test is the paper's
// reproducibility story carried through checkpoint/restart: a job that is
// killed by an uncorrectable fault, restarted from its last checkpoint
// (on a fresh partition, same job seed), and run to completion must be
// indistinguishable — same work-counter signature, same exit codes — from
// the same job running fault-free. And the whole drain must stay a pure
// function of (config, jobs): bit-identical across reruns and across
// worker counts.

// resilienceTopo is deliberately tiny: two midplanes of two nodes each.
func resilienceTopo() Topology {
	return Topology{Racks: 1, MidplanesPerRack: 2, NodesPerMidplane: 2}
}

// resilienceJobs are long enough (6-8 exchange rounds, checkpoint every
// round) that a mid-life kill leaves a checkpoint worth resuming from.
func resilienceJobs() []Job {
	return []Job{
		{ID: 0, Name: "job000", Midplanes: 1, Work: 20_000, Exchanges: 8, IOBytes: 512},
		{ID: 1, Name: "job001", Midplanes: 2, Work: 30_000, Exchanges: 6, IOBytes: 256},
		{ID: 2, Name: "job002", Midplanes: 1, Work: 25_000, Exchanges: 8, IOBytes: 512},
		{ID: 3, Name: "job003", Midplanes: 1, Work: 15_000, Exchanges: 7, IOBytes: 0},
	}
}

// resilientPlan arms the job-killing fault class for the kernel: CNK dies
// on its first uncorrectable by design; the FWK normally scrubs them, so
// the panic cadence makes every one fatal there too.
func resilientPlan(kind machine.KernelKind, seed uint64) *ras.Plan {
	plan := &ras.Plan{Seed: seed, DDRUncorrectable: 4e-3, DDRCorrectable: 0.05}
	if kind == machine.KindFWK {
		plan.FWKPanicEvery = 1
	}
	return plan
}

func drainResilient(t *testing.T, kind machine.KernelKind, plan *ras.Plan, workers int) *DrainResult {
	t.Helper()
	s := New(Config{
		Topology: resilienceTopo(), Kind: kind, Seed: 42, Workers: workers,
		Faults: plan,
		Ckpt:   CkptConfig{Enabled: true, Interval: 1},
	})
	res, err := s.Drain(resilienceJobs())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRestartDeterminism is the headline property, over three fault seeds
// and both kernels: (a) every job that completes after one or more
// restarts matches the fault-free run's work signature and exit codes
// exactly; (b) the full drain signature — attempts, backoffs, fault
// midplanes, schedule — is bit-identical across reruns and across worker
// counts. Run under -race in CI: the parallel drain must also be clean.
func TestRestartDeterminism(t *testing.T) {
	for _, kind := range []machine.KernelKind{machine.KindCNK, machine.KindFWK} {
		for _, seed := range []uint64{0xd00d, 0x5ca1ab1e, 0x7e57} {
			kind, seed := kind, seed
			t.Run(fmt.Sprintf("%v/seed%x", kind, seed), func(t *testing.T) {
				faulty := drainResilient(t, kind, resilientPlan(kind, seed), 4)
				fresh := drainResilient(t, kind, nil, 4)

				restarted := 0
				for i, r := range faulty.Results {
					if r.BudgetExhausted {
						continue
					}
					if r.Restarts > 0 {
						restarted++
					}
					if got, want := ckpt.WorkSignature(r.Counters), ckpt.WorkSignature(fresh.Results[i].Counters); got != want {
						t.Errorf("job %d (restarts %d): work signature %016x, fault-free %016x",
							i, r.Restarts, got, want)
					}
					if fmt.Sprint(r.ExitCodes) != fmt.Sprint(fresh.Results[i].ExitCodes) {
						t.Errorf("job %d: exit codes %v, fault-free %v",
							i, r.ExitCodes, fresh.Results[i].ExitCodes)
					}
				}
				if restarted == 0 {
					t.Error("no job completed after a restart; the property was tested vacuously — retune the plan")
				}

				rerun := drainResilient(t, kind, resilientPlan(kind, seed), 4)
				if a, b := faulty.Signature(), rerun.Signature(); a != b {
					t.Errorf("rerun drain signature %016x != %016x", b, a)
				}
				serial := drainResilient(t, kind, resilientPlan(kind, seed), 1)
				if a, b := faulty.Signature(), serial.Signature(); a != b {
					t.Errorf("serial drain signature %016x != parallel %016x", b, a)
				}
			})
		}
	}
}

// TestRestartDeterminismThroughIONCache re-proves the restart contract
// with the I/O-node aggregation subsystem armed on every partition: the
// checkpoint stream now flows through the shared uplink, the ingress
// credit gate and the write-back buffer cache, and a job restarted from
// such a checkpoint must still signature-match its fault-free run — with
// the whole drain bit-identical across worker counts (run under -race in
// CI).
func TestRestartDeterminismThroughIONCache(t *testing.T) {
	icfg := &ion.Config{QueueDepth: 4, CacheBlocks: 16}
	drain := func(kind machine.KernelKind, plan *ras.Plan, workers int) *DrainResult {
		t.Helper()
		s := New(Config{
			Topology: resilienceTopo(), Kind: kind, Seed: 42, Workers: workers,
			Faults: plan,
			Ckpt:   CkptConfig{Enabled: true, Interval: 1},
			ION:    icfg,
		})
		res, err := s.Drain(resilienceJobs())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	const seed = 0xd00d
	for _, kind := range []machine.KernelKind{machine.KindCNK, machine.KindFWK} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			faulty := drain(kind, resilientPlan(kind, seed), 2)
			fresh := drain(kind, nil, 2)
			restarted := 0
			for i, r := range faulty.Results {
				if r.BudgetExhausted {
					continue
				}
				if r.Restarts > 0 {
					restarted++
				}
				if got, want := ckpt.WorkSignature(r.Counters), ckpt.WorkSignature(fresh.Results[i].Counters); got != want {
					t.Errorf("job %d (restarts %d): work signature %016x, fault-free %016x",
						i, r.Restarts, got, want)
				}
				if fmt.Sprint(r.ExitCodes) != fmt.Sprint(fresh.Results[i].ExitCodes) {
					t.Errorf("job %d: exit codes %v, fault-free %v",
						i, r.ExitCodes, fresh.Results[i].ExitCodes)
				}
			}
			if restarted == 0 {
				t.Error("no job completed after a restart; the cache-path property was tested vacuously")
			}
			for _, workers := range []int{1, 8} {
				other := drain(kind, resilientPlan(kind, seed), workers)
				if a, b := faulty.Signature(), other.Signature(); a != b {
					t.Errorf("drain signature at %d workers %016x != 2 workers %016x", workers, b, a)
				}
			}
		})
	}
}

// TestRestartBudgetExhaustedTyped: a job whose every incarnation dies
// before its first checkpoint can never make progress (the rewound fault
// schedule replays the identical kill), so the budget runs out and the
// drain surfaces the typed error, matchable with errors.Is.
func TestRestartBudgetExhaustedTyped(t *testing.T) {
	for _, kind := range []machine.KernelKind{machine.KindCNK, machine.KindFWK} {
		kind := kind
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			// A rate this high kills in the first exchange round.
			plan := &ras.Plan{Seed: 0xdead, DDRUncorrectable: 5e-2}
			if kind == machine.KindFWK {
				plan.FWKPanicEvery = 1
			}
			res := drainResilient(t, kind, plan, 2)
			if len(res.Errs) == 0 {
				t.Fatal("no drain errors despite a kill-everything fault rate")
			}
			for _, err := range res.Errs {
				if !errors.Is(err, ErrRestartBudgetExhausted) {
					t.Errorf("drain error %v does not wrap ErrRestartBudgetExhausted", err)
				}
			}
			budget := (CkptConfig{}).normalized().MaxRestarts
			exhausted := 0
			for _, r := range res.Results {
				if !r.BudgetExhausted {
					continue
				}
				exhausted++
				if len(r.Attempts) != 1+budget {
					t.Errorf("job %d: %d attempts, want %d", r.Job.ID, len(r.Attempts), 1+budget)
				}
				if r.Restarts != budget {
					t.Errorf("job %d: %d restarts, want the full budget %d", r.Job.ID, r.Restarts, budget)
				}
			}
			if exhausted != len(res.Errs) {
				t.Errorf("%d exhausted jobs but %d drain errors", exhausted, len(res.Errs))
			}
		})
	}
}

// TestResilienceFaultClassMatrix drains the queue under each single-class
// plan, for both kernels: every class must either recover (all jobs
// complete, possibly after restarts) or fail with the typed budget error
// — and do so bit-identically on a rerun. No third outcome (hangs,
// untyped errors, partial results) is acceptable.
func TestResilienceFaultClassMatrix(t *testing.T) {
	const seed = 0xfa117
	classes := []struct {
		name string
		plan ras.Plan
	}{
		{"correctable_ecc", ras.Plan{Seed: seed, DDRCorrectable: 1e-3}},
		{"uncorrectable_ecc", ras.Plan{Seed: seed, DDRUncorrectable: 4e-3}},
		{"tlb_parity", ras.Plan{Seed: seed, TLBParity: 1e-4}},
		{"link_crc", ras.Plan{Seed: seed, LinkCRC: 1e-2}},
		{"ciod_drop", ras.Plan{Seed: seed, CIODDrop: 0.3}},
		{"ciod_crash", ras.Plan{Seed: seed, CIODCrashEvery: 10}},
	}
	for _, kind := range []machine.KernelKind{machine.KindCNK, machine.KindFWK} {
		for _, cl := range classes {
			kind, cl := kind, cl
			t.Run(fmt.Sprintf("%v/%s", kind, cl.name), func(t *testing.T) {
				plan := cl.plan
				if kind == machine.KindFWK {
					plan.FWKPanicEvery = 1
				}
				a := drainResilient(t, kind, &plan, 2)
				for i, r := range a.Results {
					if r.Failed() && !r.BudgetExhausted {
						t.Errorf("job %d failed without the typed budget error: %q (codes %v)",
							i, r.Err, r.ExitCodes)
					}
				}
				for _, err := range a.Errs {
					if !errors.Is(err, ErrRestartBudgetExhausted) {
						t.Errorf("untyped drain error: %v", err)
					}
				}
				b := drainResilient(t, kind, &plan, 2)
				if a.Signature() != b.Signature() {
					t.Errorf("rerun signature %016x != %016x", b.Signature(), a.Signature())
				}
			})
		}
	}
}

// TestScheduleResilientBlacklist: on a four-midplane machine with
// single-midplane jobs, a job that exhausts its budget strikes its fault
// midplane repeatedly; the health tracker must drain it (maxSpan 1 keeps
// the drain cap permissive) and the replayed schedule must stay
// well-formed — every placement inside the machine, resubmits matching
// the recorded failed attempts, no placement on a midplane drained before
// its start.
func TestScheduleResilientBlacklist(t *testing.T) {
	topo := Topology{Racks: 1, MidplanesPerRack: 4, NodesPerMidplane: 2}
	jobs := []Job{
		{ID: 0, Name: "job000", Midplanes: 1, Work: 20_000, Exchanges: 8, IOBytes: 512},
		{ID: 1, Name: "job001", Midplanes: 1, Work: 30_000, Exchanges: 6, IOBytes: 256},
		{ID: 2, Name: "job002", Midplanes: 1, Work: 25_000, Exchanges: 8, IOBytes: 512},
		{ID: 3, Name: "job003", Midplanes: 1, Work: 15_000, Exchanges: 7, IOBytes: 0},
	}
	plan := &ras.Plan{Seed: 0xdead, DDRUncorrectable: 5e-2}
	s := New(Config{
		Topology: topo, Kind: machine.KindCNK, Seed: 42, Workers: 2,
		Faults: plan,
		Ckpt:   CkptConfig{Enabled: true, Interval: 1},
	})
	res, err := s.Drain(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts == 0 {
		t.Fatal("no restarts at a kill-everything rate; the blacklist path was never exercised")
	}
	if len(res.Sched.Drained) == 0 {
		t.Error("no midplane drained despite repeated kill strikes and a permissive drain cap")
	}
	wantResubmits := 0
	for _, r := range res.Results {
		if n := len(r.Attempts); n > 1 {
			wantResubmits += n - 1
		}
	}
	if res.Sched.Resubmits != wantResubmits {
		t.Errorf("schedule replayed %d resubmits, results record %d failed attempts",
			res.Sched.Resubmits, wantResubmits)
	}
	total := topo.Midplanes()
	for _, p := range res.Sched.Placements {
		if p.End == 0 {
			t.Errorf("job %d never placed", p.JobID)
			continue
		}
		if p.Base < 0 || p.Base+p.Midplanes > total {
			t.Errorf("job %d placed at [%d,%d) outside the %d-midplane machine",
				p.JobID, p.Base, p.Base+p.Midplanes, total)
		}
	}
	for _, mp := range res.Sched.Drained {
		if mp < 0 || mp >= total {
			t.Errorf("drained midplane %d outside the machine", mp)
		}
	}
}

// TestCkptOffSignatureUnchanged pins the checkpoint-off drain: no job
// carries restart state, the drain has no Errs and no drained midplanes,
// and its signature is a fixed literal.
func TestCkptOffSignatureUnchanged(t *testing.T) {
	const want uint64 = 0x1397212ca7b30f41
	s := New(Config{Topology: resilienceTopo(), Kind: machine.KindCNK, Seed: 42, Workers: 2})
	res, err := s.Drain(GenerateJobs(42, 4, resilienceTopo().Midplanes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Signature(); got != want {
		t.Errorf("checkpoint-off drain signature %016x, pinned %016x", got, want)
	}
	if res.Restarts != 0 || res.Wasted != 0 || len(res.Errs) != 0 ||
		len(res.Sched.Drained) != 0 || res.Sched.Resubmits != 0 {
		t.Errorf("checkpoint-off drain carries resilience state: restarts=%d wasted=%d errs=%d drained=%v resubmits=%d",
			res.Restarts, res.Wasted, len(res.Errs), res.Sched.Drained, res.Sched.Resubmits)
	}
	for _, r := range res.Results {
		if len(r.Attempts) != 0 || r.RestartOverhead != 0 || r.BudgetExhausted {
			t.Errorf("job %d carries restart history with checkpointing off", r.Job.ID)
		}
	}
}
