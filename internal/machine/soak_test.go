package machine_test

// Cross-kernel differential soak: seeded randomized job streams pushed
// through the full stack — control system with journal, checkpoints,
// service-node crash injection and the fault injector armed, partitions
// with ION aggregation — checking the conservation invariants that
// individual unit tests can't see across subsystem boundaries:
//
//   - ION credits are released exactly once (ingress queue depth is
//     zero once a machine drains; a double-release would go negative
//     and a leak would strand it positive);
//   - merged UPC counters are monotone across sequential jobs on a
//     reused machine (ClearJobs never rewinds a chip);
//   - the control system leaks no partitions (every drained queue
//     returns every midplane to the free pool);
//   - a journaled drain under crash injection completes every job
//     (recovery replays, nothing is lost), bit-identically at any
//     worker count.
//
// The package is machine_test (external) because the soak drives
// ctrlsys, which imports machine.

import (
	"errors"
	"fmt"
	"testing"

	"bgcnk/internal/ctrlsys"
	"bgcnk/internal/hw"
	"bgcnk/internal/ion"
	"bgcnk/internal/kernel"
	"bgcnk/internal/machine"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

func soakPlan(kind machine.KernelKind, seed uint64) *ras.Plan {
	plan := &ras.Plan{Seed: seed, DDRUncorrectable: 2e-3, DDRCorrectable: 0.02, LinkCRC: 1e-3}
	if kind == machine.KindFWK {
		plan.FWKPanicEvery = 1 // FWK scrubs uncorrectables; make them fatal so restarts fire
	}
	return plan
}

func soakConfig(kind machine.KernelKind, seed uint64, workers int) ctrlsys.Config {
	return ctrlsys.Config{
		Topology:  ctrlsys.Topology{Racks: 1, MidplanesPerRack: 2, NodesPerMidplane: 2},
		Kind:      kind,
		Seed:      seed,
		Workers:   workers,
		Faults:    soakPlan(kind, seed),
		CNsPerION: 2,
		ION:       &ion.Config{},
		Ckpt:      ctrlsys.CkptConfig{Enabled: true, Interval: 1},
		Journal:   ctrlsys.JournalConfig{Enabled: true, SegmentBytes: 2048},
		Crashes:   &ras.CrashPlan{Seed: seed, Rate: 0.02, MaxCrashes: 3},
	}
}

// TestSoakControlSystem drains seeded randomized job streams on both
// kernels with every failure subsystem armed at once, and checks the
// conservation invariants plus worker-count bit-identity.
func TestSoakControlSystem(t *testing.T) {
	for _, kind := range []machine.KernelKind{machine.KindCNK, machine.KindFWK} {
		for _, seed := range []uint64{3, 11} {
			t.Run(fmt.Sprintf("%s/seed%d", kind, seed), func(t *testing.T) {
				cfg := soakConfig(kind, seed, 1)
				jobs := ctrlsys.GenerateJobs(seed, 8, cfg.Topology.Midplanes())

				s := ctrlsys.New(cfg)
				res, err := s.Drain(jobs)
				if err != nil {
					t.Fatal(err)
				}
				// Journal on: a crashed service node recovers and completes
				// the drain — no job may be lost to a crash. A job that
				// burns its whole restart budget on hard faults is a
				// legitimate (and deterministic) outcome; anything else in
				// Errs is a soak failure.
				for _, e := range res.Errs {
					if !errors.Is(e, ctrlsys.ErrRestartBudgetExhausted) {
						t.Errorf("journaled drain surfaced a non-budget error: %v", e)
					}
				}
				if got, want := s.FreeMidplanes(), cfg.Topology.Midplanes(); got != want {
					t.Errorf("leaked partitions: %d midplanes free, machine has %d", got, want)
				}
				if len(res.Results) != len(jobs) {
					t.Fatalf("%d results for %d jobs", len(res.Results), len(jobs))
				}
				for _, r := range res.Results {
					if r.Failed() && !r.BudgetExhausted {
						t.Errorf("job %d failed under checkpointing: err=%q exits=%v",
							r.Job.ID, r.Err, r.ExitCodes)
					}
				}

				// The same stream on 4 workers is bit-identical.
				wide := ctrlsys.New(soakConfig(kind, seed, 4))
				wres, err := wide.Drain(ctrlsys.GenerateJobs(seed, 8, cfg.Topology.Midplanes()))
				if err != nil {
					t.Fatal(err)
				}
				if wres.Signature() != res.Signature() {
					t.Errorf("worker-count dependent drain: %016x (4 workers) != %016x (serial)",
						wres.Signature(), res.Signature())
				}
				if wide.FreeMidplanes() != cfg.Topology.Midplanes() {
					t.Error("parallel drain leaked partitions")
				}
			})
		}
	}
}

// soakJob builds a seeded randomized workload: variable compute bursts,
// memory traffic, a ring exchange and function-shipped writes whose
// volume the seed picks. Every rank terminates, so the drained machine
// must hold the ION conservation invariant afterwards.
func soakJob(m *machine.Machine, seed uint64) machine.App {
	return func(ctx kernel.Context, env *machine.Env) {
		rng := sim.NewRNG(seed ^ uint64(env.Rank)<<17)
		base := m.HeapBase(ctx)
		for i := 0; i < 2+rng.Intn(3); i++ {
			ctx.Compute(sim.Cycles(20_000 + rng.Intn(40_000)))
			ctx.Touch(base+hw.VAddr(i*8192), 4096, true)
		}
		next := (env.Rank + 1) % env.Size
		prev := (env.Rank + env.Size - 1) % env.Size
		env.Dev.Send(ctx, next, 5, []byte("soak"))
		env.Dev.Recv(ctx, 5)
		_ = prev
		ctx.Store(base, append([]byte(fmt.Sprintf("/gpfs/soak%d", env.Rank)), 0))
		fd, errno := ctx.Syscall(kernel.SysOpen, uint64(base), kernel.OCreat|kernel.OWronly, 0644)
		if errno == kernel.OK {
			ctx.Store(base+4096, make([]byte, 512))
			for i := 0; i < 1+rng.Intn(5); i++ {
				ctx.Syscall(kernel.SysWrite, fd, uint64(base+4096), 512)
			}
			ctx.Syscall(kernel.SysClose, fd)
		}
		ctx.Compute(10_000)
	}
}

// TestSoakSequentialJobsConserve runs a randomized job sequence on one
// reused machine (ClearJobs between jobs, as the control system does)
// and checks the machine-level conservation invariants after each job:
// ION ingress fully drained (credits released exactly once) and merged
// UPC counters monotone.
func TestSoakSequentialJobsConserve(t *testing.T) {
	for _, kind := range []machine.KernelKind{machine.KindCNK, machine.KindFWK} {
		t.Run(kind.String(), func(t *testing.T) {
			m, err := machine.New(machine.Config{
				Nodes: 4, Kind: kind, Seed: 9, Reproducible: true,
				CNsPerION: 2, ION: &ion.Config{},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Shutdown()

			var prev [upc.NumCounters]uint64
			for job := 0; job < 4; job++ {
				if job > 0 {
					m.ClearJobs()
				}
				if err := m.Run(soakJob(m, uint64(100+job)), kernel.JobParams{}, 0); err != nil {
					t.Fatalf("job %d: %v", job, err)
				}
				for i, code := range m.ExitCodes() {
					if code != 0 {
						t.Errorf("job %d node %d exit %d", job, i, code)
					}
				}
				for i, s := range m.IONStats() {
					if s.Depth != 0 {
						t.Errorf("job %d: ION %d ingress depth %d after drain (credit leak)", job, i, s.Depth)
					}
					// Only CNK function-ships through the ION daemon; the FWK
					// serves NFS locally and merely contends for the uplink.
					if kind == machine.KindCNK && s.Admitted == 0 {
						t.Errorf("job %d: ION %d admitted nothing — workload not exercising the uplink", job, i)
					}
				}
				snap := m.MergedCounters()
				for c := upc.Counter(0); c < upc.NumCounters; c++ {
					if tot := snap.Total(c); tot < prev[c] {
						t.Errorf("job %d: counter %v went backwards: %d -> %d", job, c, prev[c], tot)
					} else {
						prev[c] = tot
					}
				}
			}
		})
	}
}
