package ctrlsys

import (
	"reflect"
	"testing"

	"bgcnk/internal/machine"
	"bgcnk/internal/ras"
)

// TestParallelDrainMatchesSerial is the subsystem's load-bearing property:
// draining the same queue on a parallel worker pool produces results
// bit-identical to the serial drain — same exit codes, same merged
// counters, same RAS streams, same schedule — at every seed and worker
// count. Every row drains with checkpointing off, and its serial
// signature is pinned: the unbooted rows' hard network faults leave some
// partitions unable to boot, so the schedule's 1-cycle placeholder for a
// zero-duration job is pinned too. Run under -race in CI, this is also
// the data-race gate for the worker pool.
func TestParallelDrainMatchesSerial(t *testing.T) {
	small := Topology{Racks: 2, MidplanesPerRack: 2, NodesPerMidplane: 2}
	netFaults := &ras.Plan{Seed: 7, NodeFails: 1, LinkFails: 2}
	cases := []struct {
		name   string
		kind   machine.KernelKind
		topo   Topology
		seed   uint64
		jobs   int
		faults *ras.Plan
		// unbooted is how many jobs' partitions refuse to boot.
		unbooted int
		want     uint64 // the serial drain's Signature
	}{
		{name: "cnk", kind: machine.KindCNK, topo: small, seed: 3, jobs: 10, want: 0x01f3359ab96b9c06},
		{name: "cnk-faults", kind: machine.KindCNK, topo: small, seed: 17, jobs: 8, faults: ras.DefaultPlan(17), want: 0x7f84ec30ec95fc0a},
		{name: "fwk", kind: machine.KindFWK, topo: small, seed: 42, jobs: 6, want: 0x16ae561d9490968a},
		{name: "cnk-unbooted", kind: machine.KindCNK, topo: resilienceTopo(), seed: 42, jobs: 8, faults: netFaults, unbooted: 3, want: 0x21f54f9f80349cb9},
		{name: "fwk-unbooted", kind: machine.KindFWK, topo: resilienceTopo(), seed: 42, jobs: 8, faults: netFaults, unbooted: 3, want: 0x11dd8907918b2086},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Topology: tc.topo,
				Kind:     tc.kind,
				Seed:     tc.seed,
				Faults:   tc.faults,
				Workers:  1,
			}
			jobs := GenerateJobs(tc.seed, tc.jobs, cfg.Topology.Midplanes())
			serial, err := New(cfg).Drain(jobs)
			if err != nil {
				t.Fatal(err)
			}
			want := serial.Signature()
			if want != tc.want {
				t.Errorf("serial signature %016x, pinned %016x", want, tc.want)
			}
			unbooted := 0
			for id, r := range serial.Results {
				if r.Duration() != 0 {
					continue
				}
				unbooted++
				if p := serial.Sched.Placements[id]; p.End-p.Start != 1 {
					t.Errorf("unbooted job %d occupies [%d,%d), want a 1-cycle placeholder", id, p.Start, p.End)
				}
			}
			if unbooted != tc.unbooted {
				t.Errorf("%d jobs never booted, want %d", unbooted, tc.unbooted)
			}
			for _, workers := range []int{2, 4, 8} {
				pcfg := cfg
				pcfg.Workers = workers
				par, err := New(pcfg).Drain(jobs)
				if err != nil {
					t.Fatal(err)
				}
				if got := par.Signature(); got != want {
					t.Errorf("workers=%d signature %016x != serial %016x", workers, got, want)
					// Narrow it down for the failure report.
					for i := range jobs {
						s, p := serial.Results[i], par.Results[i]
						if s.Run != p.Run || s.RASHash != p.RASHash || s.Err != p.Err ||
							!reflect.DeepEqual(s.ExitCodes, p.ExitCodes) || s.Counters != p.Counters {
							t.Errorf("  job %d diverged: serial{run=%d ras=%016x exits=%v err=%q} parallel{run=%d ras=%016x exits=%v err=%q}",
								i, s.Run, s.RASHash, s.ExitCodes, s.Err, p.Run, p.RASHash, p.ExitCodes, p.Err)
						}
					}
					continue
				}
				// Signature matching is necessary; check the headline fields
				// directly so a hash bug cannot mask a real divergence.
				if par.Merged != serial.Merged {
					t.Errorf("workers=%d merged counters diverged", workers)
				}
				if par.RASHash != serial.RASHash || par.RASEvents != serial.RASEvents {
					t.Errorf("workers=%d RAS stream diverged", workers)
				}
				if par.Failures != serial.Failures {
					t.Errorf("workers=%d failures %d != %d", workers, par.Failures, serial.Failures)
				}
				if !reflect.DeepEqual(par.Sched, serial.Sched) {
					t.Errorf("workers=%d schedule diverged", workers)
				}
			}
		})
	}
}
