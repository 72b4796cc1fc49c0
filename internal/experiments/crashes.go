package experiments

import (
	"bgcnk/internal/ctrlsys"
	"bgcnk/internal/machine"
	"bgcnk/internal/ras"
)

// crashDrain drains the resilient queue with the write-ahead journal
// armed and service-node crashes injected at the given per-append rate.
// Rate 0 is the crash-free reference every crashed drain must be
// indistinguishable from: the same commit pipeline with the journal off,
// so its records only advance a virtual LSN.
func crashDrain(topo ctrlsys.Topology, kind machine.KernelKind, jobs []ctrlsys.Job,
	rate float64, workers int) (*ctrlsys.DrainResult, error) {
	cfg := ctrlsys.Config{
		Topology: topo, Kind: kind, Seed: 1009, Workers: workers,
		Faults: mtbfPlan(kind, 4e-3),
		Ckpt:   ctrlsys.CkptConfig{Enabled: true, Interval: 1},
	}
	if rate > 0 {
		cfg.Journal = ctrlsys.JournalConfig{Enabled: true, SegmentBytes: 4096}
		cfg.Crashes = &ras.CrashPlan{Seed: 0xdeadbeef, Rate: rate}
	}
	return ctrlsys.New(cfg).Drain(jobs)
}

// RunCrashes regenerates the crash-only control-system result: the same
// fault-ridden job queue is drained by a service node that is repeatedly
// killed at journal append points and recovered by WAL replay, across a
// sweep of crash rates. The claim under test is exactness, not
// degradation — every cell's final accounting (exit codes, work
// signatures, RAS streams, schedule) must be bit-identical to the
// crash-free drain, with only the crash/recovery bookkeeping differing.
// This is the paper's service-node single-point-of-failure lesson closed
// out: control-system state made as reproducible as the compute nodes'.
func RunCrashes(opt Options) (*Result, error) {
	topo := ctrlsys.Topology{Racks: 1, MidplanesPerRack: 2, NodesPerMidplane: 2}
	jobs := mtbfJobs(5)
	if opt.Quick {
		jobs = mtbfJobs(4)
	}
	rates := []float64{0.05, 0.2}
	workers := opt.workers()

	r := &Result{ID: "crashes", Title: "Crash-only service node: WAL replay vs crash-free drain (exactness sweep)", Pass: true}
	// Worker count deliberately absent from the render: the commit
	// pipeline is serial, so crash schedules and recovery accounting are
	// bit-identical at any width and the render stays golden-pinned.
	r.addf("topology: %d midplanes x %d nodes, %d jobs, fault rate 4e-3, checkpoint interval 1",
		topo.Midplanes(), topo.NodesPerMidplane, len(jobs))

	for _, k := range []struct {
		kind machine.KernelKind
		name string
	}{{machine.KindCNK, "CNK"}, {machine.KindFWK, "FWK"}} {
		base, err := crashDrain(topo, k.kind, jobs, 0, workers)
		if err != nil {
			return nil, err
		}
		r.addf("%s crash-free: %d jobs, %d restarts, signature %016x",
			k.name, len(base.Results), base.Restarts, base.Signature())
		totalCrashes := 0
		for _, rate := range rates {
			res, err := crashDrain(topo, k.kind, jobs, rate, workers)
			if err != nil {
				return nil, err
			}
			exact := res.Signature() == base.Signature()
			r.addf("%s rate %.2f: %d crashes (%d during recovery), %d recoveries, %d records replayed, %d resumed / %d requeued, recovery latency %.0fus, journal %dB in %d segments, exact=%v",
				k.name, rate,
				res.Crash.Crashes, res.Crash.ByClass[ras.CrashDuringRecovery],
				res.Crash.Recoveries, res.Crash.RecordsReplayed,
				res.Crash.Resumed, res.Crash.Requeued,
				res.Crash.RecoveryLatency.Micros(),
				res.Journal.Bytes, res.Journal.Segments, exact)
			totalCrashes += res.Crash.Crashes
			if !exact {
				r.Pass = false
				r.notef("%s rate %.2f: crashed drain diverged from crash-free (%016x vs %016x)",
					k.name, rate, res.Signature(), base.Signature())
			}
			if res.CrashAborted != 0 {
				r.Pass = false
				r.notef("%s rate %.2f: journaled drain aborted %d jobs", k.name, rate, res.CrashAborted)
			}
		}
		if totalCrashes == 0 {
			r.Pass = false
			r.notef("%s: no crash fired across the sweep; the exactness claim is vacuous", k.name)
		}
	}
	r.notef("every recovery replays the journal into a fresh service node, kills orphaned partitions, and resumes from each job's last durable checkpoint")
	return r, nil
}
