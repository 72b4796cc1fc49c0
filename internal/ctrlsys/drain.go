package ctrlsys

import (
	"fmt"
	"hash/fnv"
	"time"

	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// DrainResult is a fully drained queue: every job's result (in job-ID
// order, regardless of execution order), the control-time schedule, and
// the deterministic merge of exit codes, counters and RAS streams.
type DrainResult struct {
	Results []*JobResult // indexed by job ID
	Sched   Schedule

	Merged    upc.Snapshot // machine-wide counter sum over all jobs
	RASEvents uint64
	RASHash   uint64 // fold of per-job boot-relative hashes, job-ID order
	Failures  int

	// Errs carries typed per-job failures in job-ID order; a job that
	// exhausts its restart budget contributes an error wrapping
	// ErrRestartBudgetExhausted (test with errors.Is). Empty when every
	// job completed.
	Errs []error
	// Restarts and Wasted aggregate the resilience layer's work: restart
	// attempts performed and partition occupancy burned by failed
	// attempts (both zero with checkpointing off).
	Restarts int
	Wasted   sim.Cycles

	Workers int
	// Wall is host time spent simulating — the one field that is NOT
	// deterministic and is excluded from Signature. Serial vs parallel
	// drains differ here and nowhere else.
	Wall time.Duration

	// CrashAborted counts jobs lost to a service-node crash with
	// journaling off (each contributes an ErrServiceNodeCrash entry to
	// Errs and is NOT counted in Failures: the control system died, the
	// job didn't). Always zero when the journal is on — recovery replays
	// the drain to completion instead.
	CrashAborted int
	// Crash and Journal account the crash-only machinery. Both are
	// deterministic for a given config but deliberately excluded from
	// Signature: a crashed-and-recovered drain must Signature-equal the
	// crash-free drain, which these fields by construction cannot.
	Crash   CrashStats
	Journal JournalStats
}

// Drain simulates every queued job and replays the FIFO+backfill queue
// over the results. Jobs execute on a worker pool bounded by
// Config.Workers; because each job runs on its own isolated partition
// machine seeded purely by job ID, execution order cannot affect any
// result, and every transition is committed through one serial pipeline
// in job-ID order after the workers finish, so the drain is
// bit-identical at every worker count. This is the paper's control-plane
// parallelism done deterministically: real wall-clock speedup for
// multi-partition simulations with none of the replay guarantees given
// up.
//
// A node drains one queue. Draining it again returns the committed
// results and runs any job that has none yet, which is how a recovered
// node finishes an interrupted queue; a queue with a job that differs
// from the one the node accepted under that ID is rejected before
// anything is appended.
func (s *ServiceNode) Drain(jobs []Job) (*DrainResult, error) {
	workers := s.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	for i, job := range jobs {
		if job.ID != i {
			return nil, fmt.Errorf("ctrlsys: job %d has ID %d; Drain needs dense job IDs", i, job.ID)
		}
		if sub, ok := s.w.st.submitted[i]; ok && sub != job {
			return nil, fmt.Errorf("ctrlsys: job %d (%s) differs from its submit record %+v; a node drains one queue",
				i, job.Name, sub)
		}
	}
	res, err := s.drain(jobs, workers)
	if err == nil {
		// Emitted here — serially, in job-ID order, from the merged
		// result — so the recorded trace is byte-identical at every
		// worker count.
		s.emitJobSpans(res)
	}
	return res, err
}

// mergeResults performs the deterministic merge, strictly in job-ID
// order, and computes the control-time schedule. res.Results must be
// fully populated (one entry per job, in job-ID order).
func (s *ServiceNode) mergeResults(res *DrainResult, jobs []Job) {
	snaps := make([]upc.Snapshot, 0, len(jobs))
	hash := uint64(14695981039346656037)
	for _, r := range res.Results {
		snaps = append(snaps, r.Counters)
		res.RASEvents += r.RASEvents
		hash = hash*1099511628211 ^ r.RASHash
		res.Restarts += r.Restarts
		res.Wasted += r.Wasted
		switch {
		case r.CrashAborted:
			res.CrashAborted++
		case r.Failed():
			res.Failures++
		}
		if r.BudgetExhausted {
			res.Errs = append(res.Errs, fmt.Errorf(
				"job %d (%s): %w after %d attempts",
				r.Job.ID, r.Job.Name, ErrRestartBudgetExhausted, len(r.Attempts)))
		}
		if r.CrashAborted {
			res.Errs = append(res.Errs, fmt.Errorf(
				"job %d (%s): aborted: %w", r.Job.ID, r.Job.Name, ErrServiceNodeCrash))
		}
	}
	res.RASHash = hash
	res.Merged = upc.Merge(snaps...)
	res.Sched = ScheduleQueue(s.topo, jobs, res.Results, s.cfg.Ckpt.normalized())
}

// JobsPerSecond is the drained throughput in simulated control time.
func (r *DrainResult) JobsPerSecond() float64 {
	if r.Sched.Makespan == 0 {
		return 0
	}
	return float64(len(r.Results)) / r.Sched.Makespan.Seconds()
}

// Signature digests everything deterministic about the drain: per-job
// exit codes, run cycles, RAS streams, the merged counters and the
// schedule. Two drains of the same queue must Signature-equal no matter
// how many workers simulated them; host wall-clock is excluded.
func (r *DrainResult) Signature() uint64 {
	h := fnv.New64a()
	for _, jr := range r.Results {
		fmt.Fprintf(h, "job%d|%d|%d|%d|%016x|%s|", jr.Job.ID, jr.Run, jr.Boot.Total,
			jr.RASEvents, jr.RASHash, jr.Err)
		for _, c := range jr.ExitCodes {
			fmt.Fprintf(h, "%d,", c)
		}
		fmt.Fprintf(h, "%s|", jr.Counters.Text())
		// Restart history enters the signature only when a job restarted
		// or exhausted its budget; a job that ran once signs its outcome.
		if jr.Restarts > 0 || jr.BudgetExhausted {
			fmt.Fprintf(h, "restarts%d|wasted%d|overhead%d|exhausted%v|",
				jr.Restarts, jr.Wasted, jr.RestartOverhead, jr.BudgetExhausted)
			for _, a := range jr.Attempts {
				fmt.Fprintf(h, "att%d|%d|%d|%d|%v|", a.Run, a.Backoff,
					a.ResumeEpoch, a.FaultMidplane, a.Completed)
			}
		}
	}
	fmt.Fprintf(h, "merged|%s|", r.Merged.Text())
	for _, p := range r.Sched.Placements {
		fmt.Fprintf(h, "place%d|%d|%d|%d|%d|%v|", p.JobID, p.Base, p.Midplanes,
			p.Start, p.End, p.Backfilled)
	}
	fmt.Fprintf(h, "makespan%d|backfill%d", r.Sched.Makespan, r.Sched.Backfilled)
	return h.Sum64()
}
