package ctrlsys

import (
	"fmt"

	"bgcnk/internal/kernel"
	"bgcnk/internal/machine"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// Teardown cost: drain the partition's networks, scrub per-job kernel
// state, release the block. Cheap for the same reason CNK teardown is
// cheap on the real machine — there is almost no state to tear down.
const (
	teardownBase        = sim.Cycles(100_000)
	teardownPerMidplane = sim.Cycles(50_000)
)

// Job is one queued job submission.
type Job struct {
	ID        int
	Name      string
	Midplanes int        // partition size requested
	Work      sim.Cycles // per-rank compute per exchange round
	Exchanges int        // allreduce rounds coupling the ranks
	IOBytes   int        // rank-0 output function-shipped to the I/O node
}

// GenerateJobs draws a seeded stream of n job submissions, sized between
// one midplane and maxMidplanes. Sizes are powers of two (real partitions
// are power-of-two blocks, and the torus allreduce fallback requires it);
// the mix skews small with a tail of machine-sized jobs, which is what
// gives the backfill scheduler something to do.
func GenerateJobs(seed uint64, n, maxMidplanes int) []Job {
	if maxMidplanes < 1 {
		maxMidplanes = 1
	}
	maxPow2 := 1
	for maxPow2*2 <= maxMidplanes {
		maxPow2 *= 2
	}
	rng := sim.NewRNG(seed ^ 0x10b5_7e41)
	jobs := make([]Job, n)
	for i := range jobs {
		mp := 1
		switch rng.Intn(8) {
		case 5, 6:
			mp = 2
		case 7:
			mp = maxPow2
		}
		if mp > maxPow2 {
			mp = maxPow2
		}
		jobs[i] = Job{
			ID:        i,
			Name:      fmt.Sprintf("job%03d", i),
			Midplanes: mp,
			Work:      50_000 + rng.Cycles(150_000),
			Exchanges: 1 + rng.Intn(3),
			IOBytes:   256 << rng.Intn(3),
		}
	}
	return jobs
}

// jobSeed derives the partition seed for a job: a pure function of the
// service seed and the job's ID, never of its placement or of which
// worker simulates it.
func (s *ServiceNode) jobSeed(job Job) uint64 {
	return sim.NewRNG(s.cfg.Seed ^ 0x5e21_11ce).Fork(uint64(job.ID)).Uint64()
}

// JobResult is everything one job's partition produced, expressed
// relative to the partition's boot instant so results are comparable no
// matter when (or where) the job ran.
type JobResult struct {
	Job   Job
	Nodes int
	Boot  BootResult

	Run      sim.Cycles // launch to last exit, boot-relative
	Teardown sim.Cycles

	ExitCodes []int
	Counters  upc.Snapshot // merged across the partition
	RASEvents uint64
	RASHash   uint64 // boot-relative event-stream hash
	Err       string // simulation error, empty on success

	// Resilience accounting (zero unless checkpointing is armed; the
	// fields below describe the restart history, not the final state).
	Attempts        []Attempt
	Restarts        int        // restarts actually performed
	Wasted          sim.Cycles // partition occupancy burned by failed attempts
	RestartOverhead sim.Cycles // Wasted plus service-node backoffs
	BudgetExhausted bool       // failed even after maxRestarts restarts
}

// Duration is how long the partition is occupied: boot protocol, the
// (final) run, teardown, and — when the job restarted — everything the
// failed attempts and backoffs burned. The queue scheduler charges this
// much block time.
func (r *JobResult) Duration() sim.Cycles {
	return r.Boot.Total + r.Run + r.Teardown + r.RestartOverhead
}

// Failed reports whether the job ended badly (error or nonzero exit).
func (r *JobResult) Failed() bool {
	if r.Err != "" {
		return true
	}
	for _, c := range r.ExitCodes {
		if c != 0 {
			return true
		}
	}
	return false
}

// runJob simulates one job on its own freshly booted partition machine
// and collects the result. The partition is destroyed afterwards
// (teardown/reboot between jobs); nothing leaks into the next job.
func (s *ServiceNode) runJob(job Job) *JobResult {
	nodes := job.Midplanes * s.topo.NodesPerMidplane
	p := &Partition{
		ID:        job.ID,
		Base:      -1, // placement is the scheduler's business, not the simulation's
		Midplanes: job.Midplanes,
		Nodes:     nodes,
		Block:     fmt.Sprintf("<%s>", job.Name),
		Kind:      s.cfg.Kind,
	}
	res := &JobResult{Job: job, Nodes: nodes}
	if err := s.BootPartition(p, s.jobSeed(job)); err != nil {
		res.Err = err.Error()
		return res
	}
	defer p.Destroy()
	m := p.M
	res.Boot = p.Boot

	mark := m.RAS.Mark()
	boot := bootInstant(m)
	if err := m.Run(jobApp(m, job, nil, nil, 0), kernel.JobParams{}, 0); err != nil {
		res.Err = err.Error()
		return res
	}
	res.Run = m.Eng.Now() - boot
	res.Teardown = teardownBase + teardownPerMidplane*sim.Cycles(job.Midplanes)
	res.ExitCodes = m.ExitCodes()
	res.Counters = m.MergedCounters()
	res.RASEvents = m.RAS.CountSince(mark)
	res.RASHash = m.RAS.HashSince(mark, boot)
	return res
}

func bootInstant(m *machine.Machine) sim.Cycles {
	if len(m.CNKs) > 0 {
		return m.CNKs[0].BootedAt
	}
	return m.FWKs[0].BootedAt
}
