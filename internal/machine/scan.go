package machine

import "bgcnk/internal/sim"

// ScanReport is the control system's view of a booted partition: what a
// service node coming back from a crash learns by querying the machine
// rather than trusting its own (lost) memory. Recovery reconciles the
// replayed journal against this — a partition whose job started but never
// produced a completion record is an orphan no matter what the scan says,
// but the scan tells recovery what there is to tear down and whether any
// checkpoint state survived on the IONs.
type ScanReport struct {
	Nodes int
	Kind  KernelKind
	Now   sim.Cycles

	// JobsLaunched counts node-jobs launched since the last boot or
	// ClearJobs (one per node per machine-level job).
	JobsLaunched int
	// JobsDone reports whether every launched job has exited.
	JobsDone bool
	// ExitCodes mirrors Machine.ExitCodes (unfinished jobs report -1).
	ExitCodes []int

	// Checkpoint schedule residue.
	CheckpointsArmed   bool
	CheckpointJobID    int
	CheckpointInterval int
	Restores           int

	// RASEvents counts the machine's logged events (0 when faults are
	// unarmed).
	RASEvents uint64
}

// Scan snapshots the partition's control-visible state. It is read-only:
// scanning never perturbs the machine, so a reconciliation pass may scan
// the same partition any number of times (idempotent recovery).
func (m *Machine) Scan() ScanReport {
	r := ScanReport{
		Nodes:        m.Cfg.Nodes,
		Kind:         m.Cfg.Kind,
		Now:          m.Eng.Now(),
		JobsLaunched: len(m.jobs),
		JobsDone:     m.JobsDone(),
		ExitCodes:    m.ExitCodes(),
		Restores:     m.ck.restores,
		RASEvents:    m.RAS.Total(),
	}
	if m.ck.armed {
		r.CheckpointsArmed = true
		r.CheckpointJobID = m.ck.jobID
		r.CheckpointInterval = m.ck.interval
	}
	return r
}
