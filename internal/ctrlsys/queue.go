package ctrlsys

import (
	"sort"

	"bgcnk/internal/sim"
)

// Placement is one job's slot in the drained schedule.
type Placement struct {
	JobID      int
	Base       int // first midplane of the allocated block
	Midplanes  int
	Start, End sim.Cycles
	Backfilled bool
	// Attempt is which restart attempt this placement carries (0 for a
	// job that ran once; a restarted job's placement is its final
	// attempt's slot).
	Attempt int
}

// Schedule is the control-time replay of the queue: when each job's
// partition was allocated, booted, run and released.
type Schedule struct {
	Placements []Placement // indexed by job ID
	Makespan   sim.Cycles
	Backfilled int
	// Utilization is occupied midplane-cycles over machine
	// midplane-cycles across the makespan.
	Utilization float64
	// Drained lists midplanes blacklisted for accumulating uncorrectable
	// faults, in drain order; Resubmits counts failed attempts that
	// re-entered the queue. Both stay zero when no attempt failed.
	Drained   []int
	Resubmits int
}

// ScheduleQueue replays the job queue in control time against the
// topology's midplane map: strict FIFO with EASY backfill (a later job
// may jump the queue iff a contiguous block is free now and it finishes
// before the queue head's reservation, so the head is never delayed).
// Each attempt occupies its block for boot + run + teardown; a job that
// never booted still holds its block for one cycle. When no attempt
// failed, that is the whole replay.
//
// The resilience protocol is visible to the scheduler too: a job's
// failed attempt frees its block, the midplane the killing fault
// localized to is drained (blacklisted), and the job re-enters at the
// head of the queue after its backoff — landing on whatever first-fit
// block the degraded machine offers, which is how a restart migrates
// away from sick hardware. EASY backfill keeps scheduling around the
// drained midplanes. Draining is capped so a contiguous healthy block
// large enough for the biggest queued job always survives (the control
// system never drains itself into a machine that cannot run its own
// queue).
//
// Everything ties on (time, job ID) and consumes only the deterministic
// per-attempt results, so the schedule is a pure function of its inputs.
func ScheduleQueue(topo Topology, jobs []Job, results []*JobResult) Schedule {
	total := topo.Midplanes()
	free := make([]bool, total)
	for i := range free {
		free[i] = true
	}
	drained := make([]bool, total)

	// An oversized request is trimmed to the full machine rather than
	// wedging the queue head forever.
	spanOf := func(j Job) int {
		s := j.Midplanes
		if s > total {
			s = total
		}
		if s <= 0 {
			s = 1
		}
		return s
	}
	maxSpan := 1
	for _, j := range jobs {
		if s := spanOf(j); s > maxSpan {
			maxSpan = s
		}
	}

	// firstFit over midplanes that are both free and healthy.
	firstFit := func(fr []bool, span int) (int, bool) {
		run := 0
		for i := 0; i < total; i++ {
			if !fr[i] || drained[i] {
				run = 0
				continue
			}
			run++
			if run == span {
				return i - span + 1, true
			}
		}
		return 0, false
	}
	// healthyFit reports whether a span fits ignoring occupancy — the
	// drain-cap feasibility check.
	healthyFit := func(span int) bool {
		run := 0
		for i := 0; i < total; i++ {
			if drained[i] {
				run = 0
				continue
			}
			run++
			if run == span {
				return true
			}
		}
		return false
	}

	// attemptDur is attempt a's partition occupancy for job id.
	attemptDur := func(id, a int) sim.Cycles {
		r := results[id]
		if a < len(r.Attempts) {
			at := r.Attempts[a]
			d := at.Boot + at.Run + teardownBase + teardownPerMidplane*sim.Cycles(spanOf(r.Job))
			if d <= 0 {
				d = 1
			}
			return d
		}
		d := r.Duration()
		if d <= 0 {
			d = 1
		}
		return d
	}
	attempts := func(id int) int {
		if n := len(results[id].Attempts); n > 0 {
			return n
		}
		return 1
	}

	type item struct {
		jobID   int
		attempt int
		readyAt sim.Cycles
	}
	type running struct {
		jobID   int
		attempt int
		base    int
		span    int
		end     sim.Cycles
	}

	sched := Schedule{Placements: make([]Placement, len(jobs))}
	queue := make([]item, 0, len(jobs))
	for _, j := range jobs {
		queue = append(queue, item{jobID: j.ID})
	}
	var live []running
	now := sim.Cycles(0)
	var busyCycles sim.Cycles

	finish := func(r running) {
		for i := r.base; i < r.base+r.span; i++ {
			free[i] = true
		}
		res := results[r.jobID]
		last := r.attempt == attempts(r.jobID)-1
		if !last {
			// The attempt failed: drain the midplane the fault localized
			// to, then resubmit at the queue head after the service
			// node's backoff.
			at := res.Attempts[r.attempt]
			if at.FaultMidplane >= 0 && at.FaultMidplane < r.span {
				mp := r.base + at.FaultMidplane
				if !drained[mp] {
					drained[mp] = true
					if !healthyFit(maxSpan) {
						drained[mp] = false // drain cap: keep the machine schedulable
					} else {
						sched.Drained = append(sched.Drained, mp)
					}
				}
			}
			backoff := at.Backoff
			queue = append([]item{{jobID: r.jobID, attempt: r.attempt + 1, readyAt: r.end + backoff}}, queue...)
			sched.Resubmits++
		}
	}

	place := func(it item, base int, backfilled bool) {
		span := spanOf(results[it.jobID].Job)
		d := attemptDur(it.jobID, it.attempt)
		sched.Placements[it.jobID] = Placement{
			JobID: it.jobID, Base: base, Midplanes: span,
			Start: now, End: now + d, Backfilled: backfilled,
			Attempt: it.attempt,
		}
		for i := base; i < base+span; i++ {
			free[i] = false
		}
		live = append(live, running{jobID: it.jobID, attempt: it.attempt, base: base, span: span, end: now + d})
		busyCycles += d * sim.Cycles(span)
		if backfilled {
			sched.Backfilled++
		}
		if now+d > sched.Makespan {
			sched.Makespan = now + d
		}
	}

	for len(queue) > 0 || len(live) > 0 {
		// Start queue heads while they are ready and fit.
		started := true
		for started && len(queue) > 0 {
			started = false
			head := queue[0]
			if head.readyAt <= now {
				if base, ok := firstFit(free, spanOf(results[head.jobID].Job)); ok {
					place(head, base, false)
					queue = queue[1:]
					started = true
				}
			}
		}
		if len(queue) > 0 {
			head := queue[0]
			// The head's reservation: when it could start, replaying
			// future frees in (end, job ID) order, never before readyAt.
			shadow := head.readyAt
			if _, ok := firstFit(free, spanOf(results[head.jobID].Job)); !ok {
				shadowFree := make([]bool, total)
				copy(shadowFree, free)
				ordered := make([]running, len(live))
				copy(ordered, live)
				sort.Slice(ordered, func(i, j int) bool {
					if ordered[i].end != ordered[j].end {
						return ordered[i].end < ordered[j].end
					}
					return ordered[i].jobID < ordered[j].jobID
				})
				shadow = sim.Forever
				for _, r := range ordered {
					for i := r.base; i < r.base+r.span; i++ {
						shadowFree[i] = true
					}
					if _, ok := firstFit(shadowFree, spanOf(results[head.jobID].Job)); ok {
						shadow = r.end
						break
					}
				}
				if shadow < head.readyAt {
					shadow = head.readyAt
				}
			}
			// EASY backfill among ready later items.
			for i := 1; i < len(queue); i++ {
				it := queue[i]
				if it.readyAt > now {
					continue
				}
				if shadow != sim.Forever && now+attemptDur(it.jobID, it.attempt) > shadow {
					continue
				}
				if base, ok := firstFit(free, spanOf(results[it.jobID].Job)); ok {
					place(it, base, true)
					queue = append(queue[:i], queue[i+1:]...)
					i--
				}
			}
		}
		if len(live) == 0 {
			if len(queue) == 0 {
				break
			}
			// Nothing running and nothing started: the only thing that can
			// unblock the queue is a backoff expiring. An already-ready item
			// that did not start is waiting on the head's reservation, so
			// only future ready times count here.
			next := sim.Forever
			for _, it := range queue {
				if it.readyAt > now && it.readyAt < next {
					next = it.readyAt
				}
			}
			if next == sim.Forever {
				break // defensive: every item ready yet none fits (should not happen)
			}
			now = next
			continue
		}
		// Advance to the earliest completion; free its block and process
		// failures (all completions at that instant, job-ID order).
		earliest := sim.Forever
		for _, r := range live {
			if r.end < earliest {
				earliest = r.end
			}
		}
		now = earliest
		done := make([]running, 0, 1)
		next := live[:0]
		for _, r := range live {
			if r.end <= now {
				done = append(done, r)
				continue
			}
			next = append(next, r)
		}
		live = next
		sort.Slice(done, func(i, j int) bool { return done[i].jobID < done[j].jobID })
		for _, r := range done {
			finish(r)
		}
	}
	if sched.Makespan > 0 {
		sched.Utilization = float64(busyCycles) / (float64(sched.Makespan) * float64(total))
	}
	return sched
}
