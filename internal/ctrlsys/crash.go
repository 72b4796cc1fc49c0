package ctrlsys

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"bgcnk/internal/ctrlsys/wal"
	"bgcnk/internal/fs"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/sim/replica"
)

// ErrServiceNodeCrash is the typed face of a service-node death. It never
// escapes Drain — the crash-only loop recovers from the journal and
// finishes the drain — but Allocate and BootPartition return it (and
// Release swallows it) when the injector fires under them. Only a
// journaled node has a crash plan, so only a journaled node dies.
var ErrServiceNodeCrash = errors.New("ctrlsys: service node crashed")

// Recovery cost model, in simulated cycles of service-node downtime: a
// fixed base, plus one term per journal record replayed and one per
// orphaned job killed. They feed CrashStats.RecoveryLatency, which the
// crashes experiment reports; they never touch partition simulations, so
// they cannot perturb job results.
const (
	recoverBaseCost  = sim.Cycles(5_000_000)
	recoverPerRecord = sim.Cycles(2_000)
	recoverPerOrphan = sim.Cycles(500_000)
)

// CrashStats accounts the crash-only machinery across a drain: every
// injected death, every recovery, and what reconciliation found. All of
// it is deterministic for a given (config, seeds) but excluded from
// DrainResult.Signature — the whole point is that the signature matches
// the crash-free drain while these do not.
type CrashStats struct {
	Crashes    int
	ByClass    [ras.NumCrashClasses]int
	Recoveries int

	RecordsReplayed int
	OrphansKilled   int
	// Resumed counts orphan kills that left a journaled checkpoint to
	// resume from; Requeued counts those restarted from scratch.
	Resumed  int
	Requeued int

	// RecoveryLatency is total modelled service-node downtime across all
	// recoveries (a fixed base + replay + reconciliation).
	RecoveryLatency sim.Cycles
}

// JournalStats describes the durable journal at the end of a drain.
type JournalStats struct {
	Records  int
	Bytes    int
	Segments int
	// TornDropped counts torn tail records dropped (and repaired) across
	// all recoveries — one per mid-checkpoint-commit crash.
	TornDropped int
}

// world is the state that survives a service-node death: the control
// store and the journal on it (both nil with the journal off), the crash
// injector whose generation counts deaths, and the drain state.
// ServiceNode incarnations come and go; the world persists.
type world struct {
	store *fs.FS
	jn    *wal.Journal
	inj   *ras.CrashInjector
	vlsn  uint64 // virtual LSN sequence when journaling is off
	torn  int
	crash CrashStats
	st    *drainState
}

// newWorld builds the world a node starts with. The crash plan reaches
// the injector only on a journaled node: recovery replays the journal,
// so a node without one must never die (Drain refuses the combination).
func newWorld(cfg Config) *world {
	w := &world{st: newDrainState()}
	var plan *ras.CrashPlan
	if cfg.Journal.Enabled {
		w.store = fs.New()
		jn, err := wal.Create(w.store, journalDir, cfg.Journal.SegmentBytes)
		if err != nil {
			// Impossible on a freshly created store; fail loudly if the
			// wal package's contract ever changes.
			panic(fmt.Sprintf("ctrlsys: create journal: %v", err))
		}
		w.jn = jn
		plan = cfg.Crashes
	}
	w.inj = ras.NewCrashInjector(plan)
	return w
}

// appendRec is the single gate every scheduler state transition passes
// through: consult the crash injector at the record's LSN, then make the
// record durable. A firing injector decides how much of the record
// survives — nothing (pre-append), all of it (post-append: durable but
// never applied in memory), or a torn prefix (mid-checkpoint-commit) —
// logs the death, and returns ErrServiceNodeCrash.
func (s *ServiceNode) appendRec(kind uint8, body []byte, site ras.CrashSite) error {
	w := s.w
	lsn := w.vlsn + 1
	if w.jn != nil {
		lsn = w.jn.NextLSN()
	}
	if class, died := w.inj.At(lsn, site); died {
		// Only a journaled node's injector fires, so w.jn is set.
		switch class {
		case ras.CrashPreAppend:
			// The record never reached the store.
		case ras.CrashMidCkptCommit:
			if err := w.jn.AppendTorn(kind, body); err != nil {
				return err
			}
		default:
			// Post-append flavors: durable, but the incarnation dies
			// before applying it.
			if _, err := w.jn.Append(kind, body); err != nil {
				return err
			}
		}
		w.crash.Crashes++
		w.crash.ByClass[class]++
		return fmt.Errorf("%w at LSN %d (%s)", ErrServiceNodeCrash, lsn, class)
	}
	if w.jn != nil {
		if _, err := w.jn.Append(kind, body); err != nil {
			return err
		}
	} else {
		w.vlsn++
	}
	return nil
}

// drainState is everything replay reconstructs: which transitions are
// durable for which jobs and partitions.
type drainState struct {
	submitted   map[int]Job  // the job each submit record carries
	started     map[int]bool // start record with no completion yet
	completed   map[int]*JobResult
	resume      map[int]*resumePoint
	struck      map[int]map[int]bool // job ID -> attempt index committed
	blacklisted map[int]bool
	allocs      map[int][2]int // real partition ID -> {base, midplanes}
	maxPID      int
	recovering  bool // RecoverBegin seen without a matching RecoverEnd
}

func newDrainState() *drainState {
	return &drainState{
		submitted:   make(map[int]Job),
		started:     make(map[int]bool),
		completed:   make(map[int]*JobResult),
		resume:      make(map[int]*resumePoint),
		struck:      make(map[int]map[int]bool),
		blacklisted: make(map[int]bool),
		allocs:      make(map[int][2]int),
		maxPID:      -1,
	}
}

func (st *drainState) markStruck(job, attempt int) {
	m := st.struck[job]
	if m == nil {
		m = make(map[int]bool)
		st.struck[job] = m
	}
	m[attempt] = true
}

// applyRecord replays one journal record into the state. Replay is
// strict: an undecodable body or unknown kind rejects the journal.
func (st *drainState) applyRecord(r wal.Record) error {
	switch r.Kind {
	case recJobSubmit:
		job, err := unmarshalJob(r.Body)
		if err != nil {
			return err
		}
		st.submitted[job.ID] = job
	case recPartAlloc:
		id, base, mp, err := decodeTriple(r.Body)
		if err != nil {
			return err
		}
		if id >= 0 && base >= 0 {
			st.allocs[id] = [2]int{base, mp}
			if id > st.maxPID {
				st.maxPID = id
			}
		}
	case recPartBoot:
		if _, _, err := decodeBoot(r.Body); err != nil {
			return err
		}
	case recJobStart:
		id, err := decodeID(r.Body)
		if err != nil {
			return err
		}
		st.started[id] = true
	case recCkptCommit:
		id, rp, err := decodeCkptCommit(r.Body)
		if err != nil {
			return err
		}
		st.resume[id] = rp
	case recJobComplete:
		id, res, err := decodeComplete(r.Body)
		if err != nil {
			return err
		}
		st.completed[id] = res
		delete(st.started, id)
		delete(st.resume, id)
	case recPartFree:
		id, err := decodeID(r.Body)
		if err != nil {
			return err
		}
		if id >= 0 {
			delete(st.allocs, id)
		}
	case recOrphanKill:
		id, err := decodeID(r.Body)
		if err != nil {
			return err
		}
		delete(st.started, id)
	case recStrike:
		id, attempt, _, err := decodeTriple(r.Body)
		if err != nil {
			return err
		}
		st.markStruck(id, attempt)
	case recBlacklist:
		mp, err := decodeID(r.Body)
		if err != nil {
			return err
		}
		st.blacklisted[mp] = true
	case recRecoverBegin:
		st.recovering = true
	case recRecoverEnd:
		st.recovering = false
	default:
		return fmt.Errorf("ctrlsys: journal replay: unknown record kind %d at LSN %d", r.Kind, r.LSN)
	}
	return nil
}

// drain is the crash-only drain loop every Drain runs: run passes until
// one completes; on a service-node death, recover from the journal in
// place and keep going. Recovery itself may die (double crash); it is
// simply retried, and the injector's MaxCrashes cap guarantees the loop
// terminates.
func (s *ServiceNode) drain(jobs []Job, workers int) (*DrainResult, error) {
	w := s.w
	start := time.Now()
	for {
		err := s.drainPass(jobs, workers)
		if err == nil {
			res := &DrainResult{Results: make([]*JobResult, len(jobs)), Workers: workers}
			for i, job := range jobs {
				res.Results[i] = w.st.completed[job.ID]
			}
			res.Wall = time.Since(start)
			s.mergeResults(res, jobs)
			s.attachStats(res)
			return res, nil
		}
		if !errors.Is(err, ErrServiceNodeCrash) {
			return nil, err
		}
		for {
			rerr := s.recoverInPlace()
			if rerr == nil {
				break
			}
			if !errors.Is(rerr, ErrServiceNodeCrash) {
				return nil, rerr
			}
			// Double crash: recovery died writing its own reconciliation
			// records. Come back again — replay is idempotent.
		}
	}
}

func (s *ServiceNode) attachStats(res *DrainResult) {
	w := s.w
	res.Crash = w.crash
	if w.jn != nil {
		res.Journal = JournalStats{
			Records:     w.jn.Records(),
			Bytes:       w.jn.Bytes(),
			Segments:    w.jn.Segments(),
			TornDropped: w.torn,
		}
	}
}

// drainPass is one service-node incarnation's attempt to finish the
// drain. Simulation fans out on the worker pool as ever; durability is a
// strictly serial commit pipeline in job-ID order, so the journal's LSN
// stream — and with it the crash schedule — is identical at every worker
// count.
func (s *ServiceNode) drainPass(jobs []Job, workers int) error {
	st := s.w.st
	for _, job := range jobs {
		if _, ok := st.submitted[job.ID]; ok {
			continue
		}
		if err := s.appendRec(recJobSubmit, marshalJob(job), ras.SiteAppend); err != nil {
			return err
		}
		st.submitted[job.ID] = job
	}
	var pend []Job
	for _, job := range jobs {
		if st.completed[job.ID] == nil {
			pend = append(pend, job)
		}
	}
	if len(pend) == 0 {
		return nil
	}

	type simOut struct {
		res     *JobResult
		commits [][]byte
	}
	outs := replica.Map(workers, len(pend), func(i int) *simOut {
		job := pend[i]
		if s.cfg.Ckpt.Enabled {
			o := &simOut{}
			o.res = s.runJobResilientFrom(job, st.resume[job.ID], func(b []byte) {
				o.commits = append(o.commits, b)
			})
			return o
		}
		return &simOut{res: s.runJob(job)}
	})

	for i, job := range pend {
		o := outs[i]
		vid := -1 - job.ID // drain partitions are virtual: negative ID, base -1
		if err := s.appendRec(recPartAlloc, tripleBody(vid, -1, job.Midplanes), ras.SiteAppend); err != nil {
			return err
		}
		if err := s.appendRec(recPartBoot, bootBody(vid, s.jobSeed(job)), ras.SiteBoot); err != nil {
			return err
		}
		if err := s.appendRec(recJobStart, idBody(job.ID), ras.SiteAppend); err != nil {
			return err
		}
		st.started[job.ID] = true
		for _, body := range o.commits {
			if err := s.appendRec(recCkptCommit, ckptCommitRaw(job.ID, body), ras.SiteCkptCommit); err != nil {
				return err
			}
		}
		for idx, a := range o.res.Attempts {
			if a.Completed || a.FaultMidplane < 0 || st.struck[job.ID][idx] {
				continue
			}
			if err := s.appendRec(recStrike, tripleBody(job.ID, idx, a.FaultMidplane), ras.SiteAppend); err != nil {
				return err
			}
			st.markStruck(job.ID, idx)
			if !st.blacklisted[a.FaultMidplane] {
				if err := s.appendRec(recBlacklist, idBody(a.FaultMidplane), ras.SiteAppend); err != nil {
					return err
				}
				st.blacklisted[a.FaultMidplane] = true
			}
		}
		if err := s.appendRec(recJobComplete, completeBody(job.ID, o.res), ras.SiteAppend); err != nil {
			return err
		}
		st.completed[job.ID] = o.res
		delete(st.started, job.ID)
		delete(st.resume, job.ID)
		if err := s.appendRec(recPartFree, idBody(vid), ras.SiteAppend); err != nil {
			return err
		}
	}
	return nil
}

// recoverInPlace is one recovery incarnation: reopen the journal (which
// repairs any torn tail), replay every record into a fresh state, then
// reconcile — kill orphaned jobs, bracketed in RecoverBegin/End records.
// Reconciliation appends pass through the crash injector too
// (SiteRecovery), so recovery itself can die; every step is idempotent
// under replay, so the retry simply picks up where the corpse left off.
func (s *ServiceNode) recoverInPlace() error {
	w := s.w
	jn, recs, err := wal.Open(w.store, journalDir, s.cfg.Journal.SegmentBytes)
	if err != nil {
		return err
	}
	w.jn = jn
	w.torn += jn.Torn()
	st := newDrainState()
	for _, r := range recs {
		if err := st.applyRecord(r); err != nil {
			return err
		}
	}
	w.st = st
	w.crash.Recoveries++
	w.crash.RecordsReplayed += len(recs)

	// Rebuild the midplane map from the durable allocations.
	for i := range s.owner {
		s.owner[i] = -1
	}
	s.nextPID = st.maxPID + 1
	for id, ab := range st.allocs {
		for i := ab[0]; i < ab[0]+ab[1] && i < len(s.owner); i++ {
			s.owner[i] = id
		}
	}

	if err := s.appendRec(recRecoverBegin, nil, ras.SiteRecovery); err != nil {
		return err
	}

	// Kill orphaned jobs: a start record with no completion. The job
	// itself is requeued — with its journaled resume point if one
	// committed, from scratch otherwise.
	var orphans []int
	for id := range st.started {
		orphans = append(orphans, id)
	}
	sort.Ints(orphans)
	for _, id := range orphans {
		if err := s.appendRec(recOrphanKill, idBody(id), ras.SiteRecovery); err != nil {
			return err
		}
		delete(st.started, id)
		w.crash.OrphansKilled++
		if st.resume[id] != nil {
			w.crash.Resumed++
		} else {
			w.crash.Requeued++
		}
	}
	if err := s.appendRec(recRecoverEnd, nil, ras.SiteRecovery); err != nil {
		return err
	}

	w.crash.RecoveryLatency += recoverBaseCost + recoverPerRecord*sim.Cycles(len(recs)) +
		recoverPerOrphan*sim.Cycles(len(orphans))
	return nil
}
