package ctrlsys

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"bgcnk/internal/ckpt"
	"bgcnk/internal/machine"
	"bgcnk/internal/ras"
)

// The crash-only battery. The contract under test: a service node that
// dies at ANY journal append point — before the record, after it, mid
// partition boot, tearing a checkpoint-commit record in half, or while
// its own recovery is writing reconciliation records — must come back,
// replay its journal, reconcile, and finish the drain with final job
// accounting, exit codes, work signatures and RAS streams bit-identical
// to a drain on a node that never crashed. Serial and parallel alike.

func crashBaseline(t *testing.T, kind machine.KernelKind, faultSeed uint64) *DrainResult {
	t.Helper()
	return drainResilient(t, kind, resilientPlan(kind, faultSeed), 2)
}

func crashConfig(kind machine.KernelKind, workers int, faultSeed uint64, plan *ras.CrashPlan) Config {
	return Config{
		Topology: resilienceTopo(), Kind: kind, Seed: 42, Workers: workers,
		Faults:  resilientPlan(kind, faultSeed),
		Ckpt:    CkptConfig{Enabled: true, Interval: 1},
		Journal: JournalConfig{Enabled: true, SegmentBytes: 2048},
		Crashes: plan,
	}
}

func drainCrashy(t *testing.T, cfg Config) *DrainResult {
	t.Helper()
	s := New(cfg)
	res, err := s.Drain(resilienceJobs())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertDrainEqual checks the crash-matrix identity: everything
// deterministic about the drain matches the crash-free baseline.
func assertDrainEqual(t *testing.T, got, want *DrainResult, label string) {
	t.Helper()
	if got.Signature() != want.Signature() {
		t.Errorf("%s: drain signature %016x, crash-free %016x", label, got.Signature(), want.Signature())
	}
	if got.Failures != want.Failures || got.RASHash != want.RASHash || got.RASEvents != want.RASEvents {
		t.Errorf("%s: failures/RAS (%d,%016x,%d) vs crash-free (%d,%016x,%d)", label,
			got.Failures, got.RASHash, got.RASEvents, want.Failures, want.RASHash, want.RASEvents)
	}
	for i, r := range got.Results {
		w := want.Results[i]
		if fmt.Sprint(r.ExitCodes) != fmt.Sprint(w.ExitCodes) {
			t.Errorf("%s: job %d exit codes %v, crash-free %v", label, i, r.ExitCodes, w.ExitCodes)
		}
		if ckpt.WorkSignature(r.Counters) != ckpt.WorkSignature(w.Counters) {
			t.Errorf("%s: job %d work signature diverged", label, i)
		}
		if r.RASHash != w.RASHash {
			t.Errorf("%s: job %d RAS hash %016x, crash-free %016x", label, i, r.RASHash, w.RASHash)
		}
	}
}

// crashClassPlans restricts the injector to one class per matrix cell.
// CrashDuringRecovery can only fire once a recovery is underway, so its
// cell admits pre-append crashes to bootstrap the first death.
func crashClassPlans() map[ras.CrashClass][]ras.CrashClass {
	return map[ras.CrashClass][]ras.CrashClass{
		ras.CrashPreAppend:      {ras.CrashPreAppend},
		ras.CrashPostAppend:     {ras.CrashPostAppend},
		ras.CrashMidBoot:        {ras.CrashMidBoot},
		ras.CrashMidCkptCommit:  {ras.CrashMidCkptCommit},
		ras.CrashDuringRecovery: {ras.CrashPreAppend, ras.CrashDuringRecovery},
	}
}

// TestCrashMatrixDeterminism drains the seeded job stream under every
// crash class, three crash seeds, both kernels, at 1/2/8 workers, and
// requires bit-identity with the crash-free drain every time — plus
// identical crash/journal accounting across worker counts (the commit
// pipeline is serial, so the LSN stream and with it the crash schedule
// must not depend on parallelism). Run under -race in CI.
func TestCrashMatrixDeterminism(t *testing.T) {
	const faultSeed = 0xd00d
	for _, kind := range []machine.KernelKind{machine.KindCNK, machine.KindFWK} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			base := crashBaseline(t, kind, faultSeed)
			for class, allowed := range crashClassPlans() {
				fired := 0
				for _, seed := range []uint64{0xbad0, 0xbad1, 0xbad2} {
					var ref *DrainResult
					for _, workers := range []int{1, 2, 8} {
						label := fmt.Sprintf("%v/%s/seed%x/w%d", kind, class, seed, workers)
						plan := &ras.CrashPlan{Seed: seed, Rate: 0.25, MaxCrashes: 2, Classes: allowed}
						res := drainCrashy(t, crashConfig(kind, workers, faultSeed, plan))
						assertDrainEqual(t, res, base, label)
						fired += res.Crash.ByClass[class]
						if res.Crash.Crashes > 0 && res.Crash.Recoveries == 0 {
							t.Errorf("%s: %d crashes but no recovery", label, res.Crash.Crashes)
						}
						if res.CrashAborted != 0 {
							t.Errorf("%s: journaled drain aborted %d jobs", label, res.CrashAborted)
						}
						if workers == 1 {
							ref = res
							continue
						}
						if res.Crash != ref.Crash {
							t.Errorf("%s: crash stats %+v differ from serial %+v", label, res.Crash, ref.Crash)
						}
						if res.Journal != ref.Journal {
							t.Errorf("%s: journal stats %+v differ from serial %+v", label, res.Journal, ref.Journal)
						}
					}
				}
				if fired == 0 {
					t.Errorf("%v/%s: class never fired across seeds; the cell is vacuous — retune the plan",
						kind, class)
				}
			}
		})
	}
}

// TestDoubleCrashDuringRecovery forces a high crash rate with recovery
// itself a target: the service node dies, starts reconciling, dies again
// mid-reconciliation, and recovers from its own half-written recovery
// records. Replay idempotence is what is under test; the drain must still
// land bit-identical to crash-free.
func TestDoubleCrashDuringRecovery(t *testing.T) {
	const faultSeed = 0xd00d
	for _, kind := range []machine.KernelKind{machine.KindCNK, machine.KindFWK} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			base := crashBaseline(t, kind, faultSeed)
			plan := &ras.CrashPlan{
				Seed: 0x0ddba11, Rate: 0.6, MaxCrashes: 6,
				Classes: []ras.CrashClass{ras.CrashPreAppend, ras.CrashDuringRecovery},
			}
			res := drainCrashy(t, crashConfig(kind, 2, faultSeed, plan))
			assertDrainEqual(t, res, base, "double-crash")
			if res.Crash.ByClass[ras.CrashDuringRecovery] < 1 {
				t.Errorf("no crash fired during recovery (stats %+v); the test is vacuous — retune", res.Crash)
			}
			if res.Crash.Recoveries <= res.Crash.ByClass[ras.CrashDuringRecovery] {
				t.Errorf("recoveries %d should exceed recovery-crashes %d",
					res.Crash.Recoveries, res.Crash.ByClass[ras.CrashDuringRecovery])
			}
		})
	}
}

// TestJournaledDrainMatchesPinned pins the zero-crash overhead property:
// journaling on (crashes off) changes what is durable, never what is
// computed — the journaled drain and the journal-off drain both carry
// the pinned crash-free signature, and the journal holds a record for
// every transition.
func TestJournaledDrainMatchesPinned(t *testing.T) {
	for _, tc := range []struct {
		kind machine.KernelKind
		want uint64
	}{
		{machine.KindCNK, 0xe42ee6a737469435},
		{machine.KindFWK, 0x687ba33f7ecc4783},
	} {
		journaled := drainCrashy(t, crashConfig(tc.kind, 2, 0xd00d, nil))
		if got := journaled.Signature(); got != tc.want {
			t.Errorf("%v: journaled drain signature %016x, pinned %016x", tc.kind, got, tc.want)
		}
		if got := drainResilient(t, tc.kind, resilientPlan(tc.kind, 0xd00d), 2).Signature(); got != tc.want {
			t.Errorf("%v: journal-off drain signature %016x, pinned %016x", tc.kind, got, tc.want)
		}
		if journaled.Journal.Records == 0 || journaled.Journal.Bytes == 0 {
			t.Errorf("%v: journaled drain recorded nothing: %+v", tc.kind, journaled.Journal)
		}
		if journaled.Crash.Crashes != 0 {
			t.Errorf("%v: crashes with a nil plan: %+v", tc.kind, journaled.Crash)
		}
	}
}

// TestFaultFreeCkptDrainMatchesPinned pins the checkpointed drain on a
// perfect machine (no fault plan), journal on and off, on both kernels:
// every attempt folds its RAS hash into the job's even when the machine
// has no RAS log, so the signature is a fixed literal generated before
// the RAS handles became nil-safe.
func TestFaultFreeCkptDrainMatchesPinned(t *testing.T) {
	for _, tc := range []struct {
		kind    machine.KernelKind
		journal bool
		want    uint64
	}{
		{machine.KindCNK, false, 0x59a11b035b56813a},
		{machine.KindCNK, true, 0x59a11b035b56813a},
		{machine.KindFWK, false, 0x214d7f5847aa879d},
		{machine.KindFWK, true, 0x214d7f5847aa879d},
	} {
		cfg := crashConfig(tc.kind, 2, 0, nil)
		cfg.Faults = nil
		cfg.Journal.Enabled = tc.journal
		res := drainCrashy(t, cfg)
		if got := res.Signature(); got != tc.want {
			t.Errorf("%v journal=%v: fault-free checkpointed drain signature %016x, pinned %016x",
				tc.kind, tc.journal, got, tc.want)
		}
		for _, r := range res.Results {
			if r.RASEvents != 0 || r.Restarts != 0 || len(r.Attempts) != 1 || !r.Attempts[0].Completed {
				t.Errorf("%v journal=%v: job %d on a perfect machine: %d RAS events, %d restarts, attempts %+v",
					tc.kind, tc.journal, r.Job.ID, r.RASEvents, r.Restarts, r.Attempts)
			}
		}
	}
}

// TestRecoverReplaysCompletedDrain is the codec's end-to-end proof: a
// successor node built over the dead node's store must reconstruct every
// committed JobResult purely from journal replay — re-draining the same
// queue simulates nothing and must produce the identical signature.
func TestRecoverReplaysCompletedDrain(t *testing.T) {
	cfg := crashConfig(machine.KindCNK, 2, 0xd00d, nil)
	s := New(cfg)
	jobs := resilienceJobs()
	res1, err := s.Drain(jobs)
	if err != nil {
		t.Fatal(err)
	}
	s2, rep, err := Recover(cfg, s.Store(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(jobs) || rep.OrphansKilled != 0 || rep.Pending != 0 {
		t.Fatalf("recovery report %+v; want %d completed, no orphans", rep, len(jobs))
	}
	res2, err := s2.Drain(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Signature() != res1.Signature() {
		t.Errorf("replayed drain signature %016x, original %016x", res2.Signature(), res1.Signature())
	}
	if res2.Crash.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", res2.Crash.Recoveries)
	}
}

// TestRedrainRejectsChangedQueue: a node keeps the submit record of every
// job it accepted, so a second Drain of a different queue must fail,
// naming the first job that differs and appending nothing, instead of
// handing back the first queue's results. Journal on and off alike; the
// node still drains its own queue again, a fresh node drains the second
// one, and a node recovered from the journal rejects it too.
func TestRedrainRejectsChangedQueue(t *testing.T) {
	first, second := GenerateJobs(1, 4, 2), GenerateJobs(2, 4, 2)
	for _, journal := range []bool{true, false} {
		cfg := Config{
			Topology: Topology{Racks: 1, MidplanesPerRack: 2, NodesPerMidplane: 2},
			Kind:     machine.KindCNK, Seed: 3,
			Journal: JournalConfig{Enabled: journal},
		}
		s := New(cfg)
		orig, err := s.Drain(first)
		if err != nil {
			t.Fatal(err)
		}
		nextLSN := func() uint64 {
			if s.w.jn != nil {
				return s.w.jn.NextLSN()
			}
			return s.w.vlsn + 1
		}
		lsn := nextLSN()
		res, err := s.Drain(second)
		if err == nil {
			t.Errorf("journal=%v: a different queue drained to %016x", journal, res.Signature())
		} else if !strings.Contains(err.Error(), "job 0 (job000)") {
			t.Errorf("journal=%v: error %q does not name job 0", journal, err)
		}
		if after := nextLSN(); after != lsn {
			t.Errorf("journal=%v: rejected queue moved the next LSN from %d to %d", journal, lsn, after)
		}
		again, err := s.Drain(first)
		if err != nil {
			t.Fatal(err)
		}
		if again.Signature() != orig.Signature() {
			t.Errorf("journal=%v: re-drain of the same queue %016x, first drain %016x",
				journal, again.Signature(), orig.Signature())
		}
		fresh, err := New(cfg).Drain(second)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fresh.Signature(), uint64(0x94410db5dad9f9f1); got != want {
			t.Errorf("journal=%v: fresh drain of the second queue %016x, pinned %016x", journal, got, want)
		}
		if !journal {
			continue
		}
		// A successor rebuilds the submit records from the journal.
		s2, _, err := Recover(cfg, s.Store(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s2.Drain(second); err == nil {
			t.Error("recovered node drained a queue its journal never accepted")
		}
	}
}

// TestRecoverKillsOrphansAndScansLive drives the reconciliation protocol
// by hand: a journal holding a started-but-unfinished job, plus a live
// booted partition the dead node left behind. Recovery must kill the
// orphan (requeueing the job), scan and destroy the live partition, free
// its midplanes, and leave the successor able to finish the queue.
func TestRecoverKillsOrphansAndScansLive(t *testing.T) {
	cfg := Config{
		Topology: resilienceTopo(), Kind: machine.KindCNK, Seed: 42,
		Journal: JournalConfig{Enabled: true},
	}
	s := New(cfg)
	jobs := resilienceJobs()[:2]
	for _, job := range jobs {
		if err := s.appendRec(recJobSubmit, marshalJob(job), ras.SiteAppend); err != nil {
			t.Fatal(err)
		}
	}
	// Job 1 started but never completed: the orphan.
	if err := s.appendRec(recJobStart, idBody(1), ras.SiteAppend); err != nil {
		t.Fatal(err)
	}
	// A real partition, allocated and booted through the journaled paths,
	// still live at crash time.
	p, err := s.Allocate(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BootPartition(p, 0x1234); err != nil {
		t.Fatal(err)
	}
	if p.M == nil {
		t.Fatal("partition has no machine")
	}
	scan := p.M.Scan()
	if scan.Nodes != p.Nodes || scan.JobsLaunched != 0 {
		t.Fatalf("pre-crash scan %+v; want %d idle nodes", scan, p.Nodes)
	}

	s2, rep, err := Recover(cfg, s.Store(), []*Partition{p})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OrphansKilled != 1 || rep.Requeued != 1 || rep.Resumed != 0 {
		t.Errorf("orphan accounting %+v; want 1 killed, 1 requeued", rep)
	}
	if rep.LiveScanned != 1 || rep.LiveDestroyed != 1 {
		t.Errorf("live accounting %+v; want 1 scanned, 1 destroyed", rep)
	}
	if p.M != nil {
		t.Error("live partition's machine survived reconciliation")
	}
	if free, want := s2.FreeMidplanes(), s2.Topology().Midplanes(); free != want {
		t.Errorf("free midplanes after recovery = %d, want %d", free, want)
	}
	res, err := s2.Drain(jobs)
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(Config{Topology: resilienceTopo(), Kind: machine.KindCNK, Seed: 42})
	want, err := fresh.Drain(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Signature() != want.Signature() {
		t.Errorf("post-recovery drain signature %016x, fresh %016x", res.Signature(), want.Signature())
	}
}

// TestServiceNodeCrashTyped covers the journal-off contract: a crash
// aborts the drain, committed jobs keep their results, and the wreckage
// is typed — crash-aborted jobs surface ErrServiceNodeCrash in Errs
// (distinguishable from ErrRestartBudgetExhausted, which a job that
// burned its whole restart budget before the crash still reports) and
// are counted in CrashAborted, not Failures.
func TestServiceNodeCrashTyped(t *testing.T) {
	cfg := Config{
		Topology: resilienceTopo(), Kind: machine.KindCNK, Seed: 42, Workers: 2,
		// A fault plan hot enough that job(s) exhaust the restart budget.
		Faults:  &ras.Plan{Seed: 0xdead, DDRUncorrectable: 5e-2, DDRCorrectable: 0.05},
		Ckpt:    CkptConfig{Enabled: true, Interval: 1},
		Crashes: &ras.CrashPlan{Seed: 0x5e7d, Rate: 0.02, MaxCrashes: 1},
	}
	s := New(cfg)
	res, err := s.Drain(resilienceJobs())
	if err != nil {
		t.Fatal(err)
	}
	if res.CrashAborted == 0 {
		t.Fatalf("no job crash-aborted (crash stats %+v); retune the crash seed", res.Crash)
	}
	if res.CrashAborted == len(res.Results) {
		t.Fatalf("every job aborted; the committed-results path is untested — retune the crash seed")
	}
	var crashErrs, budgetErrs int
	for _, e := range res.Errs {
		if errors.Is(e, ErrServiceNodeCrash) {
			crashErrs++
		}
		if errors.Is(e, ErrRestartBudgetExhausted) {
			budgetErrs++
		}
	}
	if crashErrs != res.CrashAborted {
		t.Errorf("%d ErrServiceNodeCrash entries for %d aborted jobs", crashErrs, res.CrashAborted)
	}
	if budgetErrs == 0 {
		t.Error("no ErrRestartBudgetExhausted entry survived the crash; the interaction is untested — retune")
	}
	for _, r := range res.Results {
		if r.CrashAborted && r.BudgetExhausted {
			t.Errorf("job %d is both crash-aborted and budget-exhausted", r.Job.ID)
		}
	}
	// Failures must count real job failures only, never the aborted ones.
	if res.Failures+res.CrashAborted > len(res.Results) {
		t.Errorf("failures %d + aborted %d exceed %d jobs", res.Failures, res.CrashAborted, len(res.Results))
	}
}
