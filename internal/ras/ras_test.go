package ras

import (
	"strings"
	"testing"

	"bgcnk/internal/sim"
)

// drawAll exercises every site on two nodes and returns the log hash.
func drawAll(seed uint64) uint64 {
	eng := sim.NewEngine()
	l := NewLog()
	in := NewInjector(eng, l, Plan{
		Seed: seed, DDRCorrectable: 0.2, DDRUncorrectable: 0.05,
		TLBParity: 0.1, LinkCRC: 0.3, CIODDrop: 0.4, CIODCrashEvery: 3,
	})
	for _, n := range []int{0, 1, -1} {
		f := in.Node(n)
		for i := 0; i < 50; i++ {
			f.DDRAccess()
			f.TLBParity()
			f.LinkRetransmits("torus")
			f.ReplyDrop()
			f.CrashDue()
		}
	}
	return l.Hash()
}

func TestScheduleDeterministic(t *testing.T) {
	if drawAll(7) != drawAll(7) {
		t.Fatal("same seed must give identical fault schedules")
	}
	if drawAll(7) == drawAll(8) {
		t.Fatal("different seeds should diverge")
	}
}

func TestStreamsIndependentOfCreationOrder(t *testing.T) {
	eng := sim.NewEngine()
	plan := Plan{Seed: 3, LinkCRC: 0.5}
	a := NewInjector(eng, NewLog(), plan)
	b := NewInjector(eng, NewLog(), plan)
	a.Node(0)
	a.Node(5)
	b.Node(5) // reversed creation order
	b.Node(0)
	for i := 0; i < 20; i++ {
		if a.Node(5).LinkRetransmits("x") != b.Node(5).LinkRetransmits("x") {
			t.Fatal("stream depends on Node() creation order")
		}
	}
}

func TestResetRewindsSchedule(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(eng, NewLog(), Plan{Seed: 11, DDRUncorrectable: 0.3, CIODCrashEvery: 2})
	f := in.Node(0)
	var first []bool
	for i := 0; i < 30; i++ {
		u, _ := f.DDRAccess()
		first = append(first, u, f.CrashDue())
	}
	in.Reset()
	for i := 0; i < 30; i++ {
		u, _ := f.DDRAccess()
		if u != first[2*i] {
			t.Fatalf("draw %d not replayed after Reset", i)
		}
		if f.CrashDue() != first[2*i+1] {
			t.Fatalf("crash countdown %d not rewound after Reset", i)
		}
	}
}

func TestLogTableAndCounts(t *testing.T) {
	l := NewLog()
	if got := l.Table(); got != "no RAS events\n" {
		t.Fatalf("empty table: %q", got)
	}
	l.Append(Event{Node: 0, Comp: "ddr", Class: CorrectableECC})
	l.Append(Event{Node: 0, Comp: "ddr", Class: CorrectableECC})
	l.Append(Event{Node: 1, Comp: "cnk", Class: JobKill, Detail: "x"})
	if l.Count(CorrectableECC) != 2 || l.Count(JobKill) != 1 || l.Total() != 3 {
		t.Fatalf("counts: %d %d %d", l.Count(CorrectableECC), l.Count(JobKill), l.Total())
	}
	tab := l.Table()
	if !strings.Contains(tab, "correctable_ecc") || !strings.Contains(tab, "job_kill") {
		t.Fatalf("table: %q", tab)
	}
	if strings.Contains(tab, "link_crc") {
		t.Fatal("zero classes must not render")
	}
}

func TestAttachTraceMirrorsEvents(t *testing.T) {
	tr := sim.NewTrace()
	before := tr.Hash()
	l := NewLog()
	l.AttachTrace(tr)
	l.Append(Event{Node: 2, Comp: "torus", Class: LinkCRC})
	if tr.Hash() == before {
		t.Fatal("RAS events must feed the reproducibility trace hash")
	}
}

func TestPlanEnabled(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Enabled() || (&Plan{Seed: 9}).Enabled() {
		t.Fatal("empty plans must be disabled")
	}
	if !(&Plan{CIODCrashEvery: 1}).Enabled() || !(&Plan{LinkCRC: 0.1}).Enabled() {
		t.Fatal("non-empty plans must be enabled")
	}
	if !DefaultPlan(1).Enabled() {
		t.Fatal("DefaultPlan must inject")
	}
}

// TestNilReceivers: a nil injector, node fault source and log are the
// perfect machine's. Every method can be called on them: nothing is
// drawn, reported or recorded, every read is zero, and FoldSince hands
// back the hash it was given, while a real log folds its region in.
func TestNilReceivers(t *testing.T) {
	var in *Injector
	in.Reset()
	if f := in.Node(3); f != nil {
		t.Fatalf("nil injector built a fault source %p", f)
	}

	var f *NodeFaults
	f.Report(JobKill, "cnk", "nothing to record")
	if unc, corr := f.DDRAccess(); unc || corr {
		t.Fatalf("nil source drew a DDR fault: %v %v", unc, corr)
	}
	if f.TLBParity() || f.LinkRetransmits("torus") != 0 || f.ReplyDrop() ||
		f.CrashDue() || f.IONCrashDue() || f.FWKPanicDue() || f.RestartDelay() != 0 {
		t.Fatal("nil source drew a fault or has a restart delay")
	}

	var l *Log
	tr := sim.NewTrace()
	before := tr.Hash()
	l.AttachTrace(tr)
	l.Append(Event{Node: 1, Comp: "cnk", Class: JobKill})
	m := l.Mark()
	if m != 0 || l.Count(JobKill) != 0 || l.CountSince(m) != 0 || l.HashSince(m, 5) != 0 ||
		l.Total() != 0 || l.Hash() != 0 || l.Events() != nil || tr.Hash() != before {
		t.Fatal("nil log recorded or read back an event")
	}
	if got := l.Table(); got != "no RAS events\n" {
		t.Fatalf("nil log table %q", got)
	}
	h := uint64(0xcbf29ce484222325)
	if got := l.FoldSince(h, m, 5); got != h {
		t.Fatalf("nil log folded %016x into %016x", h, got)
	}

	real := NewLog()
	mark := real.Mark()
	real.Append(Event{At: 7, Node: 1, Comp: "cnk", Class: JobKill})
	if got, want := real.FoldSince(h, mark, 5), h*1099511628211^real.HashSince(mark, 5); got != want {
		t.Fatalf("FoldSince %016x, want %016x", got, want)
	}
}
