package upc

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestSetIncAddSnapshotDelta(t *testing.T) {
	var s Set
	s.Inc(0, TLBMiss)
	s.Inc(0, TLBMiss)
	s.Add(2, L1Hit, 10)
	s.Inc(ChipScope, L3Miss)
	s.Syscall(1, 3)
	s.Syscall(1, 3)
	s.Syscall(1, 7)

	snap := s.Snapshot()
	if got := snap.Core(0, TLBMiss); got != 2 {
		t.Fatalf("core0 tlb_miss = %d, want 2", got)
	}
	if got := snap.Core(2, L1Hit); got != 10 {
		t.Fatalf("core2 l1_hit = %d, want 10", got)
	}
	if got := snap.Chip(L3Miss); got != 1 {
		t.Fatalf("chip l3_miss = %d, want 1", got)
	}
	if got := snap.Total(SyscallTotal); got != 3 {
		t.Fatalf("syscall total = %d, want 3", got)
	}
	if got := snap.SyscallCount(3); got != 2 {
		t.Fatalf("syscall #3 = %d, want 2", got)
	}

	// Delta over a bracketed region attributes exactly the inner counts.
	before := s.Snapshot()
	s.Add(1, TimerTick, 5)
	d := Delta(before, s.Snapshot())
	if got := d.Total(TimerTick); got != 5 {
		t.Fatalf("delta timer_tick = %d, want 5", got)
	}
	if got := d.Total(TLBMiss); got != 0 {
		t.Fatalf("delta tlb_miss = %d, want 0", got)
	}

	// Snapshots are comparable values.
	if s.Snapshot() != s.Snapshot() {
		t.Fatal("identical snapshots must compare equal")
	}
	s.Reset()
	if !s.Snapshot().IsZero() {
		t.Fatal("reset set must snapshot to zero")
	}
}

func TestSlotClamping(t *testing.T) {
	var s Set
	s.Inc(-1, DDRRead)
	s.Inc(99, DDRRead) // out of range clamps to the chip slot
	if got := s.Snapshot().Chip(DDRRead); got != 2 {
		t.Fatalf("chip ddr_read = %d, want 2", got)
	}
}

func TestMerge(t *testing.T) {
	var a, b Set
	a.Inc(0, Interrupt)
	b.Add(0, Interrupt, 3)
	b.Syscall(2, 5)
	m := Merge(a.Snapshot(), b.Snapshot())
	if got := m.Core(0, Interrupt); got != 4 {
		t.Fatalf("merged interrupt = %d, want 4", got)
	}
	if got := m.SyscallCount(5); got != 1 {
		t.Fatalf("merged syscall #5 = %d, want 1", got)
	}
	var sum Snapshot
	a.AddTo(&sum)
	b.AddTo(&sum)
	if sum != m {
		t.Fatal("AddTo of both sets differs from Merge of their snapshots")
	}
}

func TestTextAndJSONRendering(t *testing.T) {
	var s Set
	s.Add(0, TimerTick, 42)
	s.Inc(ChipScope, FunctionShip)
	s.Syscall(0, 1)
	snap := s.Snapshot()

	txt := snap.Text()
	if !strings.Contains(txt, "timer_tick") || !strings.Contains(txt, "42") {
		t.Fatalf("text rendering missing counters:\n%s", txt)
	}
	js := snap.JSON()
	if !json.Valid([]byte(js)) {
		t.Fatalf("JSON rendering is not valid JSON: %s", js)
	}
	if !strings.Contains(js, `"timer_tick"`) || !strings.Contains(js, `"function_ship"`) {
		t.Fatalf("JSON rendering missing counters: %s", js)
	}
	// Deterministic rendering: equal snapshots render byte-identically.
	if snap.JSON() != snap.JSON() || snap.Text() != snap.Text() {
		t.Fatal("rendering must be deterministic")
	}
}

// TestNilReceivers: a nil Set is a counter block nothing counts into;
// every method can be called on it and every read is zero.
func TestNilReceivers(t *testing.T) {
	var s *Set
	s.Inc(0, TLBHit)
	s.Add(ChipScope, TorusBytes, 64)
	s.Syscall(1, 3)
	s.Load(Snapshot{Vals: [NumSlots][NumCounters]uint64{{1}}})
	s.Reset()
	var sum Snapshot
	s.AddTo(&sum)
	if s.Get(0, TLBHit) != 0 || s.Get(ChipScope, TorusBytes) != 0 || !s.Snapshot().IsZero() || !sum.IsZero() {
		t.Fatal("nil set counted")
	}
}
