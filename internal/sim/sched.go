package sim

import (
	"container/heap"
	"math/bits"
)

// SchedulerKind selects the Engine's pending-event queue implementation.
type SchedulerKind int

const (
	// SchedWheel is the hierarchical timer wheel: O(1) scheduling and
	// same-cycle dispatch. It is the default fast path.
	SchedWheel SchedulerKind = iota
	// SchedHeap is the original binary-heap scheduler, kept as the simple
	// reference implementation the wheel is differentially tested against
	// (see differential_test.go and scripts/ci.sh).
	SchedHeap
)

func (k SchedulerKind) String() string {
	if k == SchedHeap {
		return "heap"
	}
	return "wheel"
}

// scheduler is the engine's pending-event queue. Implementations must pop
// events in strictly nondecreasing (at, seq) order — the FIFO-within-a-
// cycle ordering contract every simulation above relies on. The engine
// guarantees pushes never schedule before the last popped time.
type scheduler interface {
	push(*event)
	// pop removes and returns the earliest pending event (nil when empty).
	pop() *event
	// peek reports the earliest pending time without disturbing order.
	peek() (Cycles, bool)
	len() int
	reset()
}

// ---------------------------------------------------------------------------
// Reference scheduler: binary heap ordered by (at, seq).

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

type heapSched struct{ h eventHeap }

func (s *heapSched) push(ev *event) { heap.Push(&s.h, ev) }

func (s *heapSched) pop() *event {
	if len(s.h) == 0 {
		return nil
	}
	return heap.Pop(&s.h).(*event)
}

func (s *heapSched) peek() (Cycles, bool) {
	if len(s.h) == 0 {
		return 0, false
	}
	return s.h[0].at, true
}

func (s *heapSched) len() int { return len(s.h) }
func (s *heapSched) reset()   { s.h = nil }

// ---------------------------------------------------------------------------
// Fast scheduler: hierarchical timer wheel.
//
// Four levels of 256 slots give a 2^32-cycle (~5 simulated seconds)
// lookahead horizon; events beyond it wait in a small overflow heap. An
// event lives at the level of the most significant base-256 digit in
// which its time differs from the wheel's current time, in the slot named
// by its own digit there. Scheduling is O(1); popping scans a 256-bit
// occupancy bitmap per level and cascades one higher-level slot down when
// the current 256-cycle window drains.
//
// Ordering argument (the part the differential harness proves): within
// one level-0 slot all events share the exact same cycle, and every path
// that adds to a bucket — direct push, or a cascade from the level above —
// appends in nondecreasing seq order, because cascades happen exactly
// when the wheel enters a window (before any same-time push can target
// level 0) and a slot's list preserves insertion order. Overflow events
// at a given cycle were necessarily scheduled earlier (when that cycle
// was still beyond the horizon) than any wheel-resident event at the same
// cycle, so draining overflow first at time ties preserves seq order too.

const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	wheelWords  = wheelSlots / 64
)

type wheelSched struct {
	cur     Cycles // wheel time; only pop moves it, at most to the engine's now
	inWheel int    // events resident in the levels (excludes overflow)
	slots   [wheelLevels][wheelSlots][]*event
	occ     [wheelLevels][wheelWords]uint64
	head0   [wheelSlots]int32 // consumed prefix of each level-0 bucket
	over    eventHeap         // beyond-horizon events, ordered (at, seq)
}

func newWheelSched() *wheelSched { return &wheelSched{} }

func (w *wheelSched) len() int { return w.inWheel + len(w.over) }

func (w *wheelSched) reset() { *w = wheelSched{} }

func (w *wheelSched) push(ev *event) {
	d := ev.at ^ w.cur
	if d>>(wheelBits*wheelLevels) != 0 {
		heap.Push(&w.over, ev)
		return
	}
	lvl := 0
	for d >= wheelSlots {
		d >>= wheelBits
		lvl++
	}
	slot := int(ev.at>>(wheelBits*lvl)) & wheelMask
	w.slots[lvl][slot] = append(w.slots[lvl][slot], ev)
	w.occ[lvl][slot>>6] |= 1 << (slot & 63)
	w.inWheel++
}

// firstOcc returns the first occupied slot index >= from at level l.
func (w *wheelSched) firstOcc(l, from int) (int, bool) {
	if from >= wheelSlots {
		return 0, false
	}
	word := from >> 6
	bs := w.occ[l][word] >> (from & 63) << (from & 63)
	for {
		if bs != 0 {
			return word<<6 + bits.TrailingZeros64(bs), true
		}
		word++
		if word >= wheelWords {
			return 0, false
		}
		bs = w.occ[l][word]
	}
}

func (w *wheelSched) pop() *event {
	// Same-cycle batch fast path: every event in the level-0 slot at the
	// wheel's own digit is scheduled for exactly cur, so draining a burst
	// of same-cycle events is a pointer bump per event. Overflow can only
	// preempt it with an equal-time, earlier-seq event.
	s0 := int(w.cur) & wheelMask
	if int(w.head0[s0]) < len(w.slots[0][s0]) {
		if len(w.over) == 0 || w.over[0].at > w.cur {
			return w.takeL0(s0)
		}
		return w.popOver()
	}
	if w.inWheel == 0 {
		if len(w.over) == 0 {
			return nil
		}
		return w.popOver()
	}
	for {
		if s, ok := w.firstOcc(0, int(w.cur)&wheelMask); ok {
			t := w.cur&^Cycles(wheelMask) | Cycles(s)
			if len(w.over) > 0 && w.over[0].at <= t {
				return w.popOver()
			}
			w.cur = t
			return w.takeL0(s)
		}
		// The current 256-cycle window is dry: advance to the next
		// occupied window, cascading one higher-level slot down.
		advanced := false
		for l := 1; l < wheelLevels; l++ {
			digit := int(w.cur>>(wheelBits*l)) & wheelMask
			s, ok := w.firstOcc(l, digit+1)
			if !ok {
				continue
			}
			span := uint(wheelBits * (l + 1))
			boundary := w.cur>>span<<span | Cycles(s)<<(wheelBits*l)
			if len(w.over) > 0 && w.over[0].at < boundary {
				return w.popOver()
			}
			w.cur = boundary
			w.cascade(l, s)
			advanced = true
			break
		}
		if !advanced {
			// Only overflow events remain.
			return w.popOver()
		}
	}
}

// takeL0 pops the head of level-0 bucket s. All events there share the
// same cycle, so this never needs a comparison.
func (w *wheelSched) takeL0(s int) *event {
	b := w.slots[0][s]
	h := w.head0[s]
	ev := b[h]
	b[h] = nil
	h++
	if int(h) == len(b) {
		w.slots[0][s] = b[:0]
		w.head0[s] = 0
		w.occ[0][s>>6] &^= 1 << (s & 63)
	} else {
		w.head0[s] = h
	}
	w.inWheel--
	return ev
}

// cascade redistributes higher-level slot (l, s) into lower levels after
// the wheel advanced into its window. List order is preserved, which
// keeps same-cycle buckets in seq order.
func (w *wheelSched) cascade(l, s int) {
	evs := w.slots[l][s]
	if len(evs) == 0 {
		return
	}
	w.slots[l][s] = evs[:0]
	w.occ[l][s>>6] &^= 1 << (s & 63)
	w.inWheel -= len(evs)
	for i, ev := range evs {
		evs[i] = nil
		w.push(ev)
	}
}

// popOver pops the earliest overflow event and jumps wheel time to it,
// re-filing any wheel-resident events whose digit classification the jump
// invalidates. (Nothing in the wheel is pending before the popped time —
// pop only takes this path after proving that.)
func (w *wheelSched) popOver() *event {
	ev := heap.Pop(&w.over).(*event)
	t := ev.at
	if t != w.cur {
		hi := 0
		for d := (t ^ w.cur) >> wheelBits; d != 0; d >>= wheelBits {
			hi++
		}
		w.cur = t
		if w.inWheel > 0 {
			if hi >= wheelLevels {
				hi = wheelLevels - 1
			}
			for l := hi; l >= 1; l-- {
				w.cascade(l, int(t>>(wheelBits*l))&wheelMask)
			}
		}
	}
	return ev
}

func (w *wheelSched) peek() (Cycles, bool) {
	best := Cycles(0)
	have := false
	if len(w.over) > 0 {
		best, have = w.over[0].at, true
	}
	if w.inWheel > 0 {
		if s, ok := w.firstOcc(0, int(w.cur)&wheelMask); ok {
			t := w.cur&^Cycles(wheelMask) | Cycles(s)
			if !have || t < best {
				best = t
			}
			return best, true
		}
		// The earliest occupied slot at the lowest non-empty level bounds
		// every later window; its bucket min is the wheel's minimum.
		for l := 1; l < wheelLevels; l++ {
			digit := int(w.cur>>(wheelBits*l)) & wheelMask
			s, ok := w.firstOcc(l, digit+1)
			if !ok {
				continue
			}
			min := Cycles(0)
			for i, ev := range w.slots[l][s] {
				if i == 0 || ev.at < min {
					min = ev.at
				}
			}
			if !have || min < best {
				best = min
			}
			return best, true
		}
	}
	return best, have
}
