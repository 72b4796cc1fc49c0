package sim

import (
	"fmt"
	"strconv"
)

// TraceEntry is one recorded simulation event: an instant, a source tag
// (e.g. "core0", "torus"), and a detail string.
type TraceEntry struct {
	At     Cycles
	Tag    string
	Detail string
}

func (t TraceEntry) String() string {
	return fmt.Sprintf("[%12d] %-10s %s", uint64(t.At), t.Tag, t.Detail)
}

// Trace records the externally visible behaviour of a run, both as a
// bounded ring of entries (for inspection) and as a running FNV-1a hash of
// every entry (for cycle-reproducibility proofs: two runs are
// cycle-identical iff their trace hashes match). Recording can be disabled
// entirely for performance-sensitive runs; the hash is always maintained
// while enabled.
type Trace struct {
	enabled bool
	hash    uint64
	count   uint64
	ring    []TraceEntry
	ringCap int
	head    int    // oldest entry once the ring is full (circular buffer)
	scratch []byte // reused decimal buffer; keeps Record allocation-free
}

// NewTrace returns an enabled trace with a 4096-entry ring.
func NewTrace() *Trace {
	return &Trace{enabled: true, ring: nil, ringCap: 4096, hash: fnvOffset64}
}

// SetEnabled turns recording on or off.
func (tr *Trace) SetEnabled(on bool) { tr.enabled = on }

// Enabled reports whether the trace records events.
func (tr *Trace) Enabled() bool { return tr.enabled }

// fnv1a64 constants (hash/fnv's offset basis and prime); the hash is
// computed inline over the exact byte stream "%d|%s|%s" so it stays
// bit-identical to the fmt/hash.Hash64 formulation while the hot path
// allocates nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv1aString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// Record appends an entry at time at.
func (tr *Trace) Record(at Cycles, tag, detail string) {
	if !tr.enabled {
		return
	}
	tr.count++
	tr.scratch = strconv.AppendUint(tr.scratch[:0], uint64(at), 10)
	h := uint64(fnvOffset64)
	for _, b := range tr.scratch {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	h = (h ^ '|') * fnvPrime64
	h = fnv1aString(h, tag)
	h = (h ^ '|') * fnvPrime64
	h = fnv1aString(h, detail)
	tr.hash = tr.hash*fnvPrime64 ^ h
	e := TraceEntry{At: at, Tag: tag, Detail: detail}
	if len(tr.ring) < tr.ringCap {
		tr.ring = append(tr.ring, e)
	} else {
		tr.ring[tr.head] = e
		tr.head++
		if tr.head == tr.ringCap {
			tr.head = 0
		}
	}
}

// Hash returns the running hash over all recorded entries. Two runs with
// equal hashes executed the same tagged events at the same cycles in the
// same order.
func (tr *Trace) Hash() uint64 { return tr.hash }

// Count returns the number of entries recorded (including ones evicted
// from the ring).
func (tr *Trace) Count() uint64 { return tr.count }

// Entries returns the retained entries, oldest first.
func (tr *Trace) Entries() []TraceEntry {
	if tr.head == 0 {
		return tr.ring
	}
	out := make([]TraceEntry, 0, len(tr.ring))
	out = append(out, tr.ring[tr.head:]...)
	return append(out, tr.ring[:tr.head]...)
}
