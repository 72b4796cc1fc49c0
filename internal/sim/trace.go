package sim

import "strconv"

// Trace records the externally visible behaviour of a run as a running
// FNV-1a hash of every entry, for cycle-reproducibility proofs: two runs
// are cycle-identical iff their trace hashes match.
type Trace struct {
	hash    uint64
	count   uint64
	scratch []byte // reused decimal buffer; keeps Record allocation-free
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{hash: fnvOffset64} }

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

// Record folds an entry at time at, with a source tag (e.g. "core0",
// "torus") and a detail string, into the hash.
func (tr *Trace) Record(at Cycles, tag, detail string) {
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
}

// Hash returns the running hash over all recorded entries. Two runs with
// equal hashes executed the same tagged events at the same cycles in the
// same order.
func (tr *Trace) Hash() uint64 { return tr.hash }

// Count returns the number of entries recorded.
func (tr *Trace) Count() uint64 { return tr.count }
