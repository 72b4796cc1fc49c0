package hw

import (
	"fmt"

	"bgcnk/internal/ras"
	"bgcnk/internal/upc"
)

// TLBSize is the number of entries in a PPC450-class software-managed TLB.
const TLBSize = 64

// TLBEntry is one translation: a virtual page of a given size mapped to a
// physical frame with permissions, tagged by process (address-space) ID.
// Pinned entries are CNK's static map: they are installed at job start and
// never evicted, which is what makes "no TLB misses" (Table II) possible.
type TLBEntry struct {
	Valid  bool
	Pinned bool
	PID    uint32
	VBase  VAddr
	PBase  PAddr
	Size   PageSize
	Perms  Perm
}

// Covers reports whether the entry translates va for address space pid.
func (e *TLBEntry) Covers(pid uint32, va VAddr) bool {
	return e.Valid && e.PID == pid &&
		uint64(va) >= uint64(e.VBase) && uint64(va) < uint64(e.VBase)+uint64(e.Size)
}

// Translate maps va through the entry.
func (e *TLBEntry) Translate(va VAddr) PAddr {
	return e.PBase + PAddr(va-e.VBase)
}

// TLB is one core's translation lookaside buffer. Replacement of unpinned
// entries is round-robin, as on the real part (and conveniently
// deterministic).
type TLB struct {
	entries [TLBSize]TLBEntry
	victim  int

	// upc/coreID route counter updates to the owning chip's UPC unit;
	// upc is nil (count nothing) for standalone TLBs in unit tests.
	upc    *upc.Set
	coreID int

	// faults draws seeded parity errors on matched entries; nil on a
	// perfect machine.
	faults *ras.NodeFaults

	Hits   uint64
	Misses uint64
}

// refillCounter maps a hardware page size to its per-size refill counter.
func refillCounter(s PageSize) upc.Counter {
	switch s {
	case Page4K:
		return upc.TLBRefill4K
	case Page64K:
		return upc.TLBRefill64K
	case Page1M:
		return upc.TLBRefill1M
	case Page16M:
		return upc.TLBRefill16M
	case Page256M:
		return upc.TLBRefill256M
	default:
		return upc.TLBRefill1G
	}
}

// Lookup translates (pid, va). On success it returns the physical address
// and the entry's permissions.
func (t *TLB) Lookup(pid uint32, va VAddr) (PAddr, Perm, bool) {
	for i := range t.entries {
		e := &t.entries[i]
		if e.Covers(pid, va) {
			if t.faults.TLBParity() {
				// Parity error on the matched entry: the hardware
				// invalidates it and the lookup misses; the kernel's
				// refill path is the recovery (re-install from the static
				// map under CNK, software refill under an FWK).
				t.entries[i] = TLBEntry{}
				break
			}
			t.Hits++
			t.upc.Inc(t.coreID, upc.TLBHit)
			return e.Translate(va), e.Perms, true
		}
	}
	t.Misses++
	t.upc.Inc(t.coreID, upc.TLBMiss)
	return 0, 0, false
}

// InsertPinned installs a static, never-evicted translation. It panics if
// all slots hold pinned entries (the static map must fit the hardware —
// this is exactly the constraint CNK's partitioning algorithm respects).
func (t *TLB) InsertPinned(e TLBEntry) {
	e.Valid, e.Pinned = true, true
	if !e.Size.Valid() {
		panic(fmt.Sprintf("hw: invalid page size %d", e.Size))
	}
	t.upc.Inc(t.coreID, refillCounter(e.Size))
	for i := range t.entries {
		if !t.entries[i].Valid {
			t.entries[i] = e
			return
		}
	}
	panic("hw: TLB full of pinned entries; static map exceeds hardware capacity")
}

// Insert installs a replaceable translation, evicting round-robin among
// unpinned slots. It panics if every slot is pinned.
func (t *TLB) Insert(e TLBEntry) {
	e.Valid = true
	e.Pinned = false
	if !e.Size.Valid() {
		panic(fmt.Sprintf("hw: invalid page size %d", e.Size))
	}
	t.upc.Inc(t.coreID, refillCounter(e.Size))
	for i := range t.entries {
		if !t.entries[i].Valid {
			t.entries[i] = e
			return
		}
	}
	for tries := 0; tries < TLBSize; tries++ {
		v := t.victim
		t.victim = (t.victim + 1) % TLBSize
		if !t.entries[v].Pinned {
			t.entries[v] = e
			return
		}
	}
	panic("hw: TLB full of pinned entries; cannot insert dynamic entry")
}

// InvalidateASID drops all entries (pinned or not) for address space pid.
func (t *TLB) InvalidateASID(pid uint32) {
	for i := range t.entries {
		if t.entries[i].Valid && t.entries[i].PID == pid {
			t.entries[i] = TLBEntry{}
		}
	}
}

// InvalidateAll drops every entry.
func (t *TLB) InvalidateAll() {
	for i := range t.entries {
		t.entries[i] = TLBEntry{}
	}
	t.victim = 0
}

// ValidCount returns the number of valid entries.
func (t *TLB) ValidCount() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].Valid {
			n++
		}
	}
	return n
}

func (t *TLB) reset() {
	t.InvalidateAll()
	t.Hits, t.Misses = 0, 0
}
