package mem

import (
	"fmt"
	"sort"

	"bgcnk/internal/hw"
)

// MmapRange is one allocated virtual range with its protection.
type MmapRange struct {
	VA    hw.VAddr
	Size  uint64
	Perms hw.Perm
}

// End returns the exclusive end address.
func (r MmapRange) End() hw.VAddr { return r.VA + hw.VAddr(r.Size) }

// MmapTracker implements CNK's mmap bookkeeping (paper Section IV-C): the
// static map means mmap never adjusts translations or handles faults — it
// "merely provides free addresses to the application", tracking which
// ranges are allocated and coalescing on free and on permission change.
type MmapTracker struct {
	lo, hi hw.VAddr    // managed arena (inside the heap/stack region)
	ranges []MmapRange // sorted by VA, non-overlapping
	gran   uint64      // allocation granularity
}

// NewMmapTracker manages [lo, hi) with the given allocation granularity.
func NewMmapTracker(lo, hi hw.VAddr, granularity uint64) *MmapTracker {
	if granularity == 0 {
		granularity = 4096
	}
	return &MmapTracker{lo: lo, hi: hi, gran: granularity}
}

// Allocated returns the allocated ranges, sorted.
func (m *MmapTracker) Allocated() []MmapRange {
	out := make([]MmapRange, len(m.ranges))
	copy(out, m.ranges)
	return out
}

func (m *MmapTracker) insert(r MmapRange) {
	i := sort.Search(len(m.ranges), func(i int) bool { return m.ranges[i].VA >= r.VA })
	m.ranges = append(m.ranges, MmapRange{})
	copy(m.ranges[i+1:], m.ranges[i:])
	m.ranges[i] = r
	m.coalesce()
}

// coalesce merges adjacent ranges with identical permissions.
func (m *MmapTracker) coalesce() {
	if len(m.ranges) < 2 {
		return
	}
	out := m.ranges[:1]
	for _, r := range m.ranges[1:] {
		last := &out[len(out)-1]
		if last.End() == r.VA && last.Perms == r.Perms {
			last.Size += r.Size
		} else {
			out = append(out, r)
		}
	}
	m.ranges = out
}

// Alloc finds a free range of size bytes (rounded up to granularity) and
// marks it allocated. It returns the chosen address.
func (m *MmapTracker) Alloc(size uint64, perms hw.Perm) (hw.VAddr, error) {
	size = hw.AlignUp(size, m.gran)
	if size == 0 {
		return 0, fmt.Errorf("mem: mmap of zero length")
	}
	cursor := m.lo
	for _, r := range m.ranges {
		if uint64(r.VA-cursor) >= size {
			break
		}
		if r.End() > cursor {
			cursor = r.End()
		}
	}
	if uint64(m.hi-cursor) < size {
		return 0, fmt.Errorf("mem: arena exhausted (%d bytes requested)", size)
	}
	m.insert(MmapRange{VA: cursor, Size: size, Perms: perms})
	return cursor, nil
}

// AllocFixed marks [va, va+size) allocated at a caller-chosen address
// (MAP_FIXED, which ld.so uses to place itself — paper Section IV-B2). It
// fails if the range overlaps an existing allocation or leaves the arena.
func (m *MmapTracker) AllocFixed(va hw.VAddr, size uint64, perms hw.Perm) error {
	size = hw.AlignUp(size, m.gran)
	if va < m.lo || va+hw.VAddr(size) > m.hi || uint64(va)%m.gran != 0 {
		return fmt.Errorf("mem: fixed mapping [%#x,+%d) outside arena", uint64(va), size)
	}
	for _, r := range m.ranges {
		if va < r.End() && r.VA < va+hw.VAddr(size) {
			return fmt.Errorf("mem: fixed mapping overlaps [%#x,+%d)", uint64(r.VA), r.Size)
		}
	}
	m.insert(MmapRange{VA: va, Size: size, Perms: perms})
	return nil
}

// Free releases [va, va+size), splitting partially covered ranges. Freeing
// unallocated space is a no-op, as with munmap.
func (m *MmapTracker) Free(va hw.VAddr, size uint64) {
	size = hw.AlignUp(size, m.gran)
	end := va + hw.VAddr(size)
	var out []MmapRange
	for _, r := range m.ranges {
		if r.End() <= va || r.VA >= end { // untouched
			out = append(out, r)
			continue
		}
		if r.VA < va { // left remainder
			out = append(out, MmapRange{VA: r.VA, Size: uint64(va - r.VA), Perms: r.Perms})
		}
		if r.End() > end { // right remainder
			out = append(out, MmapRange{VA: end, Size: uint64(r.End() - end), Perms: r.Perms})
		}
	}
	m.ranges = out
	m.coalesce()
}

// Protect changes permissions on [va, va+size), splitting ranges as
// needed. It fails if any part of the range is unallocated.
func (m *MmapTracker) Protect(va hw.VAddr, size uint64, perms hw.Perm) error {
	size = hw.AlignUp(size, m.gran)
	end := va + hw.VAddr(size)
	// Verify coverage first.
	cursor := va
	for _, r := range m.ranges {
		if cursor >= end {
			break
		}
		if r.End() <= cursor {
			continue
		}
		if r.VA > cursor {
			return fmt.Errorf("mem: mprotect over unallocated hole at %#x", uint64(cursor))
		}
		cursor = r.End()
	}
	if cursor < end {
		return fmt.Errorf("mem: mprotect over unallocated hole at %#x", uint64(cursor))
	}
	var out []MmapRange
	for _, r := range m.ranges {
		if r.End() <= va || r.VA >= end {
			out = append(out, r)
			continue
		}
		if r.VA < va {
			out = append(out, MmapRange{VA: r.VA, Size: uint64(va - r.VA), Perms: r.Perms})
		}
		lo, hi := r.VA, r.End()
		if lo < va {
			lo = va
		}
		if hi > end {
			hi = end
		}
		out = append(out, MmapRange{VA: lo, Size: uint64(hi - lo), Perms: perms})
		if r.End() > end {
			out = append(out, MmapRange{VA: end, Size: uint64(r.End() - end), Perms: r.Perms})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VA < out[j].VA })
	m.ranges = out
	m.coalesce()
	return nil
}

// Find returns the range containing va.
func (m *MmapTracker) Find(va hw.VAddr) (MmapRange, bool) {
	for _, r := range m.ranges {
		if va >= r.VA && va < r.End() {
			return r, true
		}
	}
	return MmapRange{}, false
}

// Brk is the classic break pointer inside the heap region.
type Brk struct {
	Base  hw.VAddr
	Cur   hw.VAddr
	Limit hw.VAddr
}

// NewBrk returns a break starting at base, unable to pass limit.
func NewBrk(base, limit hw.VAddr) *Brk {
	return &Brk{Base: base, Cur: base, Limit: limit}
}

// Set moves the break. Set(0) (or any address below Base) queries. It
// returns the resulting break and whether the move succeeded.
func (b *Brk) Set(to hw.VAddr) (hw.VAddr, bool) {
	if to < b.Base {
		return b.Cur, true
	}
	if to > b.Limit {
		return b.Cur, false
	}
	b.Cur = to
	return b.Cur, true
}

// Grow extends the break by n bytes and returns the old break.
func (b *Brk) Grow(n uint64) (hw.VAddr, bool) {
	old := b.Cur
	if _, ok := b.Set(b.Cur + hw.VAddr(n)); !ok {
		return 0, false
	}
	return old, true
}
