package hw

import (
	"fmt"

	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// Cache geometry and cost constants, approximating Blue Gene/P.
const (
	L1LineSize    = 32   // bytes per L1 line (PPC450)
	L1Sets        = 64   // 64 sets x 16 ways x 32B = 32KB
	L1Ways        = 16   //
	L3LineSize    = 128  // bytes per L3 line
	L3Sets        = 4096 // 4096 sets x 16 ways x 128B = 8MB shared eDRAM
	L3Ways        = 16   //
	CostL3Hit     = 46   // extra cycles for an L1 load miss filled from L3
	CostDDR       = 104  // extra cycles for an L3 miss filled from DDR
	CostStoreMiss = 2    // store-queue throttle for a write-through L1 store miss
	RefreshInt    = 6630 // DRAM refresh interval: 7.8us at 850MHz
	RefreshLen    = 94   // DRAM busy per refresh: ~110ns
	CostECCFix    = 28   // extra stall while ECC corrects a single-bit error
)

// MemEvent is an exceptional condition raised by a memory access.
type MemEvent uint8

// Memory access events.
const (
	EvNone MemEvent = iota
	// EvL1Parity is a soft error in the L1 data array. CNK delivers it to
	// the application for recovery (paper Section V-B, the Gordon Bell
	// "Kelvin-Helmholtz" run); an FWK typically panics or kills the task.
	EvL1Parity
	// EvDDRUncorrectable is a multi-bit DDR error ECC cannot repair: the
	// data is gone. CNK logs the RAS event and kills the job cleanly (the
	// chip is then recoverable via the reproducible-reset path); an FWK
	// scrubs and presses on in-kernel.
	EvDDRUncorrectable
)

// MaxMemSize is the largest DDR size in bytes whose every L1 line number
// fits a cache tag: tags are 32 bits wide and hold line+1, so zero can
// mark an invalid way (~128 GiB; BG/P nodes carry 2-4 GB).
const MaxMemSize = (1<<32 - 1) * L1LineSize

// tagPageSets is how many sets share one tag page: 2 KiB of tags at
// tagWays ways.
const tagPageSets = 32

// tagWays is the associativity of both cache levels, so one page type
// holds the tags of either.
const tagWays = 16

// A cache geometry whose levels do not both have tagWays ways does not
// compile.
var _ = [1]int{}[L1Ways^tagWays|L3Ways^tagWays]

// tagPage holds the tags of tagPageSets consecutive sets: way w of the
// page's set s at s*tagWays+w.
type tagPage [tagPageSets * tagWays]uint32

// cacheArray is the tag store of one cache level. Way w of set s holds
// pages[s/tagPageSets][s%tagPageSets*tagWays+w], and victim[s] is set s's
// round-robin fill pointer, as on the real part — deterministic. A page is
// allocated by the first fill into one of its sets: an absent page holds
// only invalid ways, so probing it is a miss.
type cacheArray struct {
	pages  []*tagPage
	victim []uint8
}

func newCacheArray(sets int) cacheArray {
	return cacheArray{pages: make([]*tagPage, (sets+tagPageSets-1)/tagPageSets), victim: make([]uint8, sets)}
}

// probe reports whether set holds line.
func (a *cacheArray) probe(set, line uint64) bool {
	page, base := a.pages[set/tagPageSets], set%tagPageSets*tagWays
	if page == nil {
		return false
	}
	for _, t := range page[base : base+tagWays] {
		if t == uint32(line+1) {
			return true
		}
	}
	return false
}

// fill installs line in set's victim way and advances the pointer,
// allocating the set's page on the first fill into it.
func (a *cacheArray) fill(set, line uint64) {
	page := a.pages[set/tagPageSets]
	if page == nil {
		page = new(tagPage)
		a.pages[set/tagPageSets] = page
	}
	v := a.victim[set]
	page[set%tagPageSets*tagWays+uint64(v)] = uint32(line + 1)
	a.victim[set] = (v + 1) % tagWays
}

// flush invalidates every way and rewinds every fill pointer. It keeps the
// pages it clears, so a flush costs what was touched since construction.
func (a *cacheArray) flush() {
	for _, page := range a.pages {
		if page != nil {
			clear(page[:])
		}
	}
	clear(a.victim)
}

// L3Mapping selects how physical lines map to L3 banks/sets. The BG/P
// memory system exposed configuration parameters controlling "the mapping
// of physical memory to cache controllers and to memory banks within the
// cache", which CNK's bringup controls let designers sweep while running
// application kernels (paper Section III).
type L3Mapping uint8

// L3 mapping policies.
const (
	// L3ModuloMap is the naive modulo index: power-of-two strides
	// collide on a single set.
	L3ModuloMap L3Mapping = iota
	// L3XorFoldMap folds high address bits into the index, spreading
	// power-of-two strides across banks.
	L3XorFoldMap
)

// CacheSim is the chip's memory-hierarchy cost model: private L1 per core,
// a shared 8MB L3, and DDR with a refresh window. It is a deterministic
// state machine: given the same access stream it produces the same costs,
// which is a precondition for the paper's cycle-reproducibility claims.
//
// The model intentionally keeps a real tag array rather than a flat cost:
// the residual "noise floor" CNK shows in FWQ (Fig 7, max variation
// <0.006%) emerges from genuine L1 set conflicts between a benchmark's
// working set and its results buffer, plus DDR refresh collisions — not
// from a tunable jitter dial.
//
// Each level's tags live in pages of 32 sets, allocated by the first fill
// into one of their sets; the L1's pages hold all cores' sets, core c's
// from set c*L1Sets. A tag holds the full line number plus one, so it does
// not depend on the L3 mapping and a zeroed way is invalid: an absent page
// is a cold one, a new CacheSim holds no tags at all, and a flush clears
// the pages that exist and keeps them.
type CacheSim struct {
	l1, l3 cacheArray

	// l3map is the configured bank mapping (a chip design parameter).
	l3map L3Mapping

	// parityArm, when set for a core, makes that core's next L1 access
	// report EvL1Parity (soft-error injection for the recovery tests).
	parityArm []bool

	// faults, when attached, draws a seeded soft-error for every DDR fill
	// (the seeded RAS injector; nil on a perfect machine).
	faults *ras.NodeFaults

	// upc routes hit/miss counts to the owning chip's UPC unit; nil (count
	// nothing) for standalone CacheSims in unit tests.
	upc *upc.Set

	// refreshBase is when the DRAM controller's refresh timer last
	// (re)started; reproducible resets restart it so replayed runs see
	// refresh windows at the same run-relative offsets.
	refreshBase sim.Cycles

	// Hit and miss counts, which Chip.StateHash scans. Store misses and
	// refresh stalls are counted on the UPC unit alone.
	L1Hits, L1Misses []uint64
	L3Hits, L3Misses uint64
}

// NewCacheSim builds the hierarchy for a chip with cores cores.
func NewCacheSim(cores int) *CacheSim {
	cs := &CacheSim{
		l1:        newCacheArray(cores * L1Sets),
		l3:        newCacheArray(L3Sets),
		parityArm: make([]bool, cores),
		L1Hits:    make([]uint64, cores),
		L1Misses:  make([]uint64, cores),
	}
	return cs
}

// SetL3Mapping reconfigures the L3 bank mapping (a bringup control flag;
// normally fixed at boot).
func (cs *CacheSim) SetL3Mapping(m L3Mapping) { cs.l3map = m }

// l3index maps an L3 line number to its set under the configured policy.
func (cs *CacheSim) l3index(l3line uint64) uint64 {
	if cs.l3map == L3XorFoldMap {
		l3line ^= l3line >> 12
		l3line ^= l3line >> 24
	}
	return l3line % L3Sets
}

// ArmL1Parity makes core's next L1 access raise EvL1Parity.
func (cs *CacheSim) ArmL1Parity(core int) { cs.parityArm[core] = true }

// Access charges the cost of touching [pa, pa+size) from core at time now.
// The returned cost covers only hierarchy penalties; the consumer charges
// its own instruction cycles. L1-resident accesses cost zero extra.
func (cs *CacheSim) Access(core int, pa PAddr, size uint32, write bool, now sim.Cycles) (sim.Cycles, MemEvent) {
	ev := EvNone
	if cs.parityArm[core] {
		cs.parityArm[core] = false
		ev = EvL1Parity
	}
	var cost sim.Cycles
	first := uint64(pa) / L1LineSize
	last := (uint64(pa) + uint64(size) - 1) / L1LineSize
	if size == 0 {
		last = first
	}
	if last >= MaxMemSize/L1LineSize {
		panic(fmt.Sprintf("hw: cache access [%#x,+%d) beyond tag range %#x", uint64(pa), size, uint64(MaxMemSize)))
	}
	u := cs.upc
	for line := first; line <= last; line++ {
		l1set := uint64(core)*L1Sets + line%L1Sets
		if cs.l1.probe(l1set, line) {
			cs.L1Hits[core]++
			u.Inc(core, upc.L1Hit)
			continue
		}
		l3line := line * L1LineSize / L3LineSize
		l3set := cs.l3index(l3line)
		if write {
			// The PPC450 L1 is write-through with no allocate-on-store:
			// a store miss goes to the store queue and the L2/L3 without
			// installing an L1 line (and without evicting anything). The
			// store buffer absorbs the downstream latency.
			u.Inc(core, upc.StoreMiss)
			if !cs.l3.probe(l3set, l3line) {
				cs.l3.fill(l3set, l3line)
			}
			cost += CostStoreMiss
			continue
		}
		// Only a load miss allocates an L1 line (see the store path).
		cs.l1.fill(l1set, line)
		cs.L1Misses[core]++
		u.Inc(core, upc.L1Miss)
		if cs.l3.probe(l3set, l3line) {
			cs.L3Hits++
			u.Inc(upc.ChipScope, upc.L3Hit)
			cost += CostL3Hit
			continue
		}
		cs.l3.fill(l3set, l3line)
		cs.L3Misses++
		u.Inc(upc.ChipScope, upc.L3Miss)
		c, unc := cs.ddrFill(now + cost)
		if unc && ev == EvNone {
			ev = EvDDRUncorrectable
		}
		cost += c
	}
	return cost, ev
}

// ddrFill charges one DDR fill that starts at cycle at: the DDR latency,
// the seeded fault draw (an ECC repair stalls the fill; an uncorrectable
// error is reported to the caller) and the rest of any refresh window the
// fill lands in. It stays out of Access so that the hit paths there keep
// their values in registers.
func (cs *CacheSim) ddrFill(at sim.Cycles) (c sim.Cycles, uncorrectable bool) {
	u := cs.upc
	c = CostDDR
	unc, corr := cs.faults.DDRAccess()
	if unc {
		u.Inc(upc.ChipScope, upc.RASUncorrectable)
	} else if corr {
		// ECC repairs the word in place; the fill just stalls.
		c += CostECCFix
		u.Inc(upc.ChipScope, upc.RASCorrectable)
	}
	// DDR refresh: if the access lands in the refresh window it stalls
	// for the remainder of the window.
	phase := uint64(at-cs.refreshBase) % RefreshInt
	if phase < RefreshLen {
		c += sim.Cycles(RefreshLen - phase)
		u.Inc(upc.ChipScope, upc.RefreshStall)
	}
	return c, unc
}

// ResetRefreshPhase restarts the DRAM refresh timer at now, as toggling
// reset to the memory controller does on the real part. The timer is not
// architectural state: Chip.Reset leaves it alone, and the kernel's
// reset protocol restamps it at the reset instant.
func (cs *CacheSim) ResetRefreshPhase(now sim.Cycles) { cs.refreshBase = now }

// FlushAll writes back and invalidates every level, as CNK does before
// putting DDR in self-refresh for a reproducible reset.
func (cs *CacheSim) FlushAll() {
	cs.l1.flush()
	cs.l3.flush()
}

func (cs *CacheSim) reset() {
	cs.FlushAll()
	for i := range cs.L1Hits {
		cs.L1Hits[i], cs.L1Misses[i] = 0, 0
		cs.parityArm[i] = false
	}
	cs.L3Hits, cs.L3Misses = 0, 0
}
