// Package upc models the Blue Gene/P Universal Performance Counter unit:
// a queryable, zero-allocation counter block threaded through every layer
// that charges simulated cycles.
//
// The real chip ships a UPC unit precisely because CNK's
// cycle-reproducible execution makes counters trustworthy: the same run
// produces the same counts, so "where did the cycles go" has one answer
// (paper Section III). The simulation already charges cycles for TLB
// refills, cache levels, interrupts, ticks and DMA; this package exposes
// those events as first-class counters so experiments measure their
// decompositions instead of inferring them.
//
// Design constraints, enforced by tests:
//
//   - Incrementing a counter on the hot path allocates nothing: the Set is
//     fixed-size arrays indexed by (core slot, counter id).
//   - Snapshots are comparable values: two runs replayed from the same
//     seeds yield snapshots that compare equal with ==.
package upc

// MaxCores is the per-chip core-slot count (Blue Gene/P has 4). Counter
// values are tracked per core plus one chip-scoped slot for events with no
// core affinity (shared L3, DDR, network DMA).
const MaxCores = 4

// NumSlots is MaxCores core slots plus the chip-scoped slot.
const NumSlots = MaxCores + 1

// MaxSyscalls bounds the per-syscall-number counter array. It must be at
// least kernel.NumSys (statically asserted in the kernel package).
const MaxSyscalls = 48

// ChipScope is the core argument selecting the chip-scoped slot.
const ChipScope = -1

// Counter identifies one performance counter.
type Counter uint8

// Counters. Scope noted where chip-wide; all others are per-core.
const (
	// Address translation.
	TLBHit Counter = iota
	TLBMiss
	TLBRefill4K
	TLBRefill64K
	TLBRefill1M
	TLBRefill16M
	TLBRefill256M
	TLBRefill1G
	PageFault
	// Memory hierarchy.
	L1Hit
	L1Miss
	StoreMiss
	L3Hit        // chip
	L3Miss       // chip
	DDRRead      // chip
	DDRWrite     // chip
	RefreshStall // chip
	// Kernel events.
	Interrupt
	IPI
	TimerTick
	DaemonRun
	ContextSwitch
	Preemption
	SyscallTotal
	FutexWait
	FutexWake
	// I/O and networks.
	FunctionShip  // chip: CIOD round trips
	DMADescriptor // chip: torus DMA descriptors injected
	TorusPacket   // chip
	TorusBytes    // chip
	CollPacket    // chip: collective-network packets sent
	CollBytes     // chip
	CombineOp     // chip: combining-tree allreduce operations
	// RAS and recovery (all chip-scoped; zero on fault-free runs).
	LinkCRC          // chip: link transfer attempts corrupted by CRC faults
	LinkRetransmit   // chip: sender-side retransmissions
	CIODTimeout      // chip: function-ship replies that timed out
	CIODRetry        // chip: function-ship resends after timeout
	RASCorrectable   // chip: DDR ECC single-bit corrections
	RASUncorrectable // chip: DDR ECC uncorrectable errors
	// I/O-node aggregation (chip-scoped; zero unless the ION subsystem is
	// armed). The stall counters live on the compute node's set — the CN is
	// where the backpressure is felt — and the rest on the ION's own set.
	IONStall       // chip: CN-side stalls waiting for an ION ingress credit
	IONStallCycles // chip: CN-side cycles spent stalled on ION backpressure
	IONAdmit       // chip: requests admitted to the ION ingress queue
	IONCoalesce    // chip: writes merged by the ION request coalescer
	IONCacheHit    // chip: buffer-cache block hits
	IONCacheMiss   // chip: buffer-cache block misses (filled from fs)
	IONWriteback   // chip: dirty blocks written back to fs
	IONFlush       // chip: explicit cache flushes (fsync/close/quiesce)
	// Torus fault tolerance (chip-scoped; zero unless hard network faults
	// are armed). Detour counts extra hops taken around dead links; the
	// e2e counters account the reliable-delivery layer's retransmits and
	// abandoned deliveries.
	TorusRouteDetour // chip: extra hops routed around dead links
	TorusLinkDead    // chip: directed torus links declared dead on this node
	TorusE2ERetry    // chip: end-to-end retransmits after a lost delivery
	TorusE2ETimeout  // chip: deliveries abandoned (retries exhausted / unroutable / recv timeout)

	NumCounters
)

var counterNames = [NumCounters]string{
	"tlb_hit", "tlb_miss",
	"tlb_refill_4k", "tlb_refill_64k", "tlb_refill_1m", "tlb_refill_16m",
	"tlb_refill_256m", "tlb_refill_1g",
	"page_fault",
	"l1_hit", "l1_miss", "store_miss", "l3_hit", "l3_miss",
	"ddr_read", "ddr_write", "refresh_stall",
	"interrupt", "ipi", "timer_tick", "daemon_run",
	"context_switch", "preemption", "syscall",
	"futex_wait", "futex_wake",
	"function_ship", "dma_descriptor", "torus_packet", "torus_bytes",
	"coll_packet", "coll_bytes", "combine_op",
	"link_crc", "link_retransmit", "ciod_timeout", "ciod_retry",
	"ras_correctable", "ras_uncorrectable",
	"ion_stall", "ion_stall_cycles", "ion_admit", "ion_coalesce",
	"ion_cache_hit", "ion_cache_miss", "ion_writeback", "ion_flush",
	"torus_route_detour", "torus_link_dead", "torus_e2e_retry", "torus_e2e_timeout",
}

func (c Counter) String() string {
	if c < NumCounters {
		return counterNames[c]
	}
	return "counter(?)"
}

// RefillCounters lists the per-page-size TLB refill counters in increasing
// page-size order (4K, 64K, 1M, 16M, 256M, 1G), matching hw.PageSizes.
var RefillCounters = [6]Counter{
	TLBRefill4K, TLBRefill64K, TLBRefill1M, TLBRefill16M, TLBRefill256M, TLBRefill1G,
}

// slot maps a core index to its storage slot; ChipScope (or any
// out-of-range core) selects the chip slot.
func slot(core int) int {
	if core < 0 || core >= MaxCores {
		return MaxCores
	}
	return core
}

// Set is one chip's counter block. hw.Chip owns one, and every layer
// above reaches it through the chip. The zero value is ready to use; all
// mutation is fixed-array indexing, so the hot path never allocates. A
// nil *Set is a block nothing counts into: updates do nothing and every
// read is zero.
type Set struct {
	vals [NumSlots][NumCounters]uint64
	sys  [NumSlots][MaxSyscalls]uint64
}

// Inc adds one to counter c on core (ChipScope for chip-wide events).
func (s *Set) Inc(core int, c Counter) {
	if s != nil {
		s.vals[slot(core)][c]++
	}
}

// Add adds n to counter c on core.
func (s *Set) Add(core int, c Counter, n uint64) {
	if s != nil {
		s.vals[slot(core)][c] += n
	}
}

// Syscall counts one invocation of syscall number num on core, maintaining
// both the per-number array and the SyscallTotal counter.
func (s *Set) Syscall(core int, num int) {
	if s == nil {
		return
	}
	sl := slot(core)
	s.vals[sl][SyscallTotal]++
	if num >= 0 && num < MaxSyscalls {
		s.sys[sl][num]++
	}
}

// Get reads counter c on core without snapshotting.
func (s *Set) Get(core int, c Counter) uint64 {
	if s == nil {
		return 0
	}
	return s.vals[slot(core)][c]
}

// Reset zeroes every counter (chip reset semantics).
func (s *Set) Reset() {
	if s != nil {
		*s = Set{}
	}
}

// Snapshot captures the current counter values as a comparable value: two
// snapshots are equal (==) iff every per-slot counter and per-syscall
// count matches.
func (s *Set) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	return Snapshot{Vals: s.vals, Sys: s.sys}
}

// AddTo adds every counter of s into sum, as Merge of the two would; a
// nil set adds nothing.
func (s *Set) AddTo(sum *Snapshot) {
	if s != nil {
		sn := s.Snapshot()
		sum.add(&sn)
	}
}

// Load overwrites every counter with the values in sn. Checkpoint restore
// uses this to roll the UPC block back to its value at the snapshot's
// quiesce point, exactly as the real unit's counters are reloaded from a
// saved image on restart.
func (s *Set) Load(sn Snapshot) {
	if s != nil {
		s.vals = sn.Vals
		s.sys = sn.Sys
	}
}
