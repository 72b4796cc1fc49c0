package hw

import (
	"fmt"
	"hash/fnv"

	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// CoresPerChip is the Blue Gene/P core count.
const CoresPerChip = 4

// Unit identifies a functional unit that can be individually disabled,
// modelling chip bringup on partial or broken hardware (paper Section III:
// "CNK was designed to be functional without requiring the entire chip
// logic to be working").
type Unit int

// Functional units.
const (
	UnitDDR Unit = iota
	UnitTorus
	UnitCollective
	UnitBarrier
	UnitDMA
	UnitFPU
	UnitL2Prefetch
	UnitLockbox
	numUnits
)

var unitNames = [...]string{"DDR", "Torus", "Collective", "Barrier", "DMA", "FPU", "L2Prefetch", "Lockbox"}

func (u Unit) String() string {
	if int(u) < len(unitNames) {
		return unitNames[u]
	}
	return fmt.Sprintf("Unit(%d)", int(u))
}

// AllUnits lists every functional unit.
func AllUnits() []Unit {
	us := make([]Unit, numUnits)
	for i := range us {
		us[i] = Unit(i)
	}
	return us
}

// DACRange is a Debug Address Compare register pair: a watched virtual
// range that traps on store. CNK uses one per core to implement the stack
// guard area without page tables (paper Fig 4).
type DACRange struct {
	Enabled bool
	PID     uint32
	Lo, Hi  VAddr // [Lo, Hi)
}

// Matches reports whether a store to va in address space pid trips the
// watch.
func (d *DACRange) Matches(pid uint32, va VAddr) bool {
	return d.Enabled && d.PID == pid && va >= d.Lo && va < d.Hi
}

// Core is one PPC450 core: its TLB, DAC registers, and counters.
type Core struct {
	ID   int
	Chip *Chip
	TLB  TLB
	DAC  [2]DACRange

	Interrupts uint64 // external + timer interrupts taken
	IPIs       uint64 // inter-processor interrupts received
}

// CheckDAC reports whether a store to va trips either DAC range.
func (c *Core) CheckDAC(pid uint32, va VAddr) bool {
	return c.DAC[0].Matches(pid, va) || c.DAC[1].Matches(pid, va)
}

// Chip is one Blue Gene/P compute (or I/O) chip.
type Chip struct {
	ID    int
	Coord [3]int // torus coordinates

	Cores []*Core
	Mem   *Memory
	Cache *CacheSim

	// UPC is the chip's Universal Performance Counter unit: every layer
	// that charges cycles against this chip also increments a counter
	// here, so "where did the cycles go" is queryable (paper Section III).
	UPC *upc.Set

	// BootSRAM models the on-chip SRAM where cores rendezvous during the
	// reproducible-reset protocol; its contents survive reset.
	BootSRAM [4096]byte

	// Faults is this node's seeded fault source (nil on a perfect
	// machine). It lives outside the chip's architectural state: a chip
	// Reset does not touch it, so a recovery reboot faces whatever
	// schedule the injector dictates.
	Faults *ras.NodeFaults

	units       [numUnits]bool
	Resets      int        // number of chip resets since construction
	Scanned     bool       // a destructive logic scan has been taken
	ClockStopAt sim.Cycles // armed Clock-Stop cycle (0 = disarmed)
}

// ChipConfig parameterizes chip construction.
type ChipConfig struct {
	ID      int
	Coord   [3]int
	MemSize uint64 // DDR bytes; default 256MB
}

// NewChip builds a chip with all units enabled.
func NewChip(cfg ChipConfig) *Chip {
	if cfg.MemSize == 0 {
		cfg.MemSize = 256 << 20
	}
	ch := &Chip{
		ID:    cfg.ID,
		Coord: cfg.Coord,
		Mem:   NewMemory(cfg.MemSize),
		Cache: NewCacheSim(CoresPerChip),
		UPC:   new(upc.Set),
	}
	ch.Mem.upc = ch.UPC
	ch.Cache.upc = ch.UPC
	for i := 0; i < CoresPerChip; i++ {
		c := &Core{ID: i, Chip: ch}
		c.TLB.upc, c.TLB.coreID = ch.UPC, i
		ch.Cores = append(ch.Cores, c)
	}
	for u := range ch.units {
		ch.units[u] = true
	}
	return ch
}

// AttachFaults wires the node's seeded fault source into every injection
// point on the chip: DDR fills in the cache model and per-core TLB
// lookups. Call once, before the kernel boots.
func (ch *Chip) AttachFaults(f *ras.NodeFaults) {
	ch.Faults = f
	ch.Cache.faults = f
	for _, c := range ch.Cores {
		c.TLB.faults = f
	}
}

// UnitEnabled reports whether a functional unit works on this chip.
func (ch *Chip) UnitEnabled(u Unit) bool { return ch.units[u] }

// SetUnitEnabled marks a unit working or broken.
func (ch *Chip) SetUnitEnabled(u Unit, on bool) { ch.units[u] = on }

// Reset models toggling reset to all functional units: cores, TLBs, caches
// and counters clear; DDR contents survive only under self-refresh;
// BootSRAM survives. The unit-enable fuses and coordinates survive (they
// are physical).
func (ch *Chip) Reset() {
	ch.Resets++
	ch.Scanned = false
	ch.ClockStopAt = 0
	for _, c := range ch.Cores {
		c.TLB.reset()
		c.DAC = [2]DACRange{}
		c.Interrupts, c.IPIs = 0, 0
	}
	ch.Cache.reset()
	ch.Mem.reset()
	ch.UPC.Reset()
}

// StateHash digests the architecturally visible chip state: core counters,
// TLB contents, DAC registers. Two chips at the same point of
// cycle-reproducible runs hash identically; the bringup waveform tooling
// treats this as the "signals" captured by a logic scan.
func (ch *Chip) StateHash() uint64 {
	h := fnv.New64a()
	for _, c := range ch.Cores {
		fmt.Fprintf(h, "c%d:%d:%d;", c.ID, c.Interrupts, c.IPIs)
		fmt.Fprintf(h, "tlb:%d:%d:%d;", c.TLB.ValidCount(), c.TLB.Hits, c.TLB.Misses)
		for _, d := range c.DAC {
			fmt.Fprintf(h, "dac:%v:%d:%d;", d.Enabled, d.Lo, d.Hi)
		}
	}
	fmt.Fprintf(h, "l3:%d:%d;", ch.Cache.L3Hits, ch.Cache.L3Misses)
	for i := range ch.Cores {
		fmt.Fprintf(h, "l1:%d:%d;", ch.Cache.L1Hits[i], ch.Cache.L1Misses[i])
	}
	fmt.Fprintf(h, "mem:%d:%d:%v;", ch.Mem.Reads, ch.Mem.Writes, ch.Mem.InSelfRefresh())
	h.Write(ch.BootSRAM[:])
	return h.Sum64()
}

// Scan performs a destructive logic scan: it returns the state hash and
// marks the chip scanned. A scanned chip must be Reset before further use;
// this models the real constraint that drove the whole reproducible-reboot
// methodology (paper Section III: "logic scans ... are destructive to the
// chip state").
func (ch *Chip) Scan() uint64 {
	h := ch.StateHash()
	ch.Scanned = true
	return h
}

// MustBeUsable panics if the chip has been destructively scanned and not
// reset.
func (ch *Chip) MustBeUsable() {
	if ch.Scanned {
		panic(fmt.Sprintf("hw: chip %d used after destructive scan without reset", ch.ID))
	}
}
