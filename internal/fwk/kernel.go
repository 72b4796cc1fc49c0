// Package fwk implements the Full-Weight Kernel model: a Linux-like
// compute-node kernel used as the comparison point for every experiment in
// the paper (the FWQ noise figures, the capability tables, boot time,
// reproducibility). Its jitter is produced by real mechanisms, not a dial:
// a 1 kHz timer tick whose ISR steals cycles, daemon kernel threads that
// preempt user threads and pollute the caches, and 4 KB demand paging with
// software TLB refills.
package fwk

import (
	"fmt"

	"bgcnk/internal/fs"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/obs"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
)

// Cost model constants.
const (
	tickPeriod     = sim.Cycles(850_000) // 1 kHz at 850 MHz
	tickISRCost    = sim.Cycles(550)     // timer interrupt service
	sigFrameCost   = sim.Cycles(300)     // signal frame setup before a handler runs
	syscallCost    = sim.Cycles(350)     // heavier entry/exit than CNK
	tlbRefillCost  = sim.Cycles(90)      // software TLB reload from page tables
	pageFaultCost  = sim.Cycles(2800)    // demand-paging a fresh anonymous page
	ctxSwitchCost  = sim.Cycles(1200)    // full context switch
	bootFullInstr  = 15_000_000          // full distro boot (weeks at 10 Hz VHDL)
	bootStripInstr = 2_500_000           // stripped-down boot (days at 10 Hz)
	fwkScrubBase   = sim.Cycles(40_000)  // DDR scrub-and-remap floor
	fwkScrubJitter = sim.Cycles(120_000) // allocator-state-dependent spread
)

// DaemonSpec describes one background kernel daemon: which core it is
// (mostly) scheduled on, how often it wakes, how long it runs, and how much
// memory it touches (cache pollution).
type DaemonSpec struct {
	Name       string
	Core       int
	Period     sim.Cycles
	Burst      sim.Cycles
	WorkingSet uint32 // bytes touched per burst
}

// DefaultDaemons is the daemon population of a trimmed compute-node Linux:
// "all processes were suspended except for init, a single shell, the FWQ
// benchmark, and various kernel daemons that cannot be suspended" (paper
// Section V-A). Bursts are sized to produce the paper's per-core noise
// profile: >5% spikes on cores 0, 2 and 3 and ~1.2% on core 1.
func DefaultDaemons() []DaemonSpec {
	ms := func(m float64) sim.Cycles { return sim.FromMillis(m) }
	return []DaemonSpec{
		{Name: "init", Core: 0, Period: ms(900), Burst: 36_000, WorkingSet: 16 << 10},
		{Name: "shell", Core: 0, Period: ms(1400), Burst: 20_000, WorkingSet: 8 << 10},
		{Name: "ksoftirqd/0", Core: 0, Period: ms(60), Burst: 2_500, WorkingSet: 2 << 10},
		{Name: "ksoftirqd/1", Core: 1, Period: ms(140), Burst: 9_000, WorkingSet: 2 << 10},
		{Name: "klogd", Core: 2, Period: ms(800), Burst: 40_000, WorkingSet: 24 << 10},
		{Name: "ksoftirqd/2", Core: 2, Period: ms(70), Burst: 2_500, WorkingSet: 2 << 10},
		{Name: "kflush", Core: 3, Period: ms(600), Burst: 34_000, WorkingSet: 24 << 10},
		{Name: "kswapd", Core: 3, Period: ms(1700), Burst: 12_000, WorkingSet: 32 << 10},
	}
}

// Config parameterizes the kernel.
type Config struct {
	// Seed determines daemon phases and burst jitter. Two boots with
	// different seeds behave differently — which is exactly why an FWK
	// is not performance-reproducible (Table II).
	Seed uint64
	// Daemons overrides DefaultDaemons; empty slice = no daemons
	// (unrealistic but useful for ablations). Nil = default set.
	Daemons []DaemonSpec
	// Stripped models a minimized kernel build: faster boot, same
	// mechanisms.
	Stripped bool
	// FS is the node's filesystem (local or NFS-like). Nil = fresh fs.
	FS *fs.FS
	// FSLatency adds per-operation latency modelling a network
	// filesystem client (NFS on the paper's I/O nodes).
	FSLatency sim.Cycles
	// Uplink, when set, charges read/write data bytes to a shared
	// I/O-node uplink (the machine wires it to the collective tree's
	// shared link when the ION subsystem is armed). Only data operations
	// pay: NFS attribute caching keeps metadata local, which is the
	// asymmetry against CNK's ship-everything protocol.
	Uplink func(c *sim.Coro, bytes int) sim.Cycles
}

// Kernel is one node's FWK instance.
type Kernel struct {
	Eng  *sim.Engine
	Chip *hw.Chip
	cfg  Config
	rng  *sim.RNG

	FS *fs.FS

	BootedAt  sim.Cycles
	BootInstr uint64
	booted    bool

	rt      kernel.Runtime // futexes, thread exit, signal delivery
	cpus    []*cpu
	procs   map[uint32]*Proc
	nextPID uint32
	nextTID uint32

	// physAlloc hands out 4KB frames; a simple hashed free list produces
	// the physical fragmentation real anonymous memory has, which is what
	// makes "large physically contiguous memory" hard on an FWK
	// (Table II).
	physNext  uint64
	physLimit uint64
	physIdx   uint64
	physFree  []hw.PAddr

	// obs, when non-nil, receives boot, syscall, tick, daemon and
	// uplink-stall spans; emitting charges no cycles.
	obs *obs.Recorder
}

// AttachObs wires the machine-wide span recorder (call before Boot so
// the boot span is captured; nil is a no-op recorder).
func (k *Kernel) AttachObs(r *obs.Recorder) { k.obs = r }

// New constructs an FWK instance for chip.
func New(eng *sim.Engine, chip *hw.Chip, cfg Config) *Kernel {
	if cfg.Daemons == nil {
		cfg.Daemons = DefaultDaemons()
	}
	if cfg.FS == nil {
		cfg.FS = fs.New()
	}
	k := &Kernel{
		Eng: eng, Chip: chip, cfg: cfg,
		rng:       sim.NewRNG(cfg.Seed ^ 0xf00dface),
		FS:        cfg.FS,
		rt:        kernel.NewRuntime(eng, sigFrameCost, nil),
		procs:     make(map[uint32]*Proc),
		physNext:  64 << 20, // kernel image + page tables below
		physLimit: chip.Mem.Size(),
	}
	for _, c := range chip.Cores {
		k.cpus = append(k.cpus, &cpu{k: k, core: c})
	}
	return k
}

// Name implements kernel.OS.
func (k *Kernel) Name() string { return "FWK" }

// Boot brings the kernel up: slow (relative to CNK), with daemon phases
// drawn from the seed. An FWK needs all major units working.
func (k *Kernel) Boot() error {
	if k.booted {
		return fmt.Errorf("fwk: already booted")
	}
	for _, u := range []hw.Unit{hw.UnitDDR, hw.UnitTorus, hw.UnitCollective} {
		if !k.Chip.UnitEnabled(u) {
			return fmt.Errorf("fwk: cannot boot with %v broken (no workaround flags)", u)
		}
	}
	k.BootInstr = bootFullInstr
	if k.cfg.Stripped {
		k.BootInstr = bootStripInstr
	}
	k.BootedAt = k.Eng.Now() + sim.Cycles(k.BootInstr)
	k.booted = true
	k.Eng.Trace().Record(k.BootedAt, k.tag(), "boot: complete")
	k.obs.Emit(obs.CatBoot, "fwk:boot", k.Chip.ID, 0, k.Eng.Now(), k.BootedAt, k.BootInstr)
	// Start ticks and daemons.
	for i, c := range k.cpus {
		c.nextTick = k.BootedAt + tickPeriod + k.rng.Cycles(tickPeriod) + sim.Cycles(i*997)
	}
	for _, spec := range k.cfg.Daemons {
		if spec.Core >= len(k.cpus) {
			continue
		}
		k.startDaemon(spec)
	}
	return nil
}

// ResetJobState forgets per-job structures — processes, futex queues,
// PID/TID counters, run queues — so a reused kernel numbers and places the
// next job's threads like a fresh one would. The physical-frame allocator
// is deliberately NOT rewound here: a live FWK never compacts its pool, so
// job-to-job frame placement drifts (the Table II contiguity story);
// Reboot is what restores the pristine permutation.
func (k *Kernel) ResetJobState() {
	k.procs = make(map[uint32]*Proc)
	k.rt.Reset()
	k.nextPID, k.nextTID = 0, 0
	for _, c := range k.cpus {
		c.cur, c.ready = nil, nil
	}
}

// Reboot brings the kernel back up after a partition reset, replaying the
// full boot sequence with the same seed: the kernel RNG, the frame
// allocator, tick phases and daemon schedules all restart exactly as a
// fresh boot's would, just shifted to the new boot instant. fsys, when
// non-nil, replaces the node's (NFS) filesystem — a partition reboot
// remounts a clean export. The previous incarnation's daemon coroutines
// stay parked forever (nothing dispatches them once cpus[i].daemons is
// replaced); they are reclaimed at engine Shutdown.
func (k *Kernel) Reboot(fsys *fs.FS) error {
	k.ResetJobState()
	k.booted = false
	k.BootInstr = 0
	k.rng = sim.NewRNG(k.cfg.Seed ^ 0xf00dface)
	k.physIdx = 0
	k.physFree = nil
	if fsys != nil {
		k.cfg.FS = fsys
		k.FS = fsys
	}
	for _, c := range k.cpus {
		c.daemons = nil
		c.nextTick = 0
		c.Ticks, c.DaemonRuns = 0, 0
	}
	return k.Boot()
}

func (k *Kernel) tag() string { return fmt.Sprintf("fwk%d", k.Chip.ID) }

// SyscallEntryCost implements kernel.OS.
func (k *Kernel) SyscallEntryCost() sim.Cycles { return syscallCost }

// allocFrame hands out one 4KB physical frame. Frames are drawn from a
// deterministic permutation of the pool rather than sequentially: on a
// real FWK the buddy allocator's state after boot leaves anonymous pages
// physically scattered, which is exactly why user buffers resolve to long
// scatter lists (Table II: "Large physically contiguous memory:
// easy-hard"). Frees are reused LIFO.
func (k *Kernel) allocFrame() (hw.PAddr, bool) {
	if n := len(k.physFree); n > 0 {
		f := k.physFree[n-1]
		k.physFree = k.physFree[:n-1]
		return f, true
	}
	// Pool: largest power-of-two page count below the limit.
	pool := uint64(1)
	for pool*2 <= (k.physLimit-k.physNext)/4096 {
		pool *= 2
	}
	if k.physIdx >= pool {
		return 0, false
	}
	// Odd multiplier => bijection over the power-of-two pool.
	slot := (k.physIdx * 0x9E3779B1) & (pool - 1)
	k.physIdx++
	return hw.PAddr(k.physNext + slot*4096), true
}

func (k *Kernel) freeFrame(f hw.PAddr) { k.physFree = append(k.physFree, f) }

// MemEvent implements kernel.OS. Unlike CNK, an L1 parity error on a
// general-purpose kernel has no application recovery path: the kernel
// kills the task (machine-check semantics).
func (k *Kernel) MemEvent(t *kernel.Thread, ev hw.MemEvent, va hw.VAddr, write bool) {
	switch ev {
	case hw.EvL1Parity:
		k.Eng.Trace().Record(k.Eng.Now(), k.tag(), "machine check: killing task")
		k.rt.Exit(t, 128+int(kernel.SIGKILL))
	case hw.EvDDRUncorrectable:
		// When the plan arms FWKPanicEvery, every Nth multi-bit error
		// lands in state the kernel cannot scrub around (its own
		// structures, a daemon's heap) and the node panics, killing the
		// job — the fatal path the resilience experiments restart from.
		if k.Chip.Faults.FWKPanicDue() {
			k.Eng.Trace().Record(k.Eng.Now(), k.tag(), "machine check: kernel panic, killing job")
			k.Chip.Faults.Report(ras.JobKill, "fwk",
				fmt.Sprintf("kernel panic on uncorrectable DDR error at va %#x", uint64(va)))
			k.rt.Exit(t, 128+int(kernel.SIGBUS))
			return
		}
		// Otherwise the full-weight kernel absorbs the error in place: an
		// in-kernel scrub-and-remap pass whose length depends on allocator
		// state, modelled as kernel-RNG jitter. The task keeps running —
		// at the cost of an unpredictable stall that widens OS noise, and
		// a run that can never be replayed cycle-for-cycle.
		scrub := fwkScrubBase + k.rng.Cycles(fwkScrubJitter)
		k.Eng.Trace().Record(k.Eng.Now(), k.tag(),
			fmt.Sprintf("machine check: DDR scrub-and-remap, %d cycle stall", scrub))
		k.Chip.Faults.Report(ras.Recovery, "fwk",
			fmt.Sprintf("scrubbed uncorrectable DDR error at va %#x in place", uint64(va)))
		t.Coro().Sleep(scrub)
	default:
		k.rt.Raise(t, kernel.SigInfo{Sig: kernel.SIGSEGV, Addr: va, Code: 2})
	}
}
