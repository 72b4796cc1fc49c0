// Package cnk implements the Compute Node Kernel model: the paper's
// lightweight kernel, design decision by design decision. CNK owns one
// chip; it boots fast and deterministically, installs a static TLB map per
// process (no page faults, no TLB misses), schedules threads
// non-preemptively with fixed core affinity, function-ships file I/O to
// CIOD, implements the small syscall surface NPTL and ld.so need, guards
// stacks with DAC registers, and supports named persistent memory and the
// reproducible-reset protocol used for chip bringup.
package cnk

import (
	"fmt"

	"bgcnk/internal/ciod"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/mem"
	"bgcnk/internal/obs"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// Boot cost model (in instructions ≈ cycles). CNK's boot is tiny: this is
// what makes it usable under a 10 Hz VHDL simulator during chip design
// (paper Section III: "CNK boots in a couple of hours, while Linux takes
// weeks").
const (
	bootCoreInit        = 6_000  // per-core low-level init
	bootUnitInit        = 4_000  // per functional unit
	bootMemInit         = 18_000 // critical memory contents
	bootHandshake       = 9_000  // service-node interaction (skipped in reproducible restart)
	syscallCost         = 120    // kernel entry/exit
	ipiCost             = 400    // inter-processor interrupt service
	guardRepositionCost = 250
	tlbReinstallCost    = 120 // re-install a parity-invalidated static entry
	sigFrameCost        = 200 // signal frame setup before a handler runs
)

// Config parameterizes the kernel.
type Config struct {
	// MaxThreadsPerCore is the fixed small thread budget. BG/P shipped
	// with 1 and later allowed 3; next-generation CNK planned a
	// compile-time variable count (paper Table II footnote 3).
	MaxThreadsPerCore int
	// IO is the function-ship transport to CIOD. Nil means file I/O
	// returns ENOSYS (a compute node with no I/O node).
	IO ciod.Transport
	// Reproducible boots the kernel in cycle-reproducible mode: no
	// service-node handshake, fully deterministic initialization, and
	// each syscall recorded in the engine trace.
	Reproducible bool
}

// Kernel is one compute node's CNK instance.
type Kernel struct {
	Eng  *sim.Engine
	Chip *hw.Chip
	cfg  Config

	// Persist survives job boundaries on the node (paper Section IV-D).
	Persist *mem.PersistRegistry

	// Boot metrics.
	BootedAt  sim.Cycles
	BootInstr uint64
	booted    bool

	rt      kernel.Runtime // thread start and exit, futexes, signals, obs spans
	cores   []*coreSched
	procs   map[uint32]*Proc
	nextPID uint32
	nextTID uint32

	// IOUnavailable reports which units boot found broken (bringup on
	// partial hardware, paper Section III).
	UnitsDown []hw.Unit
}

// AttachObs wires the machine-wide span recorder, which receives boot,
// syscall and IPI spans (call before Boot so the boot span is captured;
// nil is a no-op recorder).
func (k *Kernel) AttachObs(r *obs.Recorder) { k.rt.Obs = r }

// New constructs a CNK instance for chip. Call Boot before launching jobs.
func New(eng *sim.Engine, chip *hw.Chip, cfg Config) *Kernel {
	if cfg.MaxThreadsPerCore == 0 {
		cfg.MaxThreadsPerCore = 1
	}
	k := &Kernel{
		Eng:     eng,
		Chip:    chip,
		cfg:     cfg,
		procs:   make(map[uint32]*Proc),
		Persist: mem.NewPersistRegistry(hw.PAddr(chip.Mem.Size()-64<<20), hw.PAddr(chip.Mem.Size())),
	}
	k.rt = kernel.NewRuntime(eng, sigFrameCost, kernel.UnameVersion, func(t *kernel.Thread, sig kernel.Signal) {
		k.trace(k.Eng.Now(), fmt.Sprintf("fatal %v in pid %d tid %d", sig, t.PID(), t.TID()))
	})
	for _, c := range chip.Cores {
		k.cores = append(k.cores, &coreSched{CPU: kernel.CPU{Core: c}, k: k})
	}
	return k
}

// Name implements kernel.OS.
func (k *Kernel) Name() string { return "CNK" }

// Boot runs the kernel's startup sequence, charging its (small,
// deterministic) cost and probing functional units. With broken optional
// units CNK still comes up; only DDR is mandatory.
func (k *Kernel) Boot() error {
	if k.booted {
		return fmt.Errorf("cnk: already booted")
	}
	if !k.Chip.UnitEnabled(hw.UnitDDR) {
		return fmt.Errorf("cnk: chip %d has no working DDR", k.Chip.ID)
	}
	instr := uint64(0)
	tr := k.Eng.Trace()
	tr.Record(k.Eng.Now(), k.tag(), "boot: low-core start")
	instr += bootCoreInit * uint64(len(k.Chip.Cores))
	for _, u := range hw.AllUnits() {
		if !k.Chip.UnitEnabled(u) {
			k.UnitsDown = append(k.UnitsDown, u)
			tr.Record(k.Eng.Now(), k.tag(), "boot: unit "+u.String()+" down, continuing")
			continue
		}
		instr += bootUnitInit
	}
	instr += bootMemInit
	if !k.cfg.Reproducible {
		instr += bootHandshake
		tr.Record(k.Eng.Now(), k.tag(), "boot: service node handshake")
	} else {
		tr.Record(k.Eng.Now(), k.tag(), "boot: reproducible mode, skipping service node")
	}
	k.BootInstr = instr
	k.BootedAt = k.Eng.Now() + sim.Cycles(instr)
	k.booted = true
	tr.Record(k.BootedAt, k.tag(), "boot: complete")
	k.rt.Obs.Emit(obs.CatBoot, "cnk:boot", k.Chip.ID, 0, k.Eng.Now(), k.BootedAt, instr)
	return nil
}

// ResetJobState forgets every per-job structure — processes, futex
// queues, PID/TID counters, per-core run queues, core-lending grants — so
// the next Launch on this kernel numbers and places threads exactly like
// the first launch on a fresh kernel did. Persistent memory survives (its
// job-spanning contract, paper Section IV-D); Reboot is what loses it.
func (k *Kernel) ResetJobState() {
	k.procs = make(map[uint32]*Proc)
	k.rt.Reset()
	k.nextPID, k.nextTID = 0, 0
	for _, cs := range k.cores {
		cs.Reset()
		cs.assigned, cs.pendingIPIs = nil, nil
		cs.lentTo = 0
	}
}

// Reboot re-runs the boot sequence on a chip the control system has just
// reset, as a partition teardown/recreate does between queued jobs. DDR
// contents were lost with the chip reset, so the persistent-memory
// registry starts empty and broken-unit probing repeats from scratch.
func (k *Kernel) Reboot() error {
	k.ResetJobState()
	k.booted = false
	k.UnitsDown = nil
	k.BootInstr = 0
	k.Persist = mem.NewPersistRegistry(hw.PAddr(k.Chip.Mem.Size()-64<<20), hw.PAddr(k.Chip.Mem.Size()))
	return k.Boot()
}

func (k *Kernel) tag() string { return fmt.Sprintf("cnk%d", k.Chip.ID) }

func (k *Kernel) trace(at sim.Cycles, detail string) {
	k.Eng.Trace().Record(at, k.tag(), detail)
}

// SyscallEntryCost implements kernel.OS.
func (k *Kernel) SyscallEntryCost() sim.Cycles { return syscallCost }

// NextInterrupt implements kernel.OS: CNK has no timer tick. The only
// interrupts are directed IPIs.
func (k *Kernel) NextInterrupt(t *kernel.Thread) sim.Cycles {
	cs := k.cores[t.CoreID()]
	if len(cs.pendingIPIs) > 0 {
		return k.Eng.Now()
	}
	return sim.Forever
}

// ServiceInterrupt implements kernel.OS.
func (k *Kernel) ServiceInterrupt(t *kernel.Thread) {
	cs := k.cores[t.CoreID()]
	u := k.Chip.UPC
	for len(cs.pendingIPIs) > 0 {
		fn := cs.pendingIPIs[0]
		cs.pendingIPIs = cs.pendingIPIs[1:]
		cs.Core.Interrupts++
		cs.Core.IPIs++
		u.Inc(cs.Core.ID, upc.Interrupt)
		u.Inc(cs.Core.ID, upc.IPI)
		ipiStart := k.Eng.Now()
		t.Coro().Sleep(ipiCost)
		fn(t)
		k.rt.Obs.Emit(obs.CatSched, "cnk:ipi", k.Chip.ID, t.CoreID(), ipiStart, k.Eng.Now(), 0)
	}
	k.rt.DeliverSignals(t)
}

// MemEvent implements kernel.OS.
func (k *Kernel) MemEvent(t *kernel.Thread, ev hw.MemEvent, va hw.VAddr, write bool) {
	switch ev {
	case hw.EvL1Parity:
		// CNK signals the application so it can recover without a
		// checkpoint/restart cycle (paper Section V-B, the 2007 Gordon
		// Bell run).
		k.rt.Raise(t, kernel.SigInfo{Sig: kernel.SIGBUS, Addr: va, Code: 1})
	case hw.EvDDRUncorrectable:
		// An uncorrectable DDR error is not survivable: CNK logs the RAS
		// event and kills the job cleanly rather than risk silent data
		// corruption. Recovery is the control system's job — for bringup,
		// a reproducible reset and an identical re-run (contrast the FWK,
		// which scrubs in place with jittery in-kernel recovery).
		k.Chip.Faults.Report(ras.JobKill, "cnk",
			fmt.Sprintf("uncorrectable DDR error at va %#x, killing pid %d", uint64(va), t.PID()))
		k.trace(k.Eng.Now(), fmt.Sprintf("uncorrectable DDR error at va %#x: killing pid %d", uint64(va), t.PID()))
		k.rt.Exit(t, 128+int(kernel.SIGBUS))
	default:
		// Permission or guard fault.
		k.rt.Raise(t, kernel.SigInfo{Sig: kernel.SIGSEGV, Addr: va, Code: 2})
	}
}

// Translate implements kernel.OS: a pure static-map lookup. There are no
// page faults; addresses outside the map are errors. The per-core hardware
// TLB is consulted so the zero-miss property is measured, not assumed.
func (k *Kernel) Translate(t *kernel.Thread, va hw.VAddr, write bool) (hw.PAddr, uint64, hw.Perm, kernel.Errno) {
	core := t.HWCore()
	if pa, perm, ok := core.TLB.Lookup(t.PID(), va); ok {
		p := k.procs[t.PID()]
		contig := p.contigFrom(va)
		if contig == 0 {
			// Not in a layout region: a persist-region hit.
			if e, ok := p.persistEntry(va); ok {
				contig = uint64(e.Size) - uint64(va-e.VBase)
			}
		}
		if contig == 0 {
			return 0, 0, 0, kernel.EFAULT
		}
		return pa, contig, perm, kernel.OK
	}
	// A miss under the static map means the address is unmapped (or a
	// persist region mapped on another core — install lazily, pinned).
	p := k.procs[t.PID()]
	if p != nil {
		if e, ok := p.persistEntry(va); ok {
			core.TLB.InsertPinned(e)
			return e.Translate(va), uint64(e.Size) - uint64(va-e.VBase), e.Perms, kernel.OK
		}
		// A layout-covered address can only miss if hardware invalidated
		// its entry (TLB parity): the static map is fully installed at
		// launch and never evicted. CNK's recovery is a re-install from
		// the map — cheap, deterministic, and logged to RAS.
		for _, e := range p.Layout.TLBEntries(p.PID) {
			if va >= e.VBase && uint64(va-e.VBase) < uint64(e.Size) {
				t.Coro().Sleep(tlbReinstallCost)
				core.TLB.InsertPinned(e)
				k.Chip.Faults.Report(ras.Recovery, "cnk",
					fmt.Sprintf("reinstalled static TLB entry for va %#x after parity invalidation", uint64(va)))
				return e.Translate(va), uint64(e.Size) - uint64(va-e.VBase), e.Perms, kernel.OK
			}
		}
	}
	return 0, 0, 0, kernel.EFAULT
}

// VtoP implements kernel.OS: under CNK the process "can query the static
// map during initialization and reference it during runtime without having
// to coordinate with CNK" (paper Section IV-C) — zero cost, one contiguous
// range per region.
func (k *Kernel) VtoP(t *kernel.Thread, va hw.VAddr, size uint64) ([]kernel.PhysRange, kernel.Errno) {
	p := k.procs[t.PID()]
	if p == nil {
		return nil, kernel.ESRCH
	}
	prs, ok := p.Layout.PhysRanges(va, size)
	if !ok {
		if pr, ok2 := p.persistRange(va, size); ok2 {
			return pr, kernel.OK
		}
		return nil, kernel.EFAULT
	}
	out := make([]kernel.PhysRange, len(prs))
	for i, r := range prs {
		out[i] = kernel.PhysRange{PA: r.PA, Len: r.Len}
	}
	return out, kernel.OK
}
