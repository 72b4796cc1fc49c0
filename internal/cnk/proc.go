package cnk

import (
	"fmt"

	"bgcnk/internal/ciod"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/mem"
)

// Proc is one CNK process: a rank of the job on this node.
type Proc struct {
	kernel.Process
	Rank int // process slot on the node

	Layout *mem.ProcLayout
	Mmap   *mem.MmapTracker
	Brk    *mem.Brk

	// tlb is the static map as pinned TLB entries, rendered once at
	// launch and installed from here on every core that runs the process.
	tlb []hw.TLBEntry

	cores []*coreSched // cores assigned to this process

	// lastMprotect is CNK's guard-page heuristic state: NPTL mprotects
	// the guard range just before clone, and CNK assumes the last
	// mprotect applies to the new thread (paper Section IV-C).
	lastMprotect struct {
		va    hw.VAddr
		size  uint64
		valid bool
	}

	// mainGuard tracks the main thread's guard range at the heap
	// boundary so it can be repositioned when the heap grows.
	mainGuard struct {
		size uint64
		set  bool
	}

	// persistMaps are persistent regions this process opened.
	persistMaps []*mem.PersistRegion

	// remoteCores are cores temporarily lent to this process by the
	// extended thread-affinity model (paper Section VIII).
	remoteCores []*coreSched

	ioStarted bool
}

// contigFrom reports how many bytes are mapped contiguously from va.
func (p *Proc) contigFrom(va hw.VAddr) uint64 {
	for _, r := range p.Layout.Regions() {
		if r.Contains(va) {
			return r.Covered - uint64(va-r.VBase)
		}
	}
	return 0
}

// persistEntry returns a pinned TLB entry covering va if it falls in one
// of the process's opened persistent regions.
func (p *Proc) persistEntry(va hw.VAddr) (hw.TLBEntry, bool) {
	for _, r := range p.persistMaps {
		if va >= r.VA && uint64(va-r.VA) < r.Size {
			return hw.TLBEntry{
				PID: p.PID, VBase: r.VA, PBase: r.PA,
				Size: persistPageFor(r.Size), Perms: hw.PermRW,
			}, true
		}
	}
	return hw.TLBEntry{}, false
}

func persistPageFor(size uint64) hw.PageSize {
	for i := len(hw.PageSizes) - 1; i >= 0; i-- {
		if uint64(hw.PageSizes[i]) <= size {
			return hw.PageSizes[i]
		}
	}
	return hw.Page4K
}

func (p *Proc) persistRange(va hw.VAddr, size uint64) ([]kernel.PhysRange, bool) {
	for _, r := range p.persistMaps {
		if va >= r.VA && uint64(va-r.VA)+size <= r.Size {
			return []kernel.PhysRange{{PA: r.PA + hw.PAddr(va-r.VA), Len: size}}, true
		}
	}
	return nil, false
}

// Job tracks a launched job: its processes and the node's partition.
type Job struct {
	kernel.Job[*Proc]
	Layout *mem.NodeLayout
}

// Launch partitions memory, creates the job's processes with their static
// TLB maps installed, starts ioproxies, and schedules the main threads.
// The engine must then be run to execute the job.
func (k *Kernel) Launch(spec kernel.JobSpec) (*Job, error) {
	if !k.booted {
		return nil, fmt.Errorf("cnk: launch before boot")
	}
	spec = spec.WithDefaults()
	nl, err := mem.Partition(mem.PartitionConfig{
		DDRBytes:  k.Chip.Mem.Size() - (64 << 20), // top window reserved for persistent memory
		Procs:     spec.Params.ProcsPerNode,
		TextBytes: spec.TextBytes,
		DataBytes: spec.DataBytes,
		ShmBytes:  spec.Params.ShmBytes,
	})
	if err != nil {
		return nil, err
	}
	job := &Job{Layout: nl}
	coresPerProc := len(k.cores) / spec.Params.ProcsPerNode
	for i := 0; i < spec.Params.ProcsPerNode; i++ {
		k.nextPID++
		p := &Proc{
			Process: kernel.Process{PID: k.nextPID, UID: spec.UID, GID: spec.GID},
			Rank:    i,
			Layout:  &nl.Procs[i],
		}
		// The mmap arena sits in the upper half of heap+stack, between
		// brk (growing up) and the stacks (growing down from the top).
		hs := &p.Layout.HeapStack
		arenaLo := hs.VBase + hw.VAddr(hs.Covered/2)
		stackReserve := hw.VAddr(hs.Covered / 8)
		p.Mmap = mem.NewMmapTracker(arenaLo, p.Layout.StackTop-stackReserve, 4096)
		p.Brk = mem.NewBrk(p.Layout.HeapBase, arenaLo)
		for c := 0; c < coresPerProc; c++ {
			p.cores = append(p.cores, k.cores[i*coresPerProc+c])
		}
		// Install the static map on every core assigned to the process.
		p.tlb = p.Layout.TLBEntries(p.PID)
		for _, cs := range p.cores {
			for _, e := range p.tlb {
				cs.Core.TLB.InsertPinned(e)
			}
		}
		k.procs[p.PID] = p
		job.Procs = append(job.Procs, p)
		k.trace(k.Eng.Now(), fmt.Sprintf("launch pid=%d rank=%d mode=%s", p.PID, i, spec.Params.Mode()))
		k.startMain(p, spec)
	}
	return job, nil
}

// startMain creates the process's initial thread on its first core.
func (k *Kernel) startMain(p *Proc, spec kernel.JobSpec) {
	k.nextTID++
	t := p.NewThread(k, k.nextTID)
	cs := p.cores[0]
	// The main thread's guard page sits at the heap boundary (paper Fig
	// 4); reposition on heap growth is handled in the brk syscall.
	guard := spec.Params.GuardBytes
	p.mainGuard.size = guard
	p.mainGuard.set = true
	cs.Core.DAC[0] = hw.DACRange{
		Enabled: true, PID: p.PID,
		Lo: p.Brk.Cur, Hi: p.Brk.Cur + hw.VAddr(guard),
	}
	// Position brk above the guard so ordinary allocations don't trip it.
	p.Brk.Base += hw.VAddr(guard)
	p.Brk.Cur = p.Brk.Base

	cs.place(t)
	k.rt.Spawn(fmt.Sprintf("pid%d.main", p.PID), t, &cs.CPU, k.BootedAt, func() {
		k.ioProcStart(t, p)
		spec.Main(t, p.Rank)
	})
}

// Clone implements kernel.OS: thread creation for NPTL. CNK validates the
// flags against the static set glibc uses and supports nothing else
// (paper Section IV-B1); fork-style clones are rejected.
func (k *Kernel) Clone(t *kernel.Thread, args kernel.CloneArgs) (uint32, kernel.Errno) {
	if args.Flags != kernel.NPTLCloneFlags {
		return 0, kernel.EINVAL
	}
	p := k.procs[t.PID()]
	if p == nil {
		return 0, kernel.ESRCH
	}
	cs := k.pickCore(p)
	if cs == nil {
		return 0, kernel.EAGAIN // thread budget exhausted (paper VII-B: no overcommit)
	}
	k.nextTID++
	nt := p.NewThread(k, k.nextTID)
	nt.ClearTID = args.ChildTID
	if args.ParentTID != 0 {
		t.StoreU32(args.ParentTID, nt.TID())
	}
	// Guard-page heuristic: the last mprotect before clone covers the new
	// thread's stack guard; arm a DAC range on the child's core.
	if p.lastMprotect.valid {
		cs.Core.DAC[1] = hw.DACRange{
			Enabled: true, PID: p.PID,
			Lo: p.lastMprotect.va, Hi: p.lastMprotect.va + hw.VAddr(p.lastMprotect.size),
		}
		p.lastMprotect.valid = false
	}
	fn := args.Fn
	cs.place(nt)
	k.rt.Spawn(fmt.Sprintf("pid%d.tid%d", p.PID, nt.TID()), nt, &cs.CPU, k.BootedAt, func() { fn(nt) })
	return nt.TID(), kernel.OK
}

// pickCore chooses the new thread's core: fixed affinity, preferring an
// idle core of the process, never exceeding the per-core budget.
func (k *Kernel) pickCore(p *Proc) *coreSched {
	var best *coreSched
	pool := append(append([]*coreSched{}, p.cores...), p.remoteCores...)
	for _, cs := range pool {
		if cs.load() >= k.cfg.MaxThreadsPerCore {
			continue
		}
		if best == nil || cs.load() < best.load() {
			best = cs
		}
	}
	return best
}

// LendCore implements the extended thread-affinity model of paper Section
// VIII: a core of process from is designated to also execute pthreads of
// process to ("a given core [may] alternate between executing a pthread
// from its assigned process and executing a pthread from a single
// designated remote process"). Only one remote process per core.
func (k *Kernel) LendCore(coreID int, from, to *Proc) error {
	if coreID < 0 || coreID >= len(k.cores) {
		return fmt.Errorf("cnk: no core %d", coreID)
	}
	cs := k.cores[coreID]
	owned := false
	for _, c := range from.cores {
		if c == cs {
			owned = true
		}
	}
	if !owned {
		return fmt.Errorf("cnk: core %d is not assigned to pid %d", coreID, from.PID)
	}
	for _, c := range to.remoteCores {
		if c == cs {
			return fmt.Errorf("cnk: core %d already lent to pid %d", coreID, to.PID)
		}
	}
	if cs.lentTo != 0 {
		return fmt.Errorf("cnk: core %d already lent to pid %d", coreID, cs.lentTo)
	}
	cs.lentTo = to.PID
	to.remoteCores = append(to.remoteCores, cs)
	// The remote process's static map must be visible on the lent core.
	for _, e := range to.tlb {
		cs.Core.TLB.InsertPinned(e)
	}
	k.trace(k.Eng.Now(), fmt.Sprintf("core %d lent from pid %d to pid %d", coreID, from.PID, to.PID))
	return nil
}

// finishProc tears the process down once its last thread has exited with
// code: ioproxy exit, TLB invalidation on its cores, the trace line. last
// is the thread performing the teardown.
func (k *Kernel) finishProc(p *Proc, code int, last *kernel.Thread) {
	if p.ioStarted && k.cfg.IO != nil {
		k.cfg.IO.Call(last.Coro(), &ciod.Request{Op: ciod.OpProcExit, PID: p.PID})
	}
	for _, cs := range p.cores {
		cs.Core.TLB.InvalidateASID(p.PID)
		cs.Core.DAC[0].Enabled = false
		cs.Core.DAC[1].Enabled = false
	}
	k.trace(k.Eng.Now(), fmt.Sprintf("pid %d exited code %d", p.PID, code))
}

// ioProcStart registers the process's ioproxy with CIOD on first touch.
func (k *Kernel) ioProcStart(t *kernel.Thread, p *Proc) {
	if p.ioStarted || k.cfg.IO == nil {
		return
	}
	p.ioStarted = true
	k.cfg.IO.Call(t.Coro(), &ciod.Request{
		Op: ciod.OpProcStart, PID: p.PID, UID: p.UID, GID: p.GID,
	})
}

// Proc returns the process with the given pid.
func (k *Kernel) Proc(pid uint32) *Proc { return k.procs[pid] }
