package fwk

import (
	"fmt"
	"maps"
	"slices"

	"bgcnk/internal/fs"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/mem"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// Virtual layout constants. A 32-bit Linux task tops out at 3GB (paper
// VII-A: "Linux typically limits a task to 3GB of the address space due to
// 32-bit limitations"), versus CNK's nearly-4GB.
const (
	vTextBase = hw.VAddr(16 << 20)
	vUserTop  = hw.VAddr(0xC0000000) // 3GB
	stackSize = uint64(8 << 20)
	pageSize  = uint64(4096)
)

// Proc is one FWK process: VMAs, page table, file table.
type Proc struct {
	kernel.Process

	vmas  *mem.MmapTracker // all mappings, 4KB granularity
	pages map[uint64]hw.PAddr
	Brk   *mem.Brk

	fsc *fs.Client

	StackTop hw.VAddr
	HeapBase hw.VAddr
}

// Job tracks the launched processes.
type Job = kernel.Job[*Proc]

// Launch creates the requested processes. Unlike CNK there is no static
// partition: every process gets the full (3GB) address space, demand-paged.
func (k *Kernel) Launch(spec kernel.JobSpec) (*Job, error) {
	if !k.booted {
		return nil, fmt.Errorf("fwk: launch before boot")
	}
	spec = spec.WithDefaults()
	job := &Job{}
	for i := 0; i < spec.Params.ProcsPerNode; i++ {
		p := k.newProc(spec.UID, spec.GID)
		p.mapImage(spec.TextBytes, spec.DataBytes)
		k.procs[p.PID] = p
		job.Procs = append(job.Procs, p)
		rank := i
		k.startThread(p, func(ctx kernel.Context) { spec.Main(ctx, rank) })
	}
	return job, nil
}

// newProc makes a process of uid and gid with the next PID, no memory and
// an empty file table; the caller maps its image and registers it.
func (k *Kernel) newProc(uid, gid uint32) *Proc {
	k.nextPID++
	return &Proc{
		Process:  kernel.Process{PID: k.nextPID, UID: uid, GID: gid},
		pages:    make(map[uint64]hw.PAddr),
		fsc:      fs.NewClient(k.FS, fs.Cred{UID: uid, GID: gid}),
		StackTop: vUserTop,
	}
}

// mapImage gives p a fresh address space holding a program image: text
// and data from vTextBase, each at least a page, a 512 MiB heap above
// them, and the stack below vUserTop.
func (p *Proc) mapImage(textBytes, dataBytes uint64) {
	p.vmas = mem.NewMmapTracker(vTextBase, vUserTop, pageSize)
	text := hw.AlignUp(max(textBytes, pageSize), pageSize)
	data := hw.AlignUp(max(dataBytes, pageSize), pageSize)
	p.vmas.AllocFixed(vTextBase, text, hw.PermRX)
	dataBase := vTextBase + hw.VAddr(text)
	p.vmas.AllocFixed(dataBase, data, hw.PermRW)
	p.HeapBase = dataBase + hw.VAddr(data)
	heapMax := uint64(512 << 20)
	p.vmas.AllocFixed(p.HeapBase, heapMax, hw.PermRW)
	p.Brk = mem.NewBrk(p.HeapBase, p.HeapBase+hw.VAddr(heapMax))
	p.vmas.AllocFixed(vUserTop-hw.VAddr(stackSize), stackSize, hw.PermRW)
}

// startThread creates a thread in p on the least-loaded core.
func (k *Kernel) startThread(p *Proc, fn kernel.ThreadFunc) *kernel.Thread {
	k.nextTID++
	t := p.NewThread(k, k.nextTID)
	c := k.pickCPU()
	k.rt.Spawn(fmt.Sprintf("fwk.pid%d.tid%d", p.PID, t.TID()), t, &c.CPU, k.BootedAt, func() { fn(t) })
	return t
}

// Clone implements kernel.OS. An FWK accepts thread creation with the NPTL
// flags and also over-committed thread counts (Table II: "Over commit of
// threads: medium" — possible, needs no special setup here).
func (k *Kernel) Clone(t *kernel.Thread, args kernel.CloneArgs) (uint32, kernel.Errno) {
	p := k.procs[t.PID()]
	if p == nil {
		return 0, kernel.ESRCH
	}
	if args.Flags&kernel.CloneVM == 0 {
		return 0, kernel.EINVAL // process-style clone goes through Fork
	}
	nt := k.startThread(p, args.Fn)
	nt.ClearTID = args.ChildTID
	if args.ParentTID != 0 {
		t.StoreU32(args.ParentTID, nt.TID())
	}
	return nt.TID(), kernel.OK
}

// Fork is the typed face of fork(): a full new process whose memory is a
// copy of the parent's. childMain runs as the child's initial thread (in a
// real fork it would "return 0 from fork"; closures stand in for the
// program counter). CNK has no equivalent (paper VII-B).
func (k *Kernel) Fork(t *kernel.Thread, childMain kernel.ThreadFunc) (uint32, kernel.Errno) {
	parent := k.procs[t.PID()]
	if parent == nil {
		return 0, kernel.ESRCH
	}
	child := k.newProc(parent.UID, parent.GID)
	child.vmas = mem.NewMmapTracker(vTextBase, vUserTop, pageSize)
	child.Brk = mem.NewBrk(parent.Brk.Base, parent.Brk.Limit)
	child.Brk.Cur = parent.Brk.Cur
	child.HeapBase = parent.HeapBase
	for _, r := range parent.vmas.Allocated() {
		child.vmas.AllocFixed(r.VA, r.Size, r.Perms)
	}
	// Copy resident pages (eager copy; COW is an optimization the model
	// doesn't need). Charged per page.
	buf := make([]byte, pageSize)
	for _, vp := range parent.residentPages() {
		nf, ok := k.allocFrame()
		if !ok {
			return 0, kernel.ENOMEM
		}
		k.Chip.Mem.Read(parent.pages[vp], buf)
		k.Chip.Mem.Write(nf, buf)
		child.pages[vp] = nf
	}
	t.Coro().Sleep(sim.Cycles(uint64(len(parent.pages)))*40 + 8000)
	k.procs[child.PID] = child
	k.startThread(child, childMain)
	return child.PID, kernel.OK
}

// residentPages returns p's resident virtual page numbers in ascending
// order. Every walk of the resident set goes through it, so the frames a
// fork hands out and the order a release pushes frames onto the LIFO free
// list, and with it the frames later faults get, are the same on every
// run.
func (p *Proc) residentPages() []uint64 {
	vps := slices.AppendSeq(make([]uint64, 0, len(p.pages)), maps.Keys(p.pages))
	slices.Sort(vps)
	return vps
}

// releasePages frees every resident page of p and shoots its entries
// down from each core's TLB.
func (k *Kernel) releasePages(p *Proc) {
	for _, vp := range p.residentPages() {
		k.freeFrame(p.pages[vp])
	}
	clear(p.pages)
	for _, c := range k.cpus {
		c.Core.TLB.InvalidateASID(p.PID)
	}
}

// Proc returns the process with the given PID.
func (k *Kernel) Proc(pid uint32) *Proc { return k.procs[pid] }

// Translate implements kernel.OS: VMA check, TLB lookup, software refill,
// demand paging. Every cost a static map avoids lives here.
func (k *Kernel) Translate(t *kernel.Thread, va hw.VAddr, write bool) (hw.PAddr, uint64, hw.Perm, kernel.Errno) {
	p := k.procs[t.PID()]
	if p == nil {
		return 0, 0, 0, kernel.ESRCH
	}
	vma, ok := p.vmas.Find(va)
	if !ok {
		return 0, 0, 0, kernel.EFAULT
	}
	core := t.HWCore()
	if pa, perm, ok := core.TLB.Lookup(t.PID(), va); ok {
		return pa, pageSize - uint64(va)%pageSize, perm, kernel.OK
	}
	// Software TLB refill.
	t.Coro().Sleep(tlbRefillCost)
	vp := uint64(va) / pageSize
	frame, present := p.pages[vp]
	if !present {
		// Demand paging: minor fault, fresh zeroed frame.
		k.Chip.UPC.Inc(core.ID, upc.PageFault)
		t.Coro().Sleep(pageFaultCost)
		f, ok := k.allocFrame()
		if !ok {
			return 0, 0, 0, kernel.ENOMEM
		}
		zero := make([]byte, pageSize)
		k.Chip.Mem.Write(f, zero)
		p.pages[vp] = f
		frame = f
	}
	core.TLB.Insert(hw.TLBEntry{
		PID: t.PID(), VBase: hw.VAddr(vp * pageSize), PBase: frame,
		Size: hw.Page4K, Perms: vma.Perms,
	})
	return frame + hw.PAddr(uint64(va)%pageSize), pageSize - uint64(va)%pageSize, vma.Perms, kernel.OK
}

// VtoP implements kernel.OS: on an FWK this is a pinning operation — a
// system call per range plus per-page work, and the result is one range
// per (scattered) 4KB page. Compare CNK's free, single-range answer.
func (k *Kernel) VtoP(t *kernel.Thread, va hw.VAddr, size uint64) ([]kernel.PhysRange, kernel.Errno) {
	t.Coro().Sleep(syscallCost)
	p := k.procs[t.PID()]
	if p == nil {
		return nil, kernel.ESRCH
	}
	var out []kernel.PhysRange
	for size > 0 {
		pa, contig, _, errno := k.Translate(t, va, false)
		if errno != kernel.OK {
			return nil, errno
		}
		t.Coro().Sleep(45) // per-page pin cost
		n := size
		if n > contig {
			n = contig
		}
		if len(out) > 0 && out[len(out)-1].PA+hw.PAddr(out[len(out)-1].Len) == pa {
			out[len(out)-1].Len += n
		} else {
			out = append(out, kernel.PhysRange{PA: pa, Len: n})
		}
		va += hw.VAddr(n)
		size -= n
	}
	return out, kernel.OK
}

// Exec is the typed face of execve: the process's memory image is torn
// down and replaced, and control transfers to the new program (newMain
// never returns to the caller). Together with Fork this is what lets an
// FWK application "be structured as a shell script that forks off related
// executables" — the capability CNK deliberately lacks (paper VII-B).
func (k *Kernel) Exec(t *kernel.Thread, textBytes, dataBytes uint64, newMain kernel.ThreadFunc) kernel.Errno {
	p := k.procs[t.PID()]
	if p == nil {
		return kernel.ESRCH
	}
	if p.Live() > 1 {
		return kernel.EBUSY // exec with live sibling threads unsupported in the model
	}
	k.releasePages(p)
	p.mapImage(textBytes, dataBytes)
	p.Sig = kernel.SignalTable{}
	t.Coro().Sleep(12_000) // image load
	newMain(t)
	k.rt.Exit(t, 0)
	return kernel.OK // unreachable
}
