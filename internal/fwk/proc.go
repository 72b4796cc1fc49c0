package fwk

import (
	"fmt"

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
	PID uint32
	UID uint32
	GID uint32

	vmas  *mem.MmapTracker // all mappings, 4KB granularity
	pages map[uint64]hw.PAddr
	Brk   *mem.Brk
	Sig   kernel.SignalTable

	fsc *fs.Client

	Threads     map[uint32]*kernel.Thread
	Main        *kernel.Thread
	liveThreads int
	exitCode    int
	done        bool

	StackTop hw.VAddr
	HeapBase hw.VAddr
}

// Done reports process completion.
func (p *Proc) Done() bool { return p.done }

// ExitCode returns the exit status.
func (p *Proc) ExitCode() int { return p.exitCode }

// JobSpec mirrors cnk.JobSpec so experiments can run the same workload on
// both kernels.
type JobSpec struct {
	Params    kernel.JobParams
	TextBytes uint64
	DataBytes uint64
	UID, GID  uint32
	Main      func(ctx kernel.Context, rank int)
}

// Job tracks the launched processes.
type Job struct{ Procs []*Proc }

// Done reports whether all processes exited.
func (j *Job) Done() bool {
	for _, p := range j.Procs {
		if !p.done {
			return false
		}
	}
	return true
}

// Launch creates the requested processes. Unlike CNK there is no static
// partition: every process gets the full (3GB) address space, demand-paged.
func (k *Kernel) Launch(spec JobSpec) (*Job, error) {
	if !k.booted {
		return nil, fmt.Errorf("fwk: launch before boot")
	}
	if spec.Params.ProcsPerNode == 0 {
		spec.Params.ProcsPerNode = 1
	}
	if spec.TextBytes == 0 {
		spec.TextBytes = 1 << 20
	}
	job := &Job{}
	for i := 0; i < spec.Params.ProcsPerNode; i++ {
		p := k.newProc(spec)
		job.Procs = append(job.Procs, p)
		rank := i
		k.startThread(p, nil, func(ctx kernel.Context) { spec.Main(ctx, rank) }, true)
	}
	return job, nil
}

func (k *Kernel) newProc(spec JobSpec) *Proc {
	k.nextPID++
	p := &Proc{
		PID: k.nextPID, UID: spec.UID, GID: spec.GID,
		vmas:    mem.NewMmapTracker(vTextBase, vUserTop, pageSize),
		pages:   make(map[uint64]hw.PAddr),
		fsc:     fs.NewClient(k.FS, fs.Cred{UID: spec.UID, GID: spec.GID}),
		Threads: make(map[uint32]*kernel.Thread),
	}
	text := hw.AlignUp(spec.TextBytes, pageSize)
	data := hw.AlignUp(maxU64(spec.DataBytes, pageSize), pageSize)
	p.vmas.AllocFixed(vTextBase, text, hw.PermRX)
	dataBase := vTextBase + hw.VAddr(text)
	p.vmas.AllocFixed(dataBase, data, hw.PermRW)
	p.HeapBase = dataBase + hw.VAddr(data)
	heapMax := uint64(512 << 20)
	p.vmas.AllocFixed(p.HeapBase, heapMax, hw.PermRW)
	p.Brk = mem.NewBrk(p.HeapBase, p.HeapBase+hw.VAddr(heapMax))
	p.StackTop = vUserTop
	p.vmas.AllocFixed(vUserTop-hw.VAddr(stackSize), stackSize, hw.PermRW)
	k.procs[p.PID] = p
	return p
}

// startThread creates a thread in p. pin, when non-nil, forces the CPU.
func (k *Kernel) startThread(p *Proc, pin *cpu, fn kernel.ThreadFunc, isMain bool) *kernel.Thread {
	k.nextTID++
	t := kernel.NewThread(k, k.nextTID, p.PID, &p.Sig)
	p.Threads[t.TID()] = t
	p.liveThreads++
	if isMain {
		p.Main = t
	}
	c := pin
	if c == nil {
		c = k.pickCPU()
	}
	k.rt.Spawn(fmt.Sprintf("fwk.pid%d.tid%d", p.PID, t.TID()), t, c.core, func() {
		if now := t.Now(); now < k.BootedAt {
			t.Coro().Sleep(k.BootedAt - now) // jobs start once the kernel is up
		}
		c.acquire(t)
		fn(t)
	})
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
	nt := k.startThread(p, nil, args.Fn, false)
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
	k.nextPID++
	child := &Proc{
		PID: k.nextPID, UID: parent.UID, GID: parent.GID,
		vmas:     mem.NewMmapTracker(vTextBase, vUserTop, pageSize),
		pages:    make(map[uint64]hw.PAddr),
		fsc:      fs.NewClient(k.FS, fs.Cred{UID: parent.UID, GID: parent.GID}),
		Threads:  make(map[uint32]*kernel.Thread),
		Brk:      mem.NewBrk(parent.Brk.Base, parent.Brk.Limit),
		HeapBase: parent.HeapBase,
		StackTop: parent.StackTop,
	}
	child.Brk.Cur = parent.Brk.Cur
	for _, r := range parent.vmas.Allocated() {
		child.vmas.AllocFixed(r.VA, r.Size, r.Perms)
	}
	// Copy resident pages (eager copy; COW is an optimization the model
	// doesn't need). Charged per page.
	buf := make([]byte, pageSize)
	for vp, frame := range parent.pages {
		nf, ok := k.allocFrame()
		if !ok {
			return 0, kernel.ENOMEM
		}
		k.Chip.Mem.Read(frame, buf)
		k.Chip.Mem.Write(nf, buf)
		child.pages[vp] = nf
	}
	t.Coro().Sleep(sim.Cycles(uint64(len(parent.pages)))*40 + 8000)
	k.procs[child.PID] = child
	k.startThread(child, nil, childMain, true)
	return child.PID, kernel.OK
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
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
	if p.liveThreads > 1 {
		return kernel.EBUSY // exec with live sibling threads unsupported in the model
	}
	// Release the old image.
	for vp, f := range p.pages {
		k.freeFrame(f)
		delete(p.pages, vp)
	}
	for _, c := range k.cpus {
		c.core.TLB.InvalidateASID(p.PID)
	}
	// Fresh VMAs.
	p.vmas = mem.NewMmapTracker(vTextBase, vUserTop, pageSize)
	text := hw.AlignUp(maxU64(textBytes, pageSize), pageSize)
	data := hw.AlignUp(maxU64(dataBytes, pageSize), pageSize)
	p.vmas.AllocFixed(vTextBase, text, hw.PermRX)
	dataBase := vTextBase + hw.VAddr(text)
	p.vmas.AllocFixed(dataBase, data, hw.PermRW)
	p.HeapBase = dataBase + hw.VAddr(data)
	heapMax := uint64(512 << 20)
	p.vmas.AllocFixed(p.HeapBase, heapMax, hw.PermRW)
	p.Brk = mem.NewBrk(p.HeapBase, p.HeapBase+hw.VAddr(heapMax))
	p.vmas.AllocFixed(vUserTop-hw.VAddr(stackSize), stackSize, hw.PermRW)
	p.Sig = kernel.SignalTable{}
	t.Coro().Sleep(12_000) // image load
	newMain(t)
	k.rt.Exit(t, 0)
	return kernel.OK // unreachable
}
