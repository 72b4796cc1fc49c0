package cnk

import (
	"fmt"

	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
)

// Syscall implements kernel.OS. In reproducible mode it records each
// call in the engine trace, then runs the shared front end (kernel.Serve),
// which hands CNK's own calls to call.
func (k *Kernel) Syscall(t *kernel.Thread, num kernel.Sys, args []uint64) (uint64, kernel.Errno) {
	if k.cfg.Reproducible {
		k.trace(k.Eng.Now(), fmt.Sprintf("pid%d tid%d %v", t.PID(), t.TID(), num))
	}
	return kernel.Serve(&k.rt, t, num, args, k.procs[t.PID()], k.call)
}

// call serves the calls that are CNK's own. Argument conventions follow
// the Linux ABI shape: buffers and paths are virtual addresses in the
// calling process.
//
// CNK implements locally only what the paper lists (Section IV): memory
// (brk/mmap/munmap/mprotect/shmget), yield, and the persistent-memory
// extension; the front end serves the thread and identity calls. Every
// file-I/O call is function-shipped (io.go). fork and exec do not exist
// and return ENOSYS like any other call CNK lacks (paper VII-B: "MPI
// cannot spawn dynamic tasks because CNK does not allow fork/exec").
func (k *Kernel) call(t *kernel.Thread, p *Proc, num kernel.Sys, args []uint64) (uint64, kernel.Errno) {
	if num.IsFileIO() {
		return k.shipIO(t, p, num, args)
	}
	switch num {
	case kernel.SysBrk:
		return k.sysBrk(t, p, hw.VAddr(kernel.Arg(args, 0)))
	case kernel.SysMmap:
		return k.sysMmap(t, p, args)
	case kernel.SysMunmap:
		p.Mmap.Free(hw.VAddr(kernel.Arg(args, 0)), kernel.Arg(args, 1))
		return 0, kernel.OK
	case kernel.SysMprotect:
		va, length, prot := hw.VAddr(kernel.Arg(args, 0)), kernel.Arg(args, 1), kernel.Arg(args, 2)
		return k.sysMprotect(t, p, va, length, prot)
	case kernel.SysShmGet:
		if outVA := hw.VAddr(kernel.Arg(args, 0)); outVA != 0 {
			t.StoreU64(outVA, p.Layout.Shm.Req)
		}
		return uint64(p.Layout.Shm.VBase), kernel.OK
	case kernel.SysYield:
		k.cores[t.CoreID()].Yield(t)
		return 0, kernel.OK
	case kernel.SysPersistOpen:
		return k.sysPersistOpen(t, p, args)
	}
	return 0, kernel.ENOSYS
}

// sysBrk moves the break. Growing the heap repositions the main thread's
// guard area via an IPI to its core (paper Fig 4: "when the heap boundary
// is extended, CNK issues an inter-processor interrupt to the main thread
// in order to reposition the guard area").
func (k *Kernel) sysBrk(t *kernel.Thread, p *Proc, to hw.VAddr) (uint64, kernel.Errno) {
	old := p.Brk.Cur
	cur, ok := p.Brk.Set(to)
	if !ok {
		return uint64(p.Brk.Cur), kernel.ENOMEM
	}
	if cur > old && p.mainGuard.set {
		mainCore := k.cores[p.Main.CoreID()]
		guard := p.mainGuard.size
		pid := p.PID
		newLo := cur
		mainCore.postIPI(func(mt *kernel.Thread) {
			mt.Coro().Sleep(guardRepositionCost)
			mainCore.Core.DAC[0] = hw.DACRange{
				Enabled: true, PID: pid,
				Lo: newLo, Hi: newLo + hw.VAddr(guard),
			}
		})
		// The DAC hardware is updated immediately so the allocating
		// thread cannot fault on legitimately allocated storage; the IPI
		// models the interrupt cost the main thread observes.
		mainCore.Core.DAC[0] = hw.DACRange{
			Enabled: true, PID: pid,
			Lo: cur, Hi: cur + hw.VAddr(guard),
		}
	}
	return uint64(cur), kernel.OK
}

// sysMmap: with the static map, mmap "merely provides free addresses to
// the application" (paper IV-C). File-backed mappings copy the whole file
// in at map time and are read-only (paper VI-A).
func (k *Kernel) sysMmap(t *kernel.Thread, p *Proc, args []uint64) (uint64, kernel.Errno) {
	addr, length := hw.VAddr(kernel.Arg(args, 0)), kernel.Arg(args, 1)
	prot, flags := kernel.Arg(args, 2), kernel.Arg(args, 3)
	fd, off := int64(kernel.Arg(args, 4)), int64(kernel.Arg(args, 5))
	if length == 0 {
		return 0, kernel.EINVAL
	}
	perms := kernel.ProtPerm(prot)
	var va hw.VAddr
	if flags&kernel.MapFixed != 0 {
		if err := p.Mmap.AllocFixed(addr, length, perms); err != nil {
			return 0, kernel.ENOMEM
		}
		va = addr
	} else {
		a, err := p.Mmap.Alloc(length, perms)
		if err != nil {
			return 0, kernel.ENOMEM
		}
		va = a
	}
	if flags&kernel.MapAnonymous == 0 && fd >= 0 {
		// Load the full file contents now: no demand paging, no
		// page-fault noise later; the cost lands at map time (paper
		// IV-B2). The mapping is read-only regardless of prot; with
		// MAP_COPY (ld.so) the pages are private copies.
		if errno := k.mmapCopyIn(t, p, va, length, int32(fd), off); errno != kernel.OK {
			p.Mmap.Free(va, length)
			return 0, errno
		}
		p.Mmap.Protect(va, length, hw.PermRead|hw.PermExec)
	}
	return uint64(va), kernel.OK
}

// sysMprotect tracks the request (for the clone guard heuristic) and
// updates the range's bookkeeping. The static TLB map is NOT changed: CNK
// does not honour page permissions on dynamic library text/read-only data
// (paper IV-B2) — a conscious lightweight-philosophy decision whose
// consequence (applications can scribble on their own text) is tested.
func (k *Kernel) sysMprotect(t *kernel.Thread, p *Proc, va hw.VAddr, length, prot uint64) (uint64, kernel.Errno) {
	p.lastMprotect.va = va
	p.lastMprotect.size = length
	p.lastMprotect.valid = true
	p.Mmap.Protect(va, length, kernel.ProtPerm(prot)) // bookkeeping only; ignore errors for unmapped (heap) guards
	return 0, kernel.OK
}

// sysPersistOpen opens (or creates) a named persistent region. The name is
// a C string at args[0]; args[1] is the size (0 = existing). Returns the
// region's virtual address, stable across jobs (paper IV-D).
func (k *Kernel) sysPersistOpen(t *kernel.Thread, p *Proc, args []uint64) (uint64, kernel.Errno) {
	if len(args) < 2 {
		return 0, kernel.EINVAL
	}
	name, errno := t.LoadCString(hw.VAddr(args[0]), 255)
	if errno != kernel.OK {
		return 0, errno
	}
	r, _, err := k.Persist.Open(name, args[1], p.UID)
	if err != nil {
		return 0, kernel.EACCES
	}
	p.persistMaps = append(p.persistMaps, r)
	// Map it on the calling thread's core now; other cores fault it in
	// lazily via Translate (still pinned — the map stays static during
	// execution).
	core := t.HWCore()
	if _, _, ok := core.TLB.Lookup(p.PID, r.VA); !ok {
		if e, ok := p.persistEntry(r.VA); ok {
			core.TLB.InsertPinned(e)
		}
	}
	return uint64(r.VA), kernel.OK
}
