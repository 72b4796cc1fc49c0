package fwk

import (
	"encoding/binary"

	"bgcnk/internal/ciod"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/obs"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// fsOpCost is the local filesystem/VFS work per call, on top of the
// syscall entry and any configured network-filesystem latency.
const fsOpCost = sim.Cycles(900)

// Syscall implements kernel.OS through the shared front end
// (kernel.Serve), which hands the FWK's own calls to call.
func (k *Kernel) Syscall(t *kernel.Thread, num kernel.Sys, args []uint64) (uint64, kernel.Errno) {
	return kernel.Serve(&k.rt, t, num, args, k.procs[t.PID()], k.call)
}

// call serves the calls that are the FWK's own: the same numbers as CNK,
// but file I/O runs locally against the node's filesystem (VFS + NFS
// client in the model), mmap is fully honoured including permissions,
// yield round-robins the core, and fork/exec exist as typed calls. shmget
// and persist_open are CNK's and return ENOSYS here, like any other call
// the FWK lacks.
func (k *Kernel) call(t *kernel.Thread, p *Proc, num kernel.Sys, args []uint64) (uint64, kernel.Errno) {
	if num.IsFileIO() {
		t.Coro().Sleep(fsOpCost + k.cfg.FSLatency)
		ret, errno := p.fileCall(t, num, args)
		if k.cfg.Uplink != nil && errno == kernel.OK && ret > 0 && (num == kernel.SysRead || num == kernel.SysWrite) {
			// Data operations cross the shared I/O-node uplink as a
			// synchronous RPC: the caller sits in the kernel for the whole
			// transfer of the ret bytes moved, and link contention lands on
			// this chip's stall counters. Metadata stays local (NFS
			// attribute caching).
			uplinkStart := k.Eng.Now()
			if stall := k.cfg.Uplink(t.Coro(), int(ret)); stall > 0 {
				u := k.Chip.UPC
				u.Inc(upc.ChipScope, upc.IONStall)
				u.Add(upc.ChipScope, upc.IONStallCycles, uint64(stall))
				k.rt.Obs.Emit(obs.CatStall, "fwk:uplink", k.Chip.ID, t.CoreID(), uplinkStart, uplinkStart+stall, ret)
			}
		}
		return ret, errno
	}
	switch num {
	case kernel.SysBrk:
		cur, ok := p.Brk.Set(hw.VAddr(kernel.Arg(args, 0)))
		if !ok {
			return uint64(p.Brk.Cur), kernel.ENOMEM
		}
		return uint64(cur), kernel.OK
	case kernel.SysMmap:
		addr, length := hw.VAddr(kernel.Arg(args, 0)), kernel.Arg(args, 1)
		prot, flags := kernel.Arg(args, 2), kernel.Arg(args, 3)
		if length == 0 {
			return 0, kernel.EINVAL
		}
		perms := kernel.ProtPerm(prot)
		var va hw.VAddr
		if flags&kernel.MapFixed != 0 {
			if err := p.vmas.AllocFixed(addr, length, perms); err != nil {
				return 0, kernel.ENOMEM
			}
			va = addr
		} else {
			a, err := p.vmas.Alloc(length, perms)
			if err != nil {
				return 0, kernel.ENOMEM
			}
			va = a
		}
		if fd := int64(kernel.Arg(args, 4)); flags&kernel.MapAnonymous == 0 && fd >= 0 {
			if errno := k.mmapFile(t, p, va, length, int32(fd), int64(kernel.Arg(args, 5))); errno != kernel.OK {
				p.vmas.Free(va, length)
				return 0, errno
			}
		}
		return uint64(va), kernel.OK
	case kernel.SysMunmap:
		va, length := hw.VAddr(kernel.Arg(args, 0)), kernel.Arg(args, 1)
		for vp := uint64(va) / pageSize; vp < (uint64(va)+length+pageSize-1)/pageSize; vp++ {
			if f, ok := p.pages[vp]; ok {
				k.freeFrame(f)
				delete(p.pages, vp)
			}
		}
		t.HWCore().TLB.InvalidateASID(p.PID) // coarse shootdown
		p.vmas.Free(va, length)
		return 0, kernel.OK
	case kernel.SysMprotect:
		// Full permission enforcement (Table II: "Full memory
		// protection: easy" on Linux): the VMA perms change AND the TLB
		// entries are shot down so the next access re-checks.
		va, length, perms := hw.VAddr(kernel.Arg(args, 0)), kernel.Arg(args, 1), kernel.ProtPerm(kernel.Arg(args, 2))
		if err := p.vmas.Protect(va, length, perms); err != nil {
			return 0, kernel.ENOMEM
		}
		for _, c := range k.cpus {
			c.Core.TLB.InvalidateASID(p.PID)
		}
		return 0, kernel.OK
	case kernel.SysYield:
		k.cpus[t.CoreID()].rotate(t)
		return 0, kernel.OK
	case kernel.SysFork, kernel.SysExec:
		return 0, kernel.EINVAL // use the typed Fork/Exec helpers
	}
	return 0, kernel.ENOSYS
}

// fileCall runs a filesystem call on the process's own client (the local
// or NFS-modelled filesystem) through the ioproxy's executor: the same
// decode from user memory, execution and store back as a call CNK ships.
// Only the stat buffer differs: the FWK stores the file size alone, as a
// big-endian u64. Nothing is marshalled: the reply carries the
// request's wire buffer back, and the thread takes it for its next call.
func (p *Proc) fileCall(t *kernel.Thread, num kernel.Sys, args []uint64) (uint64, kernel.Errno) {
	req, out, errno := ciod.Decode(t, num, args)
	if errno != kernel.OK {
		return 0, errno
	}
	rep := p.execute(t.Coro(), req)
	if rep.Errno == kernel.OK && (req.Op == ciod.OpStat || req.Op == ciod.OpFstat) {
		rep.Data = binary.BigEndian.AppendUint64(nil, rep.Ret)
	}
	ret, errno := ciod.Store(t, req.Op, out, &rep)
	ciod.Recycle(t, &rep)
	return ret, errno
}

// execute runs one request on the process's client, straight through
// the filesystem.
func (p *Proc) execute(c *sim.Coro, req *ciod.Request) ciod.Reply {
	return ciod.Execute(c, p.fsc, ciod.FSData{FS: p.fsc.FS}, req)
}

// mmapFile reads file contents into the mapping (model simplification:
// eager read; the FWK does honour the mapping's permissions, unlike CNK,
// so it stores in kernel mode: the mapping may be read-only for the
// user, but the kernel populates it).
func (k *Kernel) mmapFile(t *kernel.Thread, p *Proc, va hw.VAddr, length uint64, fd int32, off int64) kernel.Errno {
	run := func(req *ciod.Request) ciod.Reply { return p.execute(t.Coro(), req) }
	return ciod.CopyIn(t, fd, off, va, length, run, t.StoreKernel)
}
