package fwk

import (
	"math"

	"bgcnk/internal/fs"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/obs"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// fsOpCost is the local filesystem/VFS work per call, on top of the
// syscall entry and any configured network-filesystem latency.
const fsOpCost = sim.Cycles(900)

// Syscall implements kernel.OS: the same numbers as CNK, but file I/O runs
// locally against the node's filesystem (VFS + NFS client in the model),
// fork/exec exist, and mmap is fully honoured including permissions.
func (k *Kernel) Syscall(t *kernel.Thread, num kernel.Sys, args []uint64) (uint64, kernel.Errno) {
	if k.obs != nil {
		// Deferred so the span survives exit's thread unwind (Runtime.Exit
		// panics through this frame).
		start := k.Eng.Now()
		core := t.CoreID()
		defer func() {
			k.obs.Emit(obs.CatSyscall, num.String(), k.Chip.ID, core, start, k.Eng.Now(), uint64(num))
		}()
	}
	p := k.procs[t.PID()]
	if p == nil {
		return 0, kernel.ESRCH
	}
	arg := func(i int) uint64 {
		if i < len(args) {
			return args[i]
		}
		return 0
	}
	if num.IsFileIO() {
		t.Coro().Sleep(fsOpCost + k.cfg.FSLatency)
		ret, errno := k.fileIO(t, p, num, args)
		if k.cfg.Uplink != nil && errno == kernel.OK {
			// Data operations cross the shared I/O-node uplink as a
			// synchronous RPC: the caller sits in the kernel for the whole
			// transfer, and link contention lands on this chip's stall
			// counters. Metadata stays local (NFS attribute caching).
			var bytes int
			switch num {
			case kernel.SysRead:
				bytes = int(ret)
			case kernel.SysWrite:
				bytes = int(arg(2))
			}
			if bytes > 0 {
				uplinkStart := k.Eng.Now()
				if stall := k.cfg.Uplink(t.Coro(), bytes); stall > 0 {
					u := k.Chip.UPC
					u.Inc(upc.ChipScope, upc.IONStall)
					u.Add(upc.ChipScope, upc.IONStallCycles, uint64(stall))
					k.obs.Emit(obs.CatStall, "fwk:uplink", k.Chip.ID, t.CoreID(), uplinkStart, uplinkStart+stall, uint64(bytes))
				}
			}
		}
		return ret, errno
	}
	switch num {
	case kernel.SysBrk:
		cur, ok := p.Brk.Set(hw.VAddr(arg(0)))
		if !ok {
			return uint64(p.Brk.Cur), kernel.ENOMEM
		}
		return uint64(cur), kernel.OK
	case kernel.SysMmap:
		addr, length, prot, flags := hw.VAddr(arg(0)), arg(1), arg(2), arg(3)
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
		if flags&kernel.MapAnonymous == 0 && int64(arg(4)) >= 0 {
			if errno := k.mmapFile(t, p, va, length, int(arg(4)), int64(arg(5)), perms); errno != kernel.OK {
				p.vmas.Free(va, length)
				return 0, errno
			}
		}
		return uint64(va), kernel.OK
	case kernel.SysMunmap:
		va, length := hw.VAddr(arg(0)), arg(1)
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
		if err := p.vmas.Protect(hw.VAddr(arg(0)), arg(1), kernel.ProtPerm(arg(2))); err != nil {
			return 0, kernel.ENOMEM
		}
		for _, c := range k.cpus {
			c.core.TLB.InvalidateASID(p.PID)
		}
		return 0, kernel.OK
	case kernel.SysShmGet:
		return 0, kernel.ENOSYS // use mmap(MAP_SHARED); not needed by the experiments
	case kernel.SysFutex:
		return k.rt.Futex(t, args)
	case kernel.SysSetTidAddress:
		t.ClearTID = hw.VAddr(arg(0))
		return uint64(t.TID()), kernel.OK
	case kernel.SysYield:
		c := k.cpus[t.CoreID()]
		if len(c.ready) > 0 && c.cur == t {
			t.Coro().Sleep(ctxSwitchCost)
			c.rotate(t)
		}
		return 0, kernel.OK
	case kernel.SysExit:
		k.rt.Exit(t, int(arg(0)))
		return 0, kernel.OK // unreachable: Exit unwinds
	case kernel.SysGetpid:
		return uint64(t.PID()), kernel.OK
	case kernel.SysGettid:
		return uint64(t.TID()), kernel.OK
	case kernel.SysUname:
		if errno := t.StoreCString(hw.VAddr(arg(0)), "2.6.30-fwk"); errno != kernel.OK {
			return 0, errno
		}
		return 0, kernel.OK
	case kernel.SysGettimeofday:
		return uint64(k.Eng.Now()), kernel.OK
	case kernel.SysPersistOpen:
		return 0, kernel.ENOSYS // no persistent-memory extension on the FWK
	case kernel.SysFork, kernel.SysExec:
		return 0, kernel.EINVAL // use the typed Fork/Exec helpers
	case kernel.SysClone, kernel.SysSigaction, kernel.SysSigreturn:
		return 0, kernel.EINVAL // typed paths
	}
	return 0, kernel.ENOSYS
}

// maxIO is the largest count a read or write can move through user
// memory: no more than the node's DDR holds, nor than Thread.access's
// 32-bit size can address. A larger write fails with EFAULT before any
// buffer exists, and a read's buffer is cut to it.
func (k *Kernel) maxIO() uint64 { return min(k.Chip.Mem.Size(), math.MaxUint32) }

// fileIO executes a filesystem call against the local (or NFS-modelled)
// filesystem through the process's own client.
func (k *Kernel) fileIO(t *kernel.Thread, p *Proc, num kernel.Sys, args []uint64) (uint64, kernel.Errno) {
	arg := func(i int) uint64 {
		if i < len(args) {
			return args[i]
		}
		return 0
	}
	path := func(i int) (string, kernel.Errno) {
		return t.LoadCString(hw.VAddr(arg(i)), 1024)
	}
	switch num {
	case kernel.SysOpen:
		pth, errno := path(0)
		if errno != kernel.OK {
			return 0, errno
		}
		fd, errno := p.fsc.Open(pth, arg(1), fs.Mode(arg(2)))
		return uint64(int64(fd)), errno
	case kernel.SysClose:
		return 0, p.fsc.Close(int(arg(0)))
	case kernel.SysRead:
		// Only a regular file returns bytes, and no more than lie past
		// the offset, so the buffer is cut to that; a descriptor the read
		// fails on gets none.
		var count uint64
		if ino, off, _, regular, errno := p.fsc.FileInfo(int(arg(0))); errno == kernel.OK && regular {
			size, _ := p.fsc.FS.InodeSize(ino)
			count = min(arg(2), k.maxIO(), size-min(off, size))
		}
		buf := make([]byte, count)
		n, errno := p.fsc.Read(int(arg(0)), buf)
		if errno != kernel.OK {
			return 0, errno
		}
		if n > 0 {
			if errno := t.Store(hw.VAddr(arg(1)), buf[:n]); errno != kernel.OK {
				return 0, errno
			}
		}
		return uint64(n), kernel.OK
	case kernel.SysWrite:
		if arg(2) > k.maxIO() {
			return 0, kernel.EFAULT
		}
		buf := make([]byte, arg(2))
		if errno := t.Load(hw.VAddr(arg(1)), buf); errno != kernel.OK {
			return 0, errno
		}
		n, errno := p.fsc.Write(int(arg(0)), buf)
		return uint64(n), errno
	case kernel.SysLseek:
		pos, errno := p.fsc.Lseek(int(arg(0)), int64(arg(1)), int(arg(2)))
		return pos, errno
	case kernel.SysStat, kernel.SysFstat:
		var st fs.Stat
		var errno kernel.Errno
		if num == kernel.SysStat {
			pth, e := path(0)
			if e != kernel.OK {
				return 0, e
			}
			st, errno = p.fsc.Stat(pth)
		} else {
			st, errno = p.fsc.Fstat(int(arg(0)))
		}
		if errno != kernel.OK {
			return 0, errno
		}
		if hw.VAddr(arg(1)) != 0 {
			if errno := t.StoreU64(hw.VAddr(arg(1)), st.Size); errno != kernel.OK {
				return 0, errno
			}
		}
		return st.Size, kernel.OK
	case kernel.SysUnlink:
		pth, errno := path(0)
		if errno != kernel.OK {
			return 0, errno
		}
		return 0, p.fsc.Unlink(pth)
	case kernel.SysRename:
		o, errno := path(0)
		if errno != kernel.OK {
			return 0, errno
		}
		n, errno := path(1)
		if errno != kernel.OK {
			return 0, errno
		}
		return 0, p.fsc.Rename(o, n)
	case kernel.SysMkdir:
		pth, errno := path(0)
		if errno != kernel.OK {
			return 0, errno
		}
		return 0, p.fsc.Mkdir(pth, fs.Mode(arg(1)))
	case kernel.SysRmdir:
		pth, errno := path(0)
		if errno != kernel.OK {
			return 0, errno
		}
		return 0, p.fsc.Rmdir(pth)
	case kernel.SysDup:
		fd, errno := p.fsc.Dup(int(arg(0)))
		return uint64(int64(fd)), errno
	case kernel.SysFsync:
		// The local/NFS-modelled fs is always stable storage; validate the
		// descriptor like the real kernel would.
		return 0, p.fsc.Fsync(int(arg(0)))
	case kernel.SysGetcwd:
		return t.StoreCwd(hw.VAddr(arg(0)), arg(1), p.fsc.Cwd())
	case kernel.SysChdir:
		pth, errno := path(0)
		if errno != kernel.OK {
			return 0, errno
		}
		return 0, p.fsc.Chdir(pth)
	case kernel.SysTruncate:
		pth, errno := path(0)
		if errno != kernel.OK {
			return 0, errno
		}
		return 0, p.fsc.Truncate(pth, arg(1))
	case kernel.SysReaddir:
		pth, errno := path(0)
		if errno != kernel.OK {
			return 0, errno
		}
		names, errno := p.fsc.Readdir(pth)
		if errno != kernel.OK {
			return 0, errno
		}
		return t.StoreNames(hw.VAddr(arg(1)), arg(2), names)
	}
	return 0, kernel.ENOSYS
}

// mmapFile reads file contents into the mapping (model simplification:
// eager read; the FWK does honour the mapping's permissions, unlike CNK).
func (k *Kernel) mmapFile(t *kernel.Thread, p *Proc, va hw.VAddr, length uint64, fd int, off int64, perms hw.Perm) kernel.Errno {
	if _, errno := p.fsc.Lseek(fd, off, kernel.SeekSet); errno != kernel.OK {
		return errno
	}
	buf := make([]byte, 64<<10)
	var done uint64
	for done < length {
		chunk := length - done
		if chunk > uint64(len(buf)) {
			chunk = uint64(len(buf))
		}
		n, errno := p.fsc.Read(fd, buf[:chunk])
		if errno != kernel.OK {
			return errno
		}
		if n == 0 {
			break
		}
		// Store via kernel mode: the mapping may be read-only for the
		// user, but the kernel populates it.
		if errno := t.StoreKernel(va+hw.VAddr(done), buf[:n]); errno != kernel.OK {
			return errno
		}
		done += uint64(n)
	}
	return kernel.OK
}
