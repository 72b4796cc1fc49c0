package cnk

import (
	"fmt"

	"bgcnk/internal/ciod"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
)

// maxPath bounds path strings copied from user space.
const maxPath = 1024

// ioCall ships one request, transparently reconnecting if CIOD answers
// ESRCH for a process it has already been told about: that means the
// daemon crashed and respawned, losing its ioproxies, so CNK re-ships
// OpProcStart and retries the original call once.
func (k *Kernel) ioCall(t *kernel.Thread, p *Proc, req *ciod.Request) *ciod.Reply {
	rep := k.cfg.IO.Call(t.Coro(), req)
	if rep.Errno == kernel.ESRCH && p.ioStarted &&
		req.Op != ciod.OpProcStart && req.Op != ciod.OpProcExit {
		k.trace(k.Eng.Now(), fmt.Sprintf("ciod forgot pid %d (daemon restart); re-shipping proc start", p.PID))
		start := k.cfg.IO.Call(t.Coro(), &ciod.Request{
			Op: ciod.OpProcStart, PID: p.PID, UID: p.UID, GID: p.GID,
		})
		if start.Errno != kernel.OK {
			return rep
		}
		rep = k.cfg.IO.Call(t.Coro(), req)
	}
	return rep
}

// shipIO marshals a file-I/O system call into a CIOD request, ships it
// over the collective network, and blocks the calling thread for the
// reply. The core is not yielded during the wait (paper VI-C: "I/O
// function shipping is made trivial by not yielding the core to another
// thread during an I/O system call") — the thread simply parks, and no
// kernel context switch happens.
func (k *Kernel) shipIO(t *kernel.Thread, p *Proc, num kernel.Sys, args []uint64) (uint64, kernel.Errno) {
	if k.cfg.IO == nil {
		return 0, kernel.ENOSYS
	}
	k.ioProcStart(t, p)
	arg := func(i int) uint64 {
		if i < len(args) {
			return args[i]
		}
		return 0
	}
	req := &ciod.Request{PID: p.PID, TID: t.TID(), UID: p.UID, GID: p.GID}
	loadPath := func(i int) (string, kernel.Errno) {
		return t.LoadCString(hw.VAddr(arg(i)), maxPath)
	}
	var outBuf hw.VAddr // reply data destination, if any
	var outMax uint64
	var errno kernel.Errno

	switch num {
	case kernel.SysOpen:
		req.Op = ciod.OpOpen
		req.Path, errno = loadPath(0)
		req.Flags = arg(1)
		req.Mode = uint16(arg(2))
	case kernel.SysClose:
		req.Op = ciod.OpClose
		req.FD = int32(arg(0))
	case kernel.SysRead:
		req.Op = ciod.OpRead
		req.FD = int32(arg(0))
		req.Size = arg(2)
		outBuf = hw.VAddr(arg(1))
		outMax = arg(2)
	case kernel.SysWrite:
		// write marshals the buffer contents into the message (paper
		// IV-A: "a write system call sends a message containing the file
		// descriptor number, length of the buffer, and the buffer data").
		req.Op = ciod.OpWrite
		req.FD = int32(arg(0))
		buf := make([]byte, arg(2))
		if errno = t.Load(hw.VAddr(arg(1)), buf); errno == kernel.OK {
			req.Data = buf
		}
	case kernel.SysLseek:
		req.Op = ciod.OpLseek
		req.FD = int32(arg(0))
		req.Off = int64(arg(1))
		req.Whence = int32(arg(2))
	case kernel.SysStat:
		req.Op = ciod.OpStat
		req.Path, errno = loadPath(0)
		outBuf = hw.VAddr(arg(1))
		outMax = 64
	case kernel.SysFstat:
		req.Op = ciod.OpFstat
		req.FD = int32(arg(0))
		outBuf = hw.VAddr(arg(1))
		outMax = 64
	case kernel.SysUnlink:
		req.Op = ciod.OpUnlink
		req.Path, errno = loadPath(0)
	case kernel.SysRename:
		req.Op = ciod.OpRename
		req.Path, errno = loadPath(0)
		if errno == kernel.OK {
			req.Path2, errno = loadPath(1)
		}
	case kernel.SysMkdir:
		req.Op = ciod.OpMkdir
		req.Path, errno = loadPath(0)
		req.Mode = uint16(arg(1))
	case kernel.SysRmdir:
		req.Op = ciod.OpRmdir
		req.Path, errno = loadPath(0)
	case kernel.SysDup:
		req.Op = ciod.OpDup
		req.FD = int32(arg(0))
	case kernel.SysFsync:
		// Shipped like any other file call; with the ION cache armed the
		// daemon writes the descriptor's dirty blocks back before replying.
		req.Op = ciod.OpFsync
		req.FD = int32(arg(0))
	case kernel.SysGetcwd:
		req.Op = ciod.OpGetcwd
		outBuf = hw.VAddr(arg(0))
		outMax = arg(1)
	case kernel.SysChdir:
		req.Op = ciod.OpChdir
		req.Path, errno = loadPath(0)
	case kernel.SysTruncate:
		req.Op = ciod.OpTruncate
		req.Path, errno = loadPath(0)
		req.Size = arg(1)
	case kernel.SysReaddir:
		req.Op = ciod.OpReaddir
		req.Path, errno = loadPath(0)
		outBuf = hw.VAddr(arg(1))
		outMax = arg(2)
	default:
		return 0, kernel.ENOSYS
	}
	if errno != kernel.OK {
		return 0, errno
	}

	rep := k.ioCall(t, p, req)
	if rep.Errno != kernel.OK {
		return rep.Ret, rep.Errno
	}

	// Demarshal results back into user memory.
	switch num {
	case kernel.SysRead:
		if uint64(len(rep.Data)) > outMax {
			rep.Data = rep.Data[:outMax]
		}
		if errno := t.Store(outBuf, rep.Data); errno != kernel.OK {
			return 0, errno
		}
		return uint64(len(rep.Data)), kernel.OK
	case kernel.SysStat, kernel.SysFstat:
		if outBuf != 0 {
			if errno := t.Store(outBuf, rep.Data); errno != kernel.OK {
				return 0, errno
			}
		}
		return rep.Ret, kernel.OK // the file size, as on the FWK
	case kernel.SysGetcwd:
		return t.StoreCwd(outBuf, outMax, rep.Str)
	case kernel.SysReaddir:
		names, err := ciod.DecodeNames(rep.Data)
		if err != nil {
			return 0, kernel.EIO
		}
		return t.StoreNames(outBuf, outMax, names)
	}
	return rep.Ret, kernel.OK
}

// mmapCopyIn reads a whole file through the function-ship path into the
// fresh mapping (no demand paging: the OS noise is contained in the mmap
// call itself — paper IV-B2).
func (k *Kernel) mmapCopyIn(t *kernel.Thread, p *Proc, va hw.VAddr, length uint64, fd int32, off int64) kernel.Errno {
	if k.cfg.IO == nil {
		return kernel.ENOSYS
	}
	// Seek then read the full range via the proxy, chunked.
	rep := k.ioCall(t, p, &ciod.Request{
		Op: ciod.OpLseek, PID: p.PID, TID: t.TID(), FD: fd, Off: off, Whence: int32(kernel.SeekSet),
	})
	if rep.Errno != kernel.OK {
		return rep.Errno
	}
	var done uint64
	for done < length {
		chunk := length - done
		if chunk > 64<<10 {
			chunk = 64 << 10
		}
		rep := k.ioCall(t, p, &ciod.Request{
			Op: ciod.OpRead, PID: p.PID, TID: t.TID(), FD: fd, Size: chunk,
		})
		if rep.Errno != kernel.OK {
			return rep.Errno
		}
		if len(rep.Data) == 0 {
			break // EOF: rest of mapping stays zero
		}
		if errno := t.Store(va+hw.VAddr(done), rep.Data); errno != kernel.OK {
			return errno
		}
		done += uint64(len(rep.Data))
	}
	return kernel.OK
}
