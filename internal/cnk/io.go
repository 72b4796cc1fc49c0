package cnk

import (
	"fmt"

	"bgcnk/internal/ciod"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
)

// ioCall ships one request, transparently reconnecting if CIOD answers
// ESRCH for a process it has already been told about: that means the
// daemon crashed and respawned, losing its ioproxies, so CNK re-ships
// OpProcStart and retries the original call once. Only a request that
// still holds its bytes is retried (Resendable): a client that can lose
// a reply, as every client of a daemon that can crash does, ships each
// attempt in a copy, so its request always does.
func (k *Kernel) ioCall(t *kernel.Thread, p *Proc, req *ciod.Request) ciod.Reply {
	rep := k.cfg.IO.Call(t.Coro(), req)
	if rep.Errno == kernel.ESRCH && p.ioStarted && req.Resendable() &&
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

// shipIO ships a file-I/O system call to CIOD: the call is decoded from
// user memory into a request, shipped over the collective network, and
// the reply stored back, while the calling thread blocks. The core is
// not yielded during the wait (paper VI-C: "I/O function shipping is
// made trivial by not yielding the core to another thread during an I/O
// system call") — the thread simply parks, and no kernel context switch
// happens. Once the reply is stored, the thread takes the buffer it came
// back in for its next call.
func (k *Kernel) shipIO(t *kernel.Thread, p *Proc, num kernel.Sys, args []uint64) (uint64, kernel.Errno) {
	if k.cfg.IO == nil {
		return 0, kernel.ENOSYS
	}
	k.ioProcStart(t, p)
	req, out, errno := ciod.Decode(t, num, args)
	if errno != kernel.OK {
		return 0, errno
	}
	req.UID, req.GID = p.UID, p.GID
	rep := k.ioCall(t, p, req)
	ret, errno := ciod.Store(t, req.Op, out, &rep)
	ciod.Recycle(t, &rep)
	return ret, errno
}

// mmapCopyIn reads a whole file through the function-ship path into the
// fresh mapping (no demand paging: the OS noise is contained in the mmap
// call itself — paper IV-B2).
func (k *Kernel) mmapCopyIn(t *kernel.Thread, p *Proc, va hw.VAddr, length uint64, fd int32, off int64) kernel.Errno {
	if k.cfg.IO == nil {
		return kernel.ENOSYS
	}
	ship := func(req *ciod.Request) ciod.Reply { return k.ioCall(t, p, req) }
	return ciod.CopyIn(t, fd, off, va, length, ship, t.Store)
}
