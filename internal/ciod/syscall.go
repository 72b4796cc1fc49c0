package ciod

import (
	"math"

	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
)

// The compute-node side of a file system call, shared by both kernels:
// Decode turns the call into a Request by reading its paths and payload
// from user memory, something executes the request (CNK ships it to
// CIOD; the FWK runs Execute on its own client), and Store copies the
// reply into user memory.

// maxPath bounds path strings copied from user space.
const maxPath = 1024

// copyInChunk is the largest read CopyIn asks for at once.
const copyInChunk = 64 << 10

// maxIO is the largest count a read or write can move through t's user
// memory: no more than the node's DDR holds, nor than Thread.access's
// 32-bit size can address. A larger write fails with EFAULT before any
// buffer exists, and a read's count is cut to it.
func maxIO(t *kernel.Thread) uint64 { return min(t.HWCore().Chip.Mem.Size(), math.MaxUint32) }

// Out is where a reply's data lands in user memory: the buffer a read,
// stat, fstat, getcwd or readdir names, and its size.
type Out struct {
	VA   hw.VAddr
	Size uint64
}

// Decode turns file system call num, made by t with args, into a request
// for t's process and thread, and names the user buffer its reply goes
// to. A call that is not a file call is ENOSYS.
//
// Every request takes t's wire buffer, for MarshalRequest to render it
// into. A write's payload is loaded there behind room for the request
// header (paper IV-A: "a write system call sends a message containing
// the file descriptor number, length of the buffer, and the buffer
// data"), so MarshalRequest writes only the header and the payload is
// copied once on the compute node. The buffer grows as each piece of the
// user buffer translates, so a write from unmapped memory allocates
// nothing, and one that fits the buffer kept from t's last call
// allocates nothing either. The request holds the buffer until its reply
// hands it back through Recycle; a failed decode leaves it with t.
func Decode(t *kernel.Thread, num kernel.Sys, args []uint64) (*Request, Out, kernel.Errno) {
	req := &Request{PID: t.PID(), TID: t.TID(), wire: t.Wire}
	t.Wire = nil
	loadPath := func(i int) (string, kernel.Errno) {
		return t.LoadCString(hw.VAddr(kernel.Arg(args, i)), maxPath)
	}
	var out Out
	var errno kernel.Errno
	switch num {
	case kernel.SysOpen:
		req.Op = OpOpen
		req.Path, errno = loadPath(0)
		req.Flags = kernel.Arg(args, 1)
		req.Mode = uint16(kernel.Arg(args, 2))
	case kernel.SysClose:
		req.Op = OpClose
		req.FD = int32(kernel.Arg(args, 0))
	case kernel.SysRead:
		req.Op = OpRead
		req.FD = int32(kernel.Arg(args, 0))
		req.Size = min(kernel.Arg(args, 2), maxIO(t))
		out = Out{hw.VAddr(kernel.Arg(args, 1)), req.Size}
	case kernel.SysWrite:
		req.Op = OpWrite
		req.FD = int32(kernel.Arg(args, 0))
		count := kernel.Arg(args, 2)
		if count > maxIO(t) {
			errno = kernel.EFAULT
			break
		}
		if count == 0 {
			break
		}
		req.wire, errno = t.LoadInto(req.wire, requestFixed, hw.VAddr(kernel.Arg(args, 1)), uint32(count))
		if errno == kernel.OK {
			req.Data = req.wire[requestFixed:]
		}
	case kernel.SysLseek:
		req.Op = OpLseek
		req.FD = int32(kernel.Arg(args, 0))
		req.Off = int64(kernel.Arg(args, 1))
		req.Whence = int32(kernel.Arg(args, 2))
	case kernel.SysStat:
		req.Op = OpStat
		req.Path, errno = loadPath(0)
		out.VA = hw.VAddr(kernel.Arg(args, 1))
	case kernel.SysFstat:
		req.Op = OpFstat
		req.FD = int32(kernel.Arg(args, 0))
		out.VA = hw.VAddr(kernel.Arg(args, 1))
	case kernel.SysUnlink:
		req.Op = OpUnlink
		req.Path, errno = loadPath(0)
	case kernel.SysRename:
		req.Op = OpRename
		req.Path, errno = loadPath(0)
		if errno == kernel.OK {
			req.Path2, errno = loadPath(1)
		}
	case kernel.SysMkdir:
		req.Op = OpMkdir
		req.Path, errno = loadPath(0)
		req.Mode = uint16(kernel.Arg(args, 1))
	case kernel.SysRmdir:
		req.Op = OpRmdir
		req.Path, errno = loadPath(0)
	case kernel.SysDup:
		req.Op = OpDup
		req.FD = int32(kernel.Arg(args, 0))
	case kernel.SysFsync:
		// Execute writes the descriptor's dirty ION-cache blocks back
		// before it replies.
		req.Op = OpFsync
		req.FD = int32(kernel.Arg(args, 0))
	case kernel.SysGetcwd:
		req.Op = OpGetcwd
		out = Out{hw.VAddr(kernel.Arg(args, 0)), kernel.Arg(args, 1)}
	case kernel.SysChdir:
		req.Op = OpChdir
		req.Path, errno = loadPath(0)
	case kernel.SysTruncate:
		req.Op = OpTruncate
		req.Path, errno = loadPath(0)
		req.Size = kernel.Arg(args, 1)
	case kernel.SysReaddir:
		req.Op = OpReaddir
		req.Path, errno = loadPath(0)
		out = Out{hw.VAddr(kernel.Arg(args, 1)), kernel.Arg(args, 2)}
	default:
		errno = kernel.ENOSYS
	}
	if errno != kernel.OK {
		keepWire(t, req.wire)
	}
	return req, out, errno
}

// Recycle gives t the buffer its finished call's reply rep came back in,
// for its next call, once Store has copied rep out: the buffer the call's
// request went in, when the daemon could render the reply there, or, for
// a call run where it was made, the request's own. No message carrying
// the buffer can be read again by then, since a client sends a buffer
// once and the daemon writes a reply into a message only once it has
// finished reading it. t keeps a buffer only while it is no larger than
// copyInChunk, so one large call does not pin its size to the thread.
func Recycle(t *kernel.Thread, rep *Reply) { keepWire(t, rep.wire) }

// keepWire makes b t's wire buffer for its next call, unless b is larger
// than copyInChunk.
func keepWire(t *kernel.Thread, b []byte) {
	if cap(b) <= copyInChunk {
		t.Wire = b[:0]
	}
}

// Store copies the reply to a request of op into t's user memory at out
// and returns the call's result: a read's bytes (no more than out holds),
// a stat's payload (none when out names no buffer), the getcwd string
// and the readdir names in their user formats. A failed call stores
// nothing and returns the reply's own result.
func Store(t *kernel.Thread, op uint8, out Out, rep *Reply) (uint64, kernel.Errno) {
	if rep.Errno != kernel.OK {
		return rep.Ret, rep.Errno
	}
	switch op {
	case OpRead:
		data := rep.Data[:min(uint64(len(rep.Data)), out.Size)]
		if errno := t.Store(out.VA, data); errno != kernel.OK {
			return 0, errno
		}
		return uint64(len(data)), kernel.OK
	case OpStat, OpFstat:
		if out.VA != 0 {
			if errno := t.Store(out.VA, rep.Data); errno != kernel.OK {
				return 0, errno
			}
		}
		return rep.Ret, kernel.OK // the file size
	case OpGetcwd:
		return t.StoreCwd(out.VA, out.Size, rep.Str)
	case OpReaddir:
		names, err := DecodeNames(rep.Data)
		if err != nil {
			return 0, kernel.EIO
		}
		return t.StoreNames(out.VA, out.Size, names)
	}
	return rep.Ret, kernel.OK
}

// CopyIn fills the length bytes at va with the file open on fd from
// offset off, for a file-backed mmap: a seek, then reads of at most
// copyInChunk bytes, each run by call and put in place by store, until
// the range is full or the file ends; the rest of the range keeps what
// it held.
func CopyIn(t *kernel.Thread, fd int32, off int64, va hw.VAddr, length uint64,
	call func(*Request) Reply, store func(hw.VAddr, []byte) kernel.Errno) kernel.Errno {
	rep := call(&Request{Op: OpLseek, PID: t.PID(), TID: t.TID(), FD: fd, Off: off, Whence: int32(kernel.SeekSet)})
	if rep.Errno != kernel.OK {
		return rep.Errno
	}
	for done := uint64(0); done < length; {
		rep := call(&Request{Op: OpRead, PID: t.PID(), TID: t.TID(), FD: fd, Size: min(length-done, copyInChunk)})
		if rep.Errno != kernel.OK {
			return rep.Errno
		}
		if len(rep.Data) == 0 {
			break
		}
		if errno := store(va+hw.VAddr(done), rep.Data); errno != kernel.OK {
			return errno
		}
		done += uint64(len(rep.Data))
	}
	return kernel.OK
}
