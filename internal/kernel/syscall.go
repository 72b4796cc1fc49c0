package kernel

import (
	"bgcnk/internal/hw"
	"bgcnk/internal/obs"
)

// Arg returns system-call argument i, or 0 when the caller passed fewer.
func Arg(args []uint64, i int) uint64 {
	if i < len(args) {
		return args[i]
	}
	return 0
}

// Serve is the system-call front end both kernels' Syscall run. It
// records the call's span (deferred, so the span survives exit's thread
// unwind), answers ESRCH when p, the caller's process, is the zero value,
// and serves the calls both kernels answer alike: futex,
// set_tid_address, exit, getpid, gettid, uname (with r's version
// string), gettimeofday, and clone, sigaction and sigreturn, whose typed
// paths are Context.Clone and RegisterSignal. own serves the rest.
func Serve[P comparable](r *Runtime, t *Thread, num Sys, args []uint64, p P,
	own func(t *Thread, p P, num Sys, args []uint64) (uint64, Errno)) (uint64, Errno) {
	if r.Obs != nil {
		start, core := t.coro.Now(), t.cpu.Core.ID
		defer func() {
			r.Obs.Emit(obs.CatSyscall, num.String(), t.cpu.Core.Chip.ID, core, start, t.coro.Now(), uint64(num))
		}()
	}
	var none P
	if p == none {
		return 0, ESRCH
	}
	switch num {
	case SysFutex:
		return r.Futex(t, args)
	case SysSetTidAddress:
		t.ClearTID = hw.VAddr(Arg(args, 0))
		return uint64(t.id), OK
	case SysExit:
		r.Exit(t, int(Arg(args, 0)))
		return 0, OK // unreachable: Exit unwinds
	case SysGetpid:
		return uint64(t.pid), OK
	case SysGettid:
		return uint64(t.id), OK
	case SysUname:
		// glibc checks the version to decide NPTL support (paper IV-B1).
		return 0, t.StoreCString(hw.VAddr(Arg(args, 0)), r.uname)
	case SysGettimeofday:
		return uint64(t.coro.Now()), OK
	case SysClone, SysSigaction, SysSigreturn:
		return 0, EINVAL
	}
	return own(t, p, num, args)
}
