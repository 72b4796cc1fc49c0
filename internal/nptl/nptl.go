// Package nptl is the glibc/NPTL-equivalent runtime layer: pthreads,
// mutexes, condition variables, barriers and malloc, built ONLY on the
// kernel.Context syscall surface — clone with the static NPTL flag set,
// futex, set_tid_address, mprotect-before-clone for the stack guard, brk
// and mmap. This reproduces the paper's Section IV-B result: a full
// threading package needs only a handful of system calls, so the same
// binary-level runtime runs unmodified on CNK and on the FWK.
package nptl

import (
	"fmt"

	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
)

// Allocation constants. Stack allocations exceed 1MB and therefore come
// from mmap rather than brk, exactly as glibc behaves (paper IV-B1).
const (
	DefaultStackSize = 1 << 20
	GuardSize        = 4096
	MmapThreshold    = 1 << 20
)

// Lib is one process's runtime state (the loaded libc image). Threads of
// the process share it.
type Lib struct {
	kernelVersion string
	heapStart     hw.VAddr
	// free lists per size class for brk chunks, addresses only; chunk
	// headers live in simulated memory.
	free map[uint64][]hw.VAddr
	brkC hw.VAddr // current break cache

	Threads map[uint32]*PThread
}

// Init performs libc startup: uname to discover kernel capabilities (glibc
// refuses NPTL on old kernels) and set_tid_address for the main thread.
func Init(ctx kernel.Context) (*Lib, error) {
	// Scratch area for the uname string: the current break.
	brk, errno := ctx.Syscall(kernel.SysBrk, 0)
	if errno != kernel.OK {
		return nil, fmt.Errorf("nptl: brk query: %v", errno)
	}
	if _, errno := ctx.Syscall(kernel.SysBrk, brk+4096); errno != kernel.OK {
		return nil, fmt.Errorf("nptl: brk grow: %v", errno)
	}
	if _, errno := ctx.Syscall(kernel.SysUname, brk); errno != kernel.OK {
		return nil, fmt.Errorf("nptl: uname: %v", errno)
	}
	ver, errno := ctx.LoadCString(hw.VAddr(brk), 64)
	if errno != kernel.OK {
		return nil, fmt.Errorf("nptl: uname read: %v", errno)
	}
	if ver < "2.6" {
		return nil, fmt.Errorf("nptl: kernel %q too old for NPTL", ver)
	}
	ctx.Syscall(kernel.SysSetTidAddress, brk+8) // main thread's ctid slot
	l := &Lib{
		kernelVersion: ver,
		heapStart:     hw.VAddr(brk),
		free:          make(map[uint64][]hw.VAddr),
		brkC:          hw.VAddr(brk) + 4096,
		Threads:       make(map[uint32]*PThread),
	}
	return l, nil
}

// KernelVersion returns what uname reported.
func (l *Lib) KernelVersion() string { return l.kernelVersion }

// sizeClass rounds an allocation to its bucket.
func sizeClass(n uint64) uint64 {
	c := uint64(32)
	for c < n {
		c *= 2
	}
	return c
}

// Malloc allocates n bytes: small requests extend the break, requests of
// MmapThreshold or more go to mmap.
func (l *Lib) Malloc(ctx kernel.Context, n uint64) (hw.VAddr, kernel.Errno) {
	if n == 0 {
		n = 1
	}
	if n >= MmapThreshold {
		va, errno := ctx.Syscall(kernel.SysMmap, 0, n,
			kernel.ProtRead|kernel.ProtWrite, kernel.MapAnonymous|kernel.MapPrivate, ^uint64(0), 0)
		return hw.VAddr(va), errno
	}
	c := sizeClass(n)
	if lst := l.free[c]; len(lst) > 0 {
		va := lst[len(lst)-1]
		l.free[c] = lst[:len(lst)-1]
		return va, kernel.OK
	}
	va := l.brkC
	nb, errno := ctx.Syscall(kernel.SysBrk, uint64(l.brkC)+c)
	if errno != kernel.OK {
		return 0, errno
	}
	l.brkC = hw.VAddr(nb)
	return va, kernel.OK
}

// MallocSized frees require the size in this simplified allocator.
func (l *Lib) Free(ctx kernel.Context, va hw.VAddr, n uint64) {
	if n >= MmapThreshold {
		ctx.Syscall(kernel.SysMunmap, uint64(va), n)
		return
	}
	c := sizeClass(n)
	l.free[c] = append(l.free[c], va)
}

// PThread is one pthread's descriptor.
type PThread struct {
	TID      uint32
	StackLo  hw.VAddr
	StackSz  uint64
	ctid     hw.VAddr // CLONE_CHILD_CLEARTID word; zero when exited
	detached bool
}

// PthreadCreate starts fn on a new thread: allocate the stack (malloc →
// mmap, since it exceeds 1MB), mprotect the guard page at its low end
// (which CNK latches for the clone that follows — paper IV-C), then clone
// with the static NPTL flags.
func (l *Lib) PthreadCreate(ctx kernel.Context, fn func(ctx kernel.Context)) (*PThread, kernel.Errno) {
	stackSz := uint64(DefaultStackSize + GuardSize)
	stackLo, errno := l.Malloc(ctx, stackSz)
	if errno != kernel.OK {
		return nil, errno
	}
	// Guard page at the low end of the stack.
	if _, errno := ctx.Syscall(kernel.SysMprotect, uint64(stackLo), GuardSize, 0); errno != kernel.OK {
		return nil, errno
	}
	stackHi := stackLo + hw.VAddr(stackSz)
	ctid := stackHi - 8 // child-tid word lives at the stack top
	if errno := ctx.StoreU32(ctid, 1); errno != kernel.OK {
		return nil, errno
	}
	ptid := stackHi - 16
	tid, errno := ctx.Clone(kernel.CloneArgs{
		Flags:      kernel.NPTLCloneFlags,
		ChildStack: stackHi - 64,
		TLS:        stackHi - 256,
		ParentTID:  ptid,
		ChildTID:   ctid,
		Fn:         fn,
	})
	if errno != kernel.OK {
		l.Free(ctx, stackLo, stackSz)
		return nil, errno
	}
	pt := &PThread{TID: tid, StackLo: stackLo, StackSz: stackSz, ctid: ctid}
	l.Threads[tid] = pt
	return pt, kernel.OK
}

// PthreadJoin blocks until pt exits (futex on the CLEARTID word, which the
// kernel zeroes and wakes).
func (l *Lib) PthreadJoin(ctx kernel.Context, pt *PThread) kernel.Errno {
	for {
		v, errno := ctx.LoadU32(pt.ctid)
		if errno != kernel.OK {
			return errno
		}
		if v == 0 {
			delete(l.Threads, pt.TID)
			l.Free(ctx, pt.StackLo, pt.StackSz)
			return kernel.OK
		}
		_, errno = ctx.Syscall(kernel.SysFutex, uint64(pt.ctid), kernel.FutexWait, uint64(v), 0)
		if errno != kernel.OK && errno != kernel.EAGAIN {
			return errno
		}
	}
}

// Mutex is a futex-based pthread_mutex: 0 free, 1 locked, 2 contended.
type Mutex struct{ addr hw.VAddr }

// NewMutex allocates and initializes a mutex word.
func (l *Lib) NewMutex(ctx kernel.Context) (*Mutex, kernel.Errno) {
	va, errno := l.Malloc(ctx, 32)
	if errno != kernel.OK {
		return nil, errno
	}
	if errno := ctx.StoreU32(va, 0); errno != kernel.OK {
		return nil, errno
	}
	return &Mutex{addr: va}, kernel.OK
}

// Lock acquires the mutex: an atomic compare-and-swap fast path in pure
// user space (zero system calls when uncontended — the property CNK's
// futex implementation preserves), and a futex wait on contention.
func (m *Mutex) Lock(ctx kernel.Context) kernel.Errno {
	if ok, errno := ctx.CASU32(m.addr, 0, 1); errno != kernel.OK {
		return errno
	} else if ok {
		return kernel.OK
	}
	for {
		// Mark contended; if it was free we now own it (as contended,
		// which only costs a spurious wake at unlock).
		old, errno := ctx.SwapU32(m.addr, 2)
		if errno != kernel.OK {
			return errno
		}
		if old == 0 {
			return kernel.OK
		}
		_, errno = ctx.Syscall(kernel.SysFutex, uint64(m.addr), kernel.FutexWait, 2, 0)
		if errno != kernel.OK && errno != kernel.EAGAIN {
			return errno
		}
	}
}

// Unlock releases the mutex, waking one contended waiter.
func (m *Mutex) Unlock(ctx kernel.Context) kernel.Errno {
	old, errno := ctx.SwapU32(m.addr, 0)
	if errno != kernel.OK {
		return errno
	}
	if old == 2 {
		ctx.Syscall(kernel.SysFutex, uint64(m.addr), kernel.FutexWake, 1)
	}
	return kernel.OK
}

// Cond is a futex-sequence condition variable.
type Cond struct{ seq hw.VAddr }

// NewCond allocates a condition variable.
func (l *Lib) NewCond(ctx kernel.Context) (*Cond, kernel.Errno) {
	va, errno := l.Malloc(ctx, 32)
	if errno != kernel.OK {
		return nil, errno
	}
	if errno := ctx.StoreU32(va, 0); errno != kernel.OK {
		return nil, errno
	}
	return &Cond{seq: va}, kernel.OK
}

// Wait releases m, sleeps until signalled, and reacquires m.
func (c *Cond) Wait(ctx kernel.Context, m *Mutex) kernel.Errno {
	seq, errno := ctx.LoadU32(c.seq)
	if errno != kernel.OK {
		return errno
	}
	if errno := m.Unlock(ctx); errno != kernel.OK {
		return errno
	}
	_, errno = ctx.Syscall(kernel.SysFutex, uint64(c.seq), kernel.FutexWait, uint64(seq), 0)
	if errno != kernel.OK && errno != kernel.EAGAIN {
		return errno
	}
	return m.Lock(ctx)
}

// Signal wakes one waiter.
func (c *Cond) Signal(ctx kernel.Context) kernel.Errno {
	if _, errno := ctx.AddU32(c.seq, 1); errno != kernel.OK {
		return errno
	}
	ctx.Syscall(kernel.SysFutex, uint64(c.seq), kernel.FutexWake, 1)
	return kernel.OK
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast(ctx kernel.Context) kernel.Errno {
	if _, errno := ctx.AddU32(c.seq, 1); errno != kernel.OK {
		return errno
	}
	ctx.Syscall(kernel.SysFutex, uint64(c.seq), kernel.FutexWake, 1<<30)
	return kernel.OK
}

// Barrier is a pthread_barrier over (count, generation) words.
type Barrier struct {
	n     uint32
	count hw.VAddr
	gen   hw.VAddr
}

// NewBarrier allocates a barrier for n participants.
func (l *Lib) NewBarrier(ctx kernel.Context, n uint32) (*Barrier, kernel.Errno) {
	va, errno := l.Malloc(ctx, 64)
	if errno != kernel.OK {
		return nil, errno
	}
	ctx.StoreU32(va, 0)
	ctx.StoreU32(va+8, 0)
	return &Barrier{n: n, count: va, gen: va + 8}, kernel.OK
}

// Wait blocks until n threads have arrived.
func (b *Barrier) Wait(ctx kernel.Context) kernel.Errno {
	gen, _ := ctx.LoadU32(b.gen)
	cnt, errno := ctx.AddU32(b.count, 1)
	if errno != kernel.OK {
		return errno
	}
	if cnt == b.n {
		ctx.StoreU32(b.count, 0)
		ctx.AddU32(b.gen, 1)
		ctx.Syscall(kernel.SysFutex, uint64(b.gen), kernel.FutexWake, 1<<30)
		return kernel.OK
	}
	for {
		g, errno := ctx.LoadU32(b.gen)
		if errno != kernel.OK {
			return errno
		}
		if g != gen {
			return kernel.OK
		}
		_, errno = ctx.Syscall(kernel.SysFutex, uint64(b.gen), kernel.FutexWait, uint64(gen), 0)
		if errno != kernel.OK && errno != kernel.EAGAIN {
			return errno
		}
	}
}
