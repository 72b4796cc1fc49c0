package kernel

import (
	"bgcnk/internal/hw"
	"bgcnk/internal/sim"
)

// PhysRange is one physically contiguous piece of a virtual buffer. CNK's
// static map yields a single range for any in-bounds buffer; an FWK's 4KB
// anonymous pages yield one range per page, which is what makes
// user-driven DMA (and Fig 8's bandwidth) harder there.
type PhysRange struct {
	PA  hw.PAddr
	Len uint64
}

// SigInfo accompanies a delivered signal.
type SigInfo struct {
	Sig  Signal
	Addr hw.VAddr // faulting or affected address, if any
	Code int
}

// SigHandler is a user-registered signal handler. It runs on the thread's
// own execution context, like a real signal frame.
type SigHandler func(ctx Context, info SigInfo)

// ThreadFunc is the entry point of a cloned thread. It stands in for the
// function-pointer argument of the clone system call.
type ThreadFunc func(ctx Context)

// CloneArgs carries the non-flag arguments of clone: the child's stack and
// thread-local-storage pointers and the parent/child TID addresses, as
// glibc passes them (paper Section IV-B1).
type CloneArgs struct {
	Flags      uint64
	ChildStack hw.VAddr
	TLS        hw.VAddr
	ParentTID  hw.VAddr // store child's TID here in parent (CLONE_PARENT_SETTID)
	ChildTID   hw.VAddr // cleared+futex-woken on child exit (CLONE_CHILD_CLEARTID)
	Fn         ThreadFunc
}

// Context is a user thread's view of the machine: the only way application
// and runtime-library code interacts with a kernel. *Thread is its one
// implementation, on either kernel; user-level packages (nptl, libc, dcmf,
// apps) compile against this interface only, which keeps them away from
// the kernel-mode calls a Thread also offers, such as StoreKernel.
type Context interface {
	// Compute burns c CPU cycles of pure computation. On a preemptive
	// kernel the thread may be interrupted and rescheduled during the
	// burn; the cycle count of actual work is preserved.
	Compute(c sim.Cycles)

	// Now returns the current cycle (the timebase register).
	Now() sim.Cycles

	// PID and TID identify the process and thread.
	PID() uint32
	TID() uint32

	// CoreID returns the hardware core currently executing the thread.
	CoreID() int

	// Syscall invokes a numeric system call.
	Syscall(num Sys, args ...uint64) (uint64, Errno)

	// Clone creates a new thread (or, on an FWK with different flags, a
	// process). It is the typed face of the clone syscall.
	Clone(args CloneArgs) (uint32, Errno)

	// Load and Store move data between the caller and virtual memory,
	// charging memory-hierarchy costs and honouring page permissions.
	Load(va hw.VAddr, buf []byte) Errno
	Store(va hw.VAddr, buf []byte) Errno

	// Word and string conveniences over Load/Store (big-endian, like the
	// PowerPC). Futex words are 32-bit.
	LoadU32(va hw.VAddr) (uint32, Errno)
	StoreU32(va hw.VAddr, v uint32) Errno
	LoadU64(va hw.VAddr) (uint64, Errno)
	StoreU64(va hw.VAddr, v uint64) Errno
	LoadCString(va hw.VAddr, max int) (string, Errno)
	StoreCString(va hw.VAddr, s string) Errno

	// Atomic read-modify-write primitives (lwarx/stwcx on the real
	// part): the read and write happen with no intervening scheduling
	// point, and the memory-hierarchy cost is charged afterwards.
	CASU32(va hw.VAddr, old, new uint32) (bool, Errno)
	SwapU32(va hw.VAddr, v uint32) (uint32, Errno)
	AddU32(va hw.VAddr, delta uint32) (uint32, Errno)

	// Touch charges the cost of accessing [va, va+size) without moving
	// data; compute kernels use it to model their access patterns.
	Touch(va hw.VAddr, size uint32, write bool) Errno

	// VtoP resolves a virtual buffer to physical ranges. Under CNK this
	// is a user-space query of the static map (free); under an FWK it is
	// a pinning syscall with per-page cost.
	VtoP(va hw.VAddr, size uint64) ([]PhysRange, Errno)

	// RegisterSignal installs a user handler (the typed face of
	// sigaction).
	RegisterSignal(sig Signal, h SigHandler) Errno
}

// JobParams describes a job launch: how many processes share a node, the
// up-front shared-memory size (paper Section VII-B: "CNK requires the user
// to define the size of the shared memory allocation up-front"), and the
// per-thread guard size.
type JobParams struct {
	ProcsPerNode int    // 1 (SMP), 2 (DUAL) or 4 (VN)
	ShmBytes     uint64 // node-wide shared memory region
	GuardBytes   uint64 // stack guard area size (default 4KB)
}

// Mode returns the Blue Gene name for the process count.
func (j JobParams) Mode() string {
	switch j.ProcsPerNode {
	case 1:
		return "SMP"
	case 2:
		return "DUAL"
	case 4:
		return "VN"
	}
	return "custom"
}
