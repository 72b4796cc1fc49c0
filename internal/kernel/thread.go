package kernel

import (
	"fmt"
	"slices"

	"bgcnk/internal/hw"
	"bgcnk/internal/sim"
)

// OS is the kernel-side contract Thread and Runtime execute against. CNK
// and the FWK each implement it; Thread provides the user-visible Context
// on top. The kernels share the core handoff (CPU), the process
// bookkeeping (Process) and the system-call front end (Serve); each
// supplies only Resume, the process half of Leave and its own calls.
type OS interface {
	// Name identifies the kernel ("CNK", "FWK").
	Name() string

	// NextInterrupt returns the next cycle at which the thread's core
	// must take an interrupt (timer tick, pending IPI), or sim.Forever.
	NextInterrupt(t *Thread) sim.Cycles

	// ServiceInterrupt runs interrupt work due for the thread's core at
	// the current time. It charges ISR cycles on the thread's coroutine
	// and may reschedule (park) the thread.
	ServiceInterrupt(t *Thread)

	// Translate resolves va for the thread, charging TLB-miss or
	// page-fault costs. It returns the physical address, the number of
	// bytes valid from va within the mapping, and the page permissions.
	Translate(t *Thread, va hw.VAddr, write bool) (hw.PAddr, uint64, hw.Perm, Errno)

	// Syscall handles a numeric system call, through Serve.
	Syscall(t *Thread, num Sys, args []uint64) (uint64, Errno)

	// Clone creates a thread (or process) per args.
	Clone(t *Thread, args CloneArgs) (uint32, Errno)

	// VtoP is the physical-ranges query (free under CNK; a pinning
	// syscall under an FWK).
	VtoP(t *Thread, va hw.VAddr, size uint64) ([]PhysRange, Errno)

	// MemEvent handles an exceptional memory event (L1 parity, DAC/guard
	// hit) raised by an access at va.
	MemEvent(t *Thread, ev hw.MemEvent, va hw.VAddr, write bool)

	// SyscallEntryCost is the kernel entry/exit overhead in cycles.
	SyscallEntryCost() sim.Cycles

	// Resume takes t's core back after a futex sleep and services what
	// arrived meanwhile (CNK: IPIs, then signals; the FWK: signals).
	Resume(t *Thread)

	// Leave is the process half of a thread's exit, after the runtime
	// has taken t off its core: the kernel drops its own record of t and,
	// when t was the last thread of its process, tears the process down.
	Leave(t *Thread, code int)
}

// ThreadState tracks scheduling state.
type ThreadState int

// Thread states.
const (
	ThreadReady ThreadState = iota
	ThreadRunning
	ThreadBlocked
	ThreadExited
)

func (s ThreadState) String() string {
	return [...]string{"ready", "running", "blocked", "exited"}[s]
}

// Thread is one software thread: the kernel-neutral execution context
// bound to a simulation coroutine and (when running) a hardware core.
type Thread struct {
	os   OS
	id   uint32
	pid  uint32
	sig  *SignalTable // the process's handlers
	cpu  *CPU         // the core the thread is bound to
	coro *sim.Coro

	State    ThreadState
	ExitCode int

	// ClearTID is the CLONE_CHILD_CLEARTID address: zeroed and
	// futex-woken when the thread exits (pthread_join relies on it).
	ClearTID hw.VAddr

	// pendingSigs are asynchronous signals awaiting delivery at the next
	// interruption point.
	pendingSigs []SigInfo

	// Wire is the thread's file-call buffer, kept from one call to the
	// next: ciod.Decode hands it to every request, a write's payload
	// loaded into it behind room for the request header, and
	// ciod.Recycle gives the thread the buffer the reply came back in.
	// Nil before the first call and after a call whose reply came back
	// in no buffer the thread may keep.
	Wire []byte
}

// Coro exposes the coroutine to the owning kernel.
func (t *Thread) Coro() *sim.Coro { return t.coro }

// HWCore exposes the bound core to the owning kernel.
func (t *Thread) HWCore() *hw.Core { return t.cpu.Core }

// PostSignal queues an asynchronous signal and pokes the thread.
func (t *Thread) PostSignal(info SigInfo) {
	t.pendingSigs = append(t.pendingSigs, info)
	if t.coro != nil {
		t.coro.Wake()
	}
}

// --- Context implementation ---

// PID implements Context.
func (t *Thread) PID() uint32 { return t.pid }

// TID implements Context.
func (t *Thread) TID() uint32 { return t.id }

// CoreID implements Context.
func (t *Thread) CoreID() int { return t.cpu.Core.ID }

// Now implements Context.
func (t *Thread) Now() sim.Cycles { return t.coro.Now() }

// Compute implements Context: it burns c cycles of work, taking interrupts
// at the points the kernel dictates. Cycles consumed by interrupt service
// or preemption do not count toward the requested work — which is exactly
// why FWQ observes them as noise.
func (t *Thread) Compute(c sim.Cycles) {
	remaining := c
	for remaining > 0 {
		now := t.coro.Now()
		next := t.os.NextInterrupt(t)
		if next <= now {
			t.os.ServiceInterrupt(t)
			continue
		}
		slice := remaining
		if next != sim.Forever && next-now < slice {
			slice = next - now
		}
		start := t.coro.Now()
		reason := t.coro.Park(slice)
		ran := t.coro.Now() - start
		if ran > remaining {
			ran = remaining
		}
		remaining -= ran
		if reason == sim.WakeSignal {
			t.os.ServiceInterrupt(t)
		}
	}
}

// countSyscall charges the kernel entry against the chip's UPC unit. It
// lives here, on the kernel-neutral path, so both CNK and the FWK are
// counted once per entry with no per-kernel bookkeeping.
func (t *Thread) countSyscall(num Sys) {
	if t.cpu == nil || t.cpu.Core.Chip == nil {
		return
	}
	t.cpu.Core.Chip.UPC.Syscall(t.cpu.Core.ID, int(num))
}

// Syscall implements Context.
func (t *Thread) Syscall(num Sys, args ...uint64) (uint64, Errno) {
	t.countSyscall(num)
	t.coro.Sleep(t.os.SyscallEntryCost())
	ret, errno := t.os.Syscall(t, num, args)
	return ret, errno
}

// Clone implements Context.
func (t *Thread) Clone(args CloneArgs) (uint32, Errno) {
	t.countSyscall(SysClone)
	t.coro.Sleep(t.os.SyscallEntryCost())
	return t.os.Clone(t, args)
}

// VtoP implements Context.
func (t *Thread) VtoP(va hw.VAddr, size uint64) ([]PhysRange, Errno) {
	return t.os.VtoP(t, va, size)
}

// RegisterSignal implements Context (the typed face of sigaction, which
// NPTL needs for thread signalling and cancellation — paper IV-B1).
// SIGKILL cannot be caught.
func (t *Thread) RegisterSignal(sig Signal, h SigHandler) Errno {
	t.countSyscall(SysSigaction)
	t.coro.Sleep(t.os.SyscallEntryCost())
	if sig == SIGKILL {
		return EINVAL
	}
	t.sig.Register(sig, h)
	return OK
}

// access performs the translation, permission, guard, and cache work for
// one memory operation, chunked by mapping, and returns buf. When buf is
// non-nil it moves bytes between buf[at:] and physical memory; a read
// into a buf shorter than at+size grows it by each piece once that piece
// has translated, so a buf that starts short holds only what was loaded.
func (t *Thread) access(va hw.VAddr, size uint32, write bool, buf []byte, at int) ([]byte, Errno) {
	if size == 0 {
		return buf, OK
	}
	chip := t.cpu.Core.Chip
	off := uint32(0)
	for off < size {
		cur := va + hw.VAddr(off)
		// The DAC watch precedes translation: it matches on virtual
		// addresses (guard-page mechanism, paper Fig 4).
		if write && t.cpu.Core.CheckDAC(t.pid, cur) {
			t.os.MemEvent(t, hw.EvNone, cur, write)
			return buf, EFAULT
		}
		pa, contig, perm, errno := t.os.Translate(t, cur, write)
		if errno != OK {
			return buf, errno
		}
		want := hw.PermRead
		if write {
			want = hw.PermWrite
		}
		if !perm.Has(want) {
			t.os.MemEvent(t, hw.EvNone, cur, write)
			return buf, EFAULT
		}
		n := size - off
		if uint64(n) > contig {
			n = uint32(contig)
		}
		cost, ev := chip.Cache.Access(t.cpu.Core.ID, pa, n, write, t.coro.Now())
		if cost > 0 {
			t.coro.Sleep(cost)
		}
		if ev != hw.EvNone {
			t.os.MemEvent(t, ev, cur, write)
		}
		if buf != nil {
			lo, hi := at+int(off), at+int(off+n)
			if write {
				chip.Mem.Write(pa, buf[lo:hi])
			} else {
				if len(buf) < hi {
					// Double the capacity, up to at+size: a load in 4 KiB
					// pieces (the FWK's) allocates about twice its size
					// in all, not the five times append's 1.25x would.
					grow := min(at+int(size), max(hi, 2*cap(buf))) - len(buf)
					buf = slices.Grow(buf, grow)[:hi]
				}
				chip.Mem.Read(pa, buf[lo:hi])
			}
		}
		off += n
	}
	return buf, OK
}

// StoreKernel is a kernel-mode store: it bypasses the DAC watch and page
// permissions (kernel accesses are not subject to user watchpoints on the
// real part). Used for CLONE_CHILD_CLEARTID and similar kernel-side
// writes. Unmapped addresses fail silently with EFAULT.
func (t *Thread) StoreKernel(va hw.VAddr, buf []byte) Errno {
	off := 0
	for off < len(buf) {
		pa, contig, _, errno := t.os.Translate(t, va+hw.VAddr(off), true)
		if errno != OK {
			return errno
		}
		n := len(buf) - off
		if uint64(n) > contig {
			n = int(contig)
		}
		t.cpu.Core.Chip.Mem.Write(pa, buf[off:off+n])
		off += n
	}
	return OK
}

// Load implements Context.
func (t *Thread) Load(va hw.VAddr, buf []byte) Errno {
	_, errno := t.access(va, uint32(len(buf)), false, buf, 0)
	return errno
}

// LoadInto loads size bytes at va into buf[at:at+size] and returns buf.
// A buf too short for a piece is extended, once that piece has
// translated, to end after it; what buf holds before at is left as it
// is. So a load from unmapped memory allocates nothing, and neither does
// one that fits buf's capacity; one that faults partway allocates about
// what it loaded, and one that translates in one piece allocates once.
// buf may be nil.
func (t *Thread) LoadInto(buf []byte, at int, va hw.VAddr, size uint32) ([]byte, Errno) {
	if buf == nil {
		buf = []byte{} // a nil buf moves no data
	}
	return t.access(va, size, false, buf, at)
}

// Store implements Context.
func (t *Thread) Store(va hw.VAddr, buf []byte) Errno {
	_, errno := t.access(va, uint32(len(buf)), true, buf, 0)
	return errno
}

// Touch implements Context.
func (t *Thread) Touch(va hw.VAddr, size uint32, write bool) Errno {
	_, errno := t.access(va, size, write, nil, 0)
	return errno
}

// LoadU64 is a convenience big-endian load.
func (t *Thread) LoadU64(va hw.VAddr) (uint64, Errno) {
	var b [8]byte
	if errno := t.Load(va, b[:]); errno != OK {
		return 0, errno
	}
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v, OK
}

// StoreU64 is a convenience big-endian store.
func (t *Thread) StoreU64(va hw.VAddr, v uint64) Errno {
	var b [8]byte
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
	return t.Store(va, b[:])
}

// LoadU32 loads a big-endian 32-bit word (futex words are 32-bit).
func (t *Thread) LoadU32(va hw.VAddr) (uint32, Errno) {
	var b [4]byte
	if errno := t.Load(va, b[:]); errno != OK {
		return 0, errno
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), OK
}

// StoreU32 stores a big-endian 32-bit word.
func (t *Thread) StoreU32(va hw.VAddr, v uint32) Errno {
	b := [4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
	return t.Store(va, b[:])
}

// LoadCString reads a NUL-terminated string (bounded).
func (t *Thread) LoadCString(va hw.VAddr, max int) (string, Errno) {
	var out []byte
	for len(out) < max {
		var b [1]byte
		if errno := t.Load(va+hw.VAddr(len(out)), b[:]); errno != OK {
			return "", errno
		}
		if b[0] == 0 {
			return string(out), OK
		}
		out = append(out, b[0])
	}
	return "", ENAMETOOLONG
}

// StoreCString writes a NUL-terminated string.
func (t *Thread) StoreCString(va hw.VAddr, s string) Errno {
	return t.Store(va, append([]byte(s), 0))
}

// StoreCwd copies a getcwd result to the size-byte user buffer at va as a
// C string and returns its length: ENAMETOOLONG when the string and its
// NUL do not fit.
func (t *Thread) StoreCwd(va hw.VAddr, size uint64, cwd string) (uint64, Errno) {
	if uint64(len(cwd)+1) > size {
		return 0, ENAMETOOLONG
	}
	if errno := t.StoreCString(va, cwd); errno != OK {
		return 0, errno
	}
	return uint64(len(cwd)), OK
}

// StoreNames copies a readdir result to the size-byte user buffer at va,
// each name NUL-terminated, and returns the number of names: EOVERFLOW
// when they do not fit.
func (t *Thread) StoreNames(va hw.VAddr, size uint64, names []string) (uint64, Errno) {
	var out []byte
	for _, n := range names {
		out = append(out, n...)
		out = append(out, 0)
	}
	if uint64(len(out)) > size {
		return 0, EOVERFLOW
	}
	if len(out) > 0 {
		if errno := t.Store(va, out); errno != OK {
			return 0, errno
		}
	}
	return uint64(len(names)), OK
}

// atomicRMW performs fn on the 32-bit word at va as one indivisible step:
// translation, read, and conditional write occur with no scheduling point
// in between, then the cache cost is charged. This models lwarx/stwcx.
func (t *Thread) atomicRMW(va hw.VAddr, fn func(cur uint32) (uint32, bool)) (uint32, Errno) {
	if write := true; t.cpu.Core.CheckDAC(t.pid, va) && write {
		t.os.MemEvent(t, hw.EvNone, va, true)
		return 0, EFAULT
	}
	pa, _, perm, errno := t.os.Translate(t, va, true)
	if errno != OK {
		return 0, errno
	}
	if !perm.Has(hw.PermRW) {
		t.os.MemEvent(t, hw.EvNone, va, true)
		return 0, EFAULT
	}
	chip := t.cpu.Core.Chip
	var b [4]byte
	chip.Mem.Read(pa, b[:])
	cur := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	nv, doWrite := fn(cur)
	if doWrite {
		b = [4]byte{byte(nv >> 24), byte(nv >> 16), byte(nv >> 8), byte(nv)}
		chip.Mem.Write(pa, b[:])
	}
	cost, ev := chip.Cache.Access(t.cpu.Core.ID, pa, 4, doWrite, t.coro.Now())
	t.coro.Sleep(cost + 8) // reservation pair cost
	if ev != hw.EvNone {
		t.os.MemEvent(t, ev, va, true)
	}
	return cur, OK
}

// CASU32 implements Context: atomic compare-and-swap.
func (t *Thread) CASU32(va hw.VAddr, old, new uint32) (bool, Errno) {
	cur, errno := t.atomicRMW(va, func(c uint32) (uint32, bool) {
		return new, c == old
	})
	return errno == OK && cur == old, errno
}

// SwapU32 implements Context: atomic exchange.
func (t *Thread) SwapU32(va hw.VAddr, v uint32) (uint32, Errno) {
	return t.atomicRMW(va, func(uint32) (uint32, bool) { return v, true })
}

// AddU32 implements Context: atomic add, returning the NEW value.
func (t *Thread) AddU32(va hw.VAddr, delta uint32) (uint32, Errno) {
	cur, errno := t.atomicRMW(va, func(c uint32) (uint32, bool) { return c + delta, true })
	return cur + delta, errno
}

func (t *Thread) String() string {
	return fmt.Sprintf("%s pid=%d tid=%d", t.os.Name(), t.pid, t.id)
}

// Statically assert Thread satisfies Context.
var _ Context = (*Thread)(nil)

// SignalTable is the per-process registered-handler table.
type SignalTable struct {
	handlers map[Signal]SigHandler
}

// Register installs h for sig.
func (s *SignalTable) Register(sig Signal, h SigHandler) {
	if s.handlers == nil {
		s.handlers = make(map[Signal]SigHandler)
	}
	s.handlers[sig] = h
}

// Lookup returns the handler for sig.
func (s *SignalTable) Lookup(sig Signal) (SigHandler, bool) {
	h, ok := s.handlers[sig]
	return h, ok
}
