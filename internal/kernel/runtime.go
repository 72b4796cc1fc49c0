package kernel

import (
	"bgcnk/internal/hw"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// Runtime is the thread mechanism CNK and the FWK share: the futex table,
// thread start and exit with its CLONE_CHILD_CLEARTID wake, and signal
// delivery. The kernels differ in their schedulers, which the runtime
// reaches through OS.Block, OS.Resume and OS.Leave, in what a signal frame
// costs, and in what they record when a signal kills a thread.
type Runtime struct {
	eng       *sim.Engine
	frameCost sim.Cycles
	fatal     func(t *Thread, sig Signal)
	futexes   map[futexKey][]*futexWaiter
}

// NewRuntime builds a kernel's runtime. frameCost is charged before each
// signal handler runs; fatal, when non-nil, runs before a thread dies of a
// signal it has no handler for.
func NewRuntime(eng *sim.Engine, frameCost sim.Cycles, fatal func(t *Thread, sig Signal)) Runtime {
	return Runtime{eng: eng, frameCost: frameCost, fatal: fatal,
		futexes: make(map[futexKey][]*futexWaiter)}
}

// Reset forgets every futex waiter, as a kernel's per-job reset does.
func (r *Runtime) Reset() { r.futexes = make(map[futexKey][]*futexWaiter) }

// Spawn starts t on a new coroutine bound to core. body runs the thread;
// when it returns, t exits with status 0. An Exit anywhere below body
// unwinds to here.
func (r *Runtime) Spawn(name string, t *Thread, core *hw.Core, body func()) {
	r.eng.Go(name, func(c *sim.Coro) {
		defer recoverExit()
		t.coro, t.core = c, core
		body()
		r.Exit(t, 0)
	})
}

// Exit ends t with status code and does not return. It stores 0 to t's
// CLONE_CHILD_CLEARTID word and futex-wakes its joiners (pthread_join
// relies on it), has the kernel take t off its core and tear its process
// down (OS.Leave), and unwinds t's coroutine.
func (r *Runtime) Exit(t *Thread, code int) {
	if t.State == ThreadExited {
		panic(threadExit{}) // already torn down; just unwind
	}
	t.State = ThreadExited
	t.ExitCode = code
	if addr := t.ClearTID; addr != 0 {
		t.ClearTID = 0
		// Kernel-mode store: not subject to the DAC guard watch.
		var zero [4]byte
		t.StoreKernel(addr, zero[:])
		r.futexWake(t, addr, 1<<30)
	}
	t.os.Leave(t, code)
	panic(threadExit{})
}

// threadExit unwinds a thread's coroutine on exit; Spawn recovers it.
type threadExit struct{}

func recoverExit() {
	if r := recover(); r != nil {
		if _, ok := r.(threadExit); ok {
			return
		}
		panic(r)
	}
}

type futexKey struct {
	pid   uint32
	uaddr hw.VAddr
}

type futexWaiter struct {
	t     *Thread
	woken bool
}

// Futex is the futex system call: args are uaddr, op and val, and for
// FUTEX_WAIT a timeout in cycles (0 waits until woken).
func (r *Runtime) Futex(t *Thread, args []uint64) (uint64, Errno) {
	arg := func(i int) uint64 {
		if i < len(args) {
			return args[i]
		}
		return 0
	}
	uaddr := hw.VAddr(arg(0))
	switch arg(1) {
	case FutexWait:
		return 0, r.futexWait(t, uaddr, uint32(arg(2)), sim.Cycles(arg(3)))
	case FutexWake:
		return r.futexWake(t, uaddr, uint32(arg(2))), OK
	}
	return 0, EINVAL
}

// futexWait implements FUTEX_WAIT: block if *uaddr still equals val. The
// thread gives up its core while it sleeps and takes it back before it
// returns.
func (r *Runtime) futexWait(t *Thread, uaddr hw.VAddr, val uint32, timeout sim.Cycles) Errno {
	cur, errno := t.LoadU32(uaddr)
	if errno != OK {
		return errno
	}
	if cur != val {
		return EAGAIN
	}
	key := futexKey{t.pid, uaddr}
	w := &futexWaiter{t: t}
	r.futexes[key] = append(r.futexes[key], w)
	t.core.Chip.UPC.Inc(t.core.ID, upc.FutexWait)
	t.os.Block(t)
	t.State = ThreadBlocked

	deadline := sim.Forever
	if timeout != 0 && timeout < sim.Forever {
		deadline = timeout
	}
	start := t.coro.Now()
	timedOut := false
	for !w.woken {
		remaining := sim.Forever
		if deadline != sim.Forever {
			elapsed := t.coro.Now() - start
			if elapsed >= deadline {
				timedOut = true
				break
			}
			remaining = deadline - elapsed
		}
		if t.coro.Park(remaining) == sim.WakeTimeout && deadline != sim.Forever {
			timedOut = true
			break
		}
	}
	// A waiter that timed out unwoken leaves the queue, so no later wake
	// can reach it.
	timedOut = timedOut && !w.woken
	if timedOut {
		ws := r.futexes[key]
		for i, x := range ws {
			if x == w {
				r.futexes[key] = append(ws[:i], ws[i+1:]...)
				break
			}
		}
	}
	t.os.Resume(t)
	if timedOut {
		return ETIMEDOUT
	}
	return OK
}

// futexWake implements FUTEX_WAKE: wake up to n waiters in arrival order,
// returning the number woken.
func (r *Runtime) futexWake(t *Thread, uaddr hw.VAddr, n uint32) uint64 {
	t.core.Chip.UPC.Inc(t.core.ID, upc.FutexWake)
	key := futexKey{t.pid, uaddr}
	ws := r.futexes[key]
	woken := uint64(0)
	for len(ws) > 0 && woken < uint64(n) {
		w := ws[0]
		ws = ws[1:]
		w.woken = true
		w.t.State = ThreadReady
		w.t.coro.Wake()
		woken++
	}
	if len(ws) == 0 {
		delete(r.futexes, key)
	} else {
		r.futexes[key] = ws
	}
	return woken
}

// Raise posts a synchronous fault signal to t and delivers it at once.
func (r *Runtime) Raise(t *Thread, info SigInfo) {
	t.PostSignal(info)
	r.DeliverSignals(t)
}

// DeliverSignals runs t's queued signals at an interruption point. A
// signal the process handles costs a frame setup and runs its handler on
// t; an unhandled SIGKILL, SIGSEGV or SIGBUS kills t.
func (r *Runtime) DeliverSignals(t *Thread) {
	if t.State == ThreadExited {
		return
	}
	pending := t.pendingSigs
	t.pendingSigs = nil
	for _, info := range pending {
		if h, ok := t.sig.Lookup(info.Sig); ok {
			t.coro.Sleep(r.frameCost)
			h(t, info)
			continue
		}
		if info.Sig == SIGKILL || info.Sig == SIGSEGV || info.Sig == SIGBUS {
			if r.fatal != nil {
				r.fatal(t, info.Sig)
			}
			r.Exit(t, 128+int(info.Sig))
		}
	}
}
