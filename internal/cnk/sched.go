package cnk

import (
	"fmt"

	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// coreSched is CNK's per-core "scheduler". It is deliberately trivial
// (paper Section VI-C): threads have fixed affinity to the core, are never
// preempted, and give it up only by blocking on a futex, yielding
// explicitly, or exiting. I/O system calls do NOT release the core.
type coreSched struct {
	k    *Kernel
	core *hw.Core

	assigned []*kernel.Thread // threads placed on this core (small, fixed)
	cur      *kernel.Thread   // thread owning the core (nil = idle)
	ready    []*kernel.Thread // runnable, waiting for the core

	// pendingIPIs are directed interrupts to service on this core.
	pendingIPIs []func(*kernel.Thread)

	// lentTo is the PID of the single designated remote process this
	// core may also execute threads for (extended thread-affinity model,
	// paper Section VIII). Zero when not lent.
	lentTo uint32

	ContextSwitches uint64
}

// proc returns the process this core is assigned to (via its threads).
func (cs *coreSched) load() int { return len(cs.assigned) }

// place assigns a thread to this core permanently.
func (cs *coreSched) place(t *kernel.Thread) {
	if len(cs.assigned) >= cs.k.cfg.MaxThreadsPerCore {
		panic(fmt.Sprintf("cnk: core %d thread budget exceeded", cs.core.ID))
	}
	cs.assigned = append(cs.assigned, t)
}

// remove drops an exited thread from the core's assignment list, freeing
// its slot for a later job on the same node.
func (cs *coreSched) remove(t *kernel.Thread) {
	for i, x := range cs.assigned {
		if x == t {
			cs.assigned = append(cs.assigned[:i], cs.assigned[i+1:]...)
			return
		}
	}
}

// grant hands the idle core to the next ready thread, if any.
func (cs *coreSched) grant() {
	if cs.cur != nil || len(cs.ready) == 0 {
		return
	}
	cs.cur = cs.ready[0]
	cs.ready = cs.ready[1:]
	cs.ContextSwitches++
	cs.core.Chip.UPC.Inc(cs.core.ID, upc.ContextSwitch)
	cs.cur.Coro().Wake()
}

// acquire blocks t until it owns the core. Called at thread start and
// after blocking. Must run on t's own coroutine.
func (cs *coreSched) acquire(t *kernel.Thread) {
	if cs.cur == t {
		t.State = kernel.ThreadRunning
		return
	}
	if cs.cur == nil && len(cs.ready) == 0 {
		cs.cur = t // immediate self-grant; no wake needed
		t.State = kernel.ThreadRunning
		return
	}
	cs.ready = append(cs.ready, t)
	if cs.cur == nil && cs.ready[0] == t {
		cs.ready = cs.ready[1:]
		cs.cur = t
		t.State = kernel.ThreadRunning
		return
	}
	cs.grant()
	for cs.cur != t {
		t.Coro().Park(sim.Forever)
	}
	t.State = kernel.ThreadRunning
}

// release gives up the core (t must own it) and grants it onward.
func (cs *coreSched) release(t *kernel.Thread) {
	if cs.cur != t {
		panic("cnk: release by non-owner")
	}
	cs.cur = nil
	cs.grant()
}

// yield implements sched_yield: only meaningful when another thread shares
// the core ("Sharing a core is rare in HPC applications" — paper VI-C).
func (cs *coreSched) yield(t *kernel.Thread) {
	if len(cs.ready) == 0 {
		return // nothing to yield to; stay on core
	}
	cs.release(t)
	cs.acquire(t)
}

// postIPI queues fn for execution in interrupt context on this core and
// pokes the owning thread so a compute burst observes it.
func (cs *coreSched) postIPI(fn func(*kernel.Thread)) {
	cs.pendingIPIs = append(cs.pendingIPIs, fn)
	if cs.cur != nil {
		cs.cur.Coro().Wake()
	}
}

// --- futex ---

type futexKey struct {
	pid   uint32
	uaddr hw.VAddr
}

type futexWaiter struct {
	t     *kernel.Thread
	woken bool
}

// futexWait implements FUTEX_WAIT: block if *uaddr still equals val.
// The core is released while blocked — this is the one place CNK's
// scheduler makes a real decision (paper VI-C: "a thread enters the kernel
// only to wait until a futex may be granted by another core").
func (k *Kernel) futexWait(t *kernel.Thread, uaddr hw.VAddr, val uint32, timeout sim.Cycles) kernel.Errno {
	cur, errno := t.LoadU32(uaddr)
	if errno != kernel.OK {
		return errno
	}
	if cur != val {
		return kernel.EAGAIN
	}
	key := futexKey{t.PID(), uaddr}
	w := &futexWaiter{t: t}
	k.futexes[key] = append(k.futexes[key], w)
	cs := k.cores[t.CoreID()]
	k.Chip.UPC.Inc(cs.core.ID, upc.FutexWait)
	cs.release(t)
	t.State = kernel.ThreadBlocked

	deadline := sim.Forever
	if timeout != 0 && timeout < sim.Forever {
		deadline = timeout
	}
	start := t.Coro().Now()
	timedOut := false
	for !w.woken {
		remaining := sim.Forever
		if deadline != sim.Forever {
			elapsed := t.Coro().Now() - start
			if elapsed >= deadline {
				timedOut = true
				break
			}
			remaining = deadline - elapsed
		}
		if t.Coro().Park(remaining) == sim.WakeTimeout && deadline != sim.Forever {
			timedOut = true
			break
		}
	}
	if timedOut && !w.woken {
		k.futexRemove(key, w)
	}
	cs.acquire(t)
	k.ServiceInterrupt(t) // catch IPIs/signals that arrived while blocked
	if timedOut && !w.woken {
		return kernel.ETIMEDOUT
	}
	return kernel.OK
}

func (k *Kernel) futexRemove(key futexKey, w *futexWaiter) {
	ws := k.futexes[key]
	for i, x := range ws {
		if x == w {
			k.futexes[key] = append(ws[:i], ws[i+1:]...)
			return
		}
	}
}

// futexWake implements FUTEX_WAKE: wake up to n waiters, returning the
// number woken.
func (k *Kernel) futexWake(t *kernel.Thread, uaddr hw.VAddr, n uint32) uint64 {
	k.Chip.UPC.Inc(t.CoreID(), upc.FutexWake)
	key := futexKey{t.PID(), uaddr}
	ws := k.futexes[key]
	woken := uint64(0)
	for len(ws) > 0 && woken < uint64(n) {
		w := ws[0]
		ws = ws[1:]
		w.woken = true
		w.t.State = kernel.ThreadReady
		w.t.Coro().Wake()
		woken++
	}
	if len(ws) == 0 {
		delete(k.futexes, key)
	} else {
		k.futexes[key] = ws
	}
	return woken
}

// exitThread finalizes a thread: CLONE_CHILD_CLEARTID semantics (store 0,
// futex-wake joiners), core release, process teardown when the last
// thread leaves.
func (k *Kernel) exitThread(t *kernel.Thread, code int) {
	if t.State == kernel.ThreadExited {
		panic(threadExit{code}) // already torn down; just unwind
	}
	p := k.procs[t.PID()]
	t.State = kernel.ThreadExited
	t.ExitCode = code
	if addr := t.ClearTID; addr != 0 {
		t.ClearTID = 0
		// Kernel-mode store: not subject to the DAC guard watch.
		var zero [4]byte
		t.StoreKernel(addr, zero[:])
		k.futexWake(t, addr, 1<<30)
	}
	cs := k.cores[t.CoreID()]
	if cs.cur == t {
		cs.release(t)
	}
	cs.remove(t)
	if p != nil {
		p.liveThreads--
		if p.liveThreads == 0 {
			k.finishProc(p, code, t)
		}
	}
	// Unwind the thread's coroutine.
	panic(threadExit{code})
}

// threadExit unwinds a thread coroutine on exit; recovered at the
// coroutine top.
type threadExit struct{ code int }
