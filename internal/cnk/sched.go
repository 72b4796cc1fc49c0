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

// Block implements kernel.OS: a thread waiting on a futex gives its core
// to the next ready thread. This is the one place CNK's scheduler makes a
// real decision (paper VI-C: "a thread enters the kernel only to wait
// until a futex may be granted by another core").
func (k *Kernel) Block(t *kernel.Thread) { k.cores[t.CoreID()].release(t) }

// Resume implements kernel.OS: the woken thread waits for its core, then
// services the IPIs and signals that arrived while it was blocked.
func (k *Kernel) Resume(t *kernel.Thread) {
	k.cores[t.CoreID()].acquire(t)
	k.ServiceInterrupt(t)
}

// Leave implements kernel.OS: the exiting thread frees its core slot, and
// the process is torn down when its last thread leaves.
func (k *Kernel) Leave(t *kernel.Thread, code int) {
	cs := k.cores[t.CoreID()]
	if cs.cur == t {
		cs.release(t)
	}
	cs.remove(t)
	if p := k.procs[t.PID()]; p != nil {
		p.liveThreads--
		if p.liveThreads == 0 {
			k.finishProc(p, code, t)
		}
	}
}
