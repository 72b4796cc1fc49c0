package cnk

import (
	"fmt"

	"bgcnk/internal/kernel"
)

// coreSched is CNK's per-core "scheduler". It is deliberately trivial
// (paper Section VI-C): threads have fixed affinity to the core, are never
// preempted, and give it up only by blocking on a futex (the one place
// the scheduler makes a real decision: "a thread enters the kernel only
// to wait until a futex may be granted by another core"), yielding
// explicitly, or exiting. I/O system calls do NOT release the core. The
// owner/ready handoff itself is the shared kernel.CPU.
type coreSched struct {
	kernel.CPU
	k *Kernel

	assigned []*kernel.Thread // threads placed on this core (small, fixed)

	// pendingIPIs are directed interrupts to service on this core.
	pendingIPIs []func(*kernel.Thread)

	// lentTo is the PID of the single designated remote process this
	// core may also execute threads for (extended thread-affinity model,
	// paper Section VIII). Zero when not lent.
	lentTo uint32
}

// load is the number of threads placed on this core.
func (cs *coreSched) load() int { return len(cs.assigned) }

// place assigns a thread to this core permanently.
func (cs *coreSched) place(t *kernel.Thread) {
	if len(cs.assigned) >= cs.k.cfg.MaxThreadsPerCore {
		panic(fmt.Sprintf("cnk: core %d thread budget exceeded", cs.Core.ID))
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

// postIPI queues fn for execution in interrupt context on this core and
// pokes the owning thread so a compute burst observes it.
func (cs *coreSched) postIPI(fn func(*kernel.Thread)) {
	cs.pendingIPIs = append(cs.pendingIPIs, fn)
	if t := cs.Owner(); t != nil {
		t.Coro().Wake()
	}
}

// Resume implements kernel.OS: the woken thread waits for its core, then
// services the IPIs and signals that arrived while it was blocked.
func (k *Kernel) Resume(t *kernel.Thread) {
	k.cores[t.CoreID()].Acquire(t)
	k.ServiceInterrupt(t)
}

// Leave implements kernel.OS: the exiting thread frees its core slot, and
// the process is torn down when its last thread leaves.
func (k *Kernel) Leave(t *kernel.Thread, code int) {
	k.cores[t.CoreID()].remove(t)
	if p := k.procs[t.PID()]; p != nil && p.ThreadExited(code) {
		k.finishProc(p, code, t)
	}
}
