package kernel

import (
	"bgcnk/internal/hw"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// CPU is one core's owner/ready handoff, the scheduling mechanism CNK and
// the FWK share: one thread owns the core and runs, the threads ready for
// it wait in arrival order, and a release grants the core to the first of
// them. Each kernel adds its policy on top: CNK its fixed affinity and
// thread budget, the FWK its tick and round-robin. The runtime releases a
// thread's core while the thread sleeps on a futex and when it exits.
type CPU struct {
	Core *hw.Core

	cur   *Thread   // thread owning the core (nil = idle)
	ready []*Thread // runnable, waiting for the core
}

// Owner returns the thread that owns the core, or nil when it is idle.
func (c *CPU) Owner() *Thread { return c.cur }

// Waiting returns the number of threads ready for the core.
func (c *CPU) Waiting() int { return len(c.ready) }

// Reset forgets the owner and the waiting threads, as a kernel's per-job
// reset does.
func (c *CPU) Reset() { c.cur, c.ready = nil, nil }

// grant hands the idle core to the next ready thread, if any.
func (c *CPU) grant() {
	if c.cur != nil || len(c.ready) == 0 {
		return
	}
	c.cur = c.ready[0]
	c.ready = c.ready[1:]
	c.Core.Chip.UPC.Inc(c.Core.ID, upc.ContextSwitch)
	c.cur.coro.Wake()
}

// Acquire blocks t until it owns the core. It runs on t's own coroutine,
// at thread start and after a futex sleep.
func (c *CPU) Acquire(t *Thread) {
	if c.cur == t {
		t.State = ThreadRunning
		return
	}
	if c.cur == nil && len(c.ready) == 0 {
		c.cur = t // immediate self-grant; no wake needed
		t.State = ThreadRunning
		return
	}
	c.ready = append(c.ready, t)
	if c.cur == nil && c.ready[0] == t {
		c.ready = c.ready[1:]
		c.cur = t
		t.State = ThreadRunning
		return
	}
	c.grant()
	for c.cur != t {
		t.coro.Park(sim.Forever)
	}
	t.State = ThreadRunning
}

// Release gives up the core, which t must own, and grants it onward.
func (c *CPU) Release(t *Thread) {
	if c.cur != t {
		panic("kernel: release by non-owner")
	}
	c.cur = nil
	c.grant()
}

// Yield hands the core, which t owns, to the first ready thread and
// queues t behind the others; with none ready, t keeps the core.
func (c *CPU) Yield(t *Thread) {
	if len(c.ready) == 0 {
		return
	}
	c.Release(t)
	c.Acquire(t)
}
