package fwk

import (
	"fmt"

	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/obs"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// cpu is one core's preemptive scheduler state.
type cpu struct {
	k    *Kernel
	core *hw.Core

	cur   *kernel.Thread
	ready []*kernel.Thread

	nextTick sim.Cycles
	daemons  []*daemon

	Ticks      uint64
	DaemonRuns uint64
}

// daemon is a background kernel thread with its own coroutine. When due,
// it preempts whatever user thread holds the core, runs its burst
// (polluting the caches with its working set), and hands the core back.
type daemon struct {
	spec    DaemonSpec
	cpu     *cpu
	coro    *sim.Coro
	nextRun sim.Cycles
	jitter  *sim.RNG
	// handshake with the preempted thread
	active   bool
	resumeMe *kernel.Thread
	wsBase   hw.PAddr // private working-set physical base
}

func (k *Kernel) startDaemon(spec DaemonSpec) {
	c := k.cpus[spec.Core]
	d := &daemon{
		spec:   spec,
		cpu:    c,
		jitter: k.rng.Fork(uint64(len(c.daemons)) + uint64(spec.Core)<<8),
		wsBase: hw.PAddr(32<<20 + uint64(spec.Core)<<20 + uint64(len(c.daemons))*(64<<10)),
	}
	d.nextRun = k.BootedAt + spec.Period/4 + d.jitter.Cycles(spec.Period)
	c.daemons = append(c.daemons, d)
	d.coro = k.Eng.Go("daemon."+spec.Name, d.loop)
}

// loop waits to be dispatched by the tick handler, then runs one burst.
func (d *daemon) loop(c *sim.Coro) {
	for {
		for !d.active {
			c.Park(sim.Forever)
		}
		// Burst: CPU time plus cache pollution from the daemon's working
		// set walking through L1.
		runStart := c.Now()
		burst := d.spec.Burst + d.jitter.Cycles(d.spec.Burst/8)
		if cost, _ := d.cpu.core.Chip.Cache.Access(d.cpu.core.ID, d.wsBase, d.spec.WorkingSet, false, c.Now()); cost > 0 {
			c.Sleep(cost)
		}
		c.Sleep(burst)
		d.cpu.DaemonRuns++
		d.cpu.core.Chip.UPC.Inc(d.cpu.core.ID, upc.DaemonRun)
		d.cpu.k.obs.Emit(obs.CatSched, d.spec.Name, d.cpu.k.Chip.ID, d.spec.Core, runStart, c.Now(), d.cpu.DaemonRuns)
		d.nextRun = c.Now() + d.spec.Period + d.jitter.Cycles(d.spec.Period/16)
		d.active = false
		if t := d.resumeMe; t != nil {
			d.resumeMe = nil
			t.Coro().Wake()
		}
	}
}

// NextInterrupt implements kernel.OS: the next timer tick on the thread's
// core.
func (k *Kernel) NextInterrupt(t *kernel.Thread) sim.Cycles {
	return k.cpus[t.CoreID()].nextTick
}

// ServiceInterrupt implements kernel.OS: the tick handler. It charges the
// ISR, dispatches due daemons (preempting the caller), round-robins the
// run queue, and delivers signals.
func (k *Kernel) ServiceInterrupt(t *kernel.Thread) {
	c := k.cpus[t.CoreID()]
	now := k.Eng.Now()
	if now >= c.nextTick {
		for now >= c.nextTick {
			c.nextTick += tickPeriod
		}
		c.Ticks++
		c.core.Interrupts++
		u := k.Chip.UPC
		u.Inc(c.core.ID, upc.TimerTick)
		u.Inc(c.core.ID, upc.Interrupt)
		t.Coro().Sleep(tickISRCost)
		k.obs.Emit(obs.CatSched, "fwk:tick", k.Chip.ID, t.CoreID(), now, k.Eng.Now(), uint64(c.Ticks))

		// Dispatch due daemons: the user thread waits while they run.
		for _, d := range c.daemons {
			if k.Eng.Now() >= d.nextRun && !d.active {
				// The user thread is involuntarily descheduled for the
				// daemon's burst: that is a preemption as FWQ sees it.
				u.Inc(c.core.ID, upc.Preemption)
				d.active = true
				d.resumeMe = t
				d.coro.Wake()
				for d.active {
					t.Coro().Park(sim.Forever)
				}
			}
		}

		// Round-robin among user threads sharing the core (overcommit is
		// allowed on an FWK — Table II).
		if len(c.ready) > 0 && c.cur == t {
			t.Coro().Sleep(ctxSwitchCost)
			c.rotate(t)
		}
	}
	k.rt.DeliverSignals(t)
}

// rotate moves t to the tail of the run queue and grants the core to the
// next ready thread; t blocks until granted again.
func (c *cpu) rotate(t *kernel.Thread) {
	u := c.core.Chip.UPC
	u.Inc(c.core.ID, upc.ContextSwitch)
	u.Inc(c.core.ID, upc.Preemption)
	next := c.ready[0]
	c.ready = c.ready[1:]
	c.ready = append(c.ready, t)
	c.cur = next
	next.Coro().Wake()
	for c.cur != t {
		t.Coro().Park(sim.Forever)
	}
}

// acquire blocks t until it owns the core.
func (c *cpu) acquire(t *kernel.Thread) {
	if c.cur == t {
		t.State = kernel.ThreadRunning
		return
	}
	if c.cur == nil && len(c.ready) == 0 {
		c.cur = t
		t.State = kernel.ThreadRunning
		return
	}
	c.ready = append(c.ready, t)
	if c.cur == nil && c.ready[0] == t {
		c.ready = c.ready[1:]
		c.cur = t
		t.State = kernel.ThreadRunning
		return
	}
	c.grant()
	for c.cur != t {
		t.Coro().Park(sim.Forever)
	}
	t.State = kernel.ThreadRunning
}

func (c *cpu) grant() {
	if c.cur != nil || len(c.ready) == 0 {
		return
	}
	c.cur = c.ready[0]
	c.ready = c.ready[1:]
	c.core.Chip.UPC.Inc(c.core.ID, upc.ContextSwitch)
	c.cur.Coro().Wake()
}

func (c *cpu) release(t *kernel.Thread) {
	if c.cur != t {
		panic("fwk: release by non-owner")
	}
	c.cur = nil
	c.grant()
}

func (c *cpu) remove(t *kernel.Thread) {
	for i, x := range c.ready {
		if x == t {
			c.ready = append(c.ready[:i], c.ready[i+1:]...)
			return
		}
	}
}

// pickCPU places a new thread on the least-loaded core (an FWK balances
// rather than pinning; affinity is possible but "medium" effort —
// Table II).
func (k *Kernel) pickCPU() *cpu {
	best := k.cpus[0]
	bestLoad := best.load()
	for _, c := range k.cpus[1:] {
		if l := c.load(); l < bestLoad {
			best, bestLoad = c, l
		}
	}
	return best
}

func (c *cpu) load() int {
	n := len(c.ready)
	if c.cur != nil {
		n++
	}
	return n
}

// Block implements kernel.OS: a thread waiting on a futex gives its core
// to the next ready thread.
func (k *Kernel) Block(t *kernel.Thread) { k.cpus[t.CoreID()].release(t) }

// Resume implements kernel.OS: the woken thread waits for its core, then
// takes the signals that arrived while it was blocked.
func (k *Kernel) Resume(t *kernel.Thread) {
	k.cpus[t.CoreID()].acquire(t)
	k.rt.DeliverSignals(t)
}

// Leave implements kernel.OS: the exiting thread leaves its core's run
// queue, and the process is done when its last thread leaves.
func (k *Kernel) Leave(t *kernel.Thread, code int) {
	c := k.cpus[t.CoreID()]
	if c.cur == t {
		c.release(t)
	}
	c.remove(t)
	if p := k.procs[t.PID()]; p != nil {
		p.liveThreads--
		if p.liveThreads == 0 {
			p.done = true
			p.exitCode = code
			k.Eng.Trace().Record(k.Eng.Now(), k.tag(), fmt.Sprintf("pid %d exited %d", p.PID, code))
		}
	}
}
