package fwk

import (
	"fmt"

	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/obs"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// cpu is one core's preemptive scheduler state: the shared owner/ready
// handoff plus the timer tick and the daemons that preempt its owner.
type cpu struct {
	kernel.CPU
	k *Kernel

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
		if cost, _ := d.cpu.Core.Chip.Cache.Access(d.cpu.Core.ID, d.wsBase, d.spec.WorkingSet, false, c.Now()); cost > 0 {
			c.Sleep(cost)
		}
		c.Sleep(burst)
		d.cpu.DaemonRuns++
		d.cpu.Core.Chip.UPC.Inc(d.cpu.Core.ID, upc.DaemonRun)
		d.cpu.k.rt.Obs.Emit(obs.CatSched, d.spec.Name, d.cpu.k.Chip.ID, d.spec.Core, runStart, c.Now(), d.cpu.DaemonRuns)
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
		c.Core.Interrupts++
		u := k.Chip.UPC
		u.Inc(c.Core.ID, upc.TimerTick)
		u.Inc(c.Core.ID, upc.Interrupt)
		t.Coro().Sleep(tickISRCost)
		k.rt.Obs.Emit(obs.CatSched, "fwk:tick", k.Chip.ID, t.CoreID(), now, k.Eng.Now(), uint64(c.Ticks))

		// Dispatch due daemons: the user thread waits while they run.
		for _, d := range c.daemons {
			if k.Eng.Now() >= d.nextRun && !d.active {
				// The user thread is involuntarily descheduled for the
				// daemon's burst: that is a preemption as FWQ sees it.
				u.Inc(c.Core.ID, upc.Preemption)
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
		c.rotate(t)
	}
	k.rt.DeliverSignals(t)
}

// rotate round-robins the core when another thread is ready for it and t
// owns it: t pays a context switch, is preempted, and queues behind the
// ready threads until the core comes back.
func (c *cpu) rotate(t *kernel.Thread) {
	if c.Waiting() == 0 || c.Owner() != t {
		return
	}
	t.Coro().Sleep(ctxSwitchCost)
	c.Core.Chip.UPC.Inc(c.Core.ID, upc.Preemption)
	c.Yield(t)
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

// load is the number of threads running on or ready for the core.
func (c *cpu) load() int {
	n := c.Waiting()
	if c.Owner() != nil {
		n++
	}
	return n
}

// Resume implements kernel.OS: the woken thread waits for its core, then
// takes the signals that arrived while it was blocked.
func (k *Kernel) Resume(t *kernel.Thread) {
	k.cpus[t.CoreID()].Acquire(t)
	k.rt.DeliverSignals(t)
}

// Leave implements kernel.OS: the process is done when its last thread
// leaves.
func (k *Kernel) Leave(t *kernel.Thread, code int) {
	if p := k.procs[t.PID()]; p != nil && p.ThreadExited(code) {
		k.Eng.Trace().Record(k.Eng.Now(), k.tag(), fmt.Sprintf("pid %d exited %d", p.PID, code))
	}
}
