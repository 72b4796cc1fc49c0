package sim

import "iter"

// WakeReason tells a parked coroutine why it resumed.
type WakeReason int

const (
	// WakeTimeout means the park's deadline expired.
	WakeTimeout WakeReason = iota
	// WakeSignal means another simulation actor woke the coroutine
	// explicitly (interrupt, futex wake, message arrival, ...).
	WakeSignal
)

func (r WakeReason) String() string {
	if r == WakeTimeout {
		return "timeout"
	}
	return "signal"
}

// coroKilled is the sentinel panic value used to unwind a coroutine during
// Engine.Shutdown.
type coroKilled struct{}

// Coro is a cooperative simulated thread of execution, built on the Go
// runtime's direct coroutine switch (iter.Pull). Resuming a coroutine
// switches straight to it and parking switches straight back to the
// engine, without going through the goroutine scheduler, so exactly one
// simulation actor (event callback or coroutine) executes at a time. Every
// resume flows through the event queue, except a timed park's when it
// would be the queue's next event: that coroutine keeps running at the
// resume cycle (see Park).
//
// A panic inside a coroutine, other than the unwind Shutdown uses, ends
// the coroutine and is re-raised with its original value from the
// Engine.Step (or Run, RunUntilIdle) call that resumed it, on the
// caller's goroutine. The engine is then in the state of any panicking
// event callback and must not be driven further.
//
// Coro methods must only be called from simulation context.
type Coro struct {
	eng  *Engine
	name string

	// The iter.Pull handles: next resumes the coroutine, yield (called
	// on the coroutine) parks it, stop unwinds it. A finished or killed
	// coroutine drops all three, so a *Coro kept by its owner does not
	// keep the function's captures reachable.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	reason  WakeReason // why the resume in flight woke the coroutine
	parked  bool       // currently parked awaiting resume
	wakeGen uint64     // invalidates in-flight resumes after a newer park or wake
	pending bool       // a signal arrived while the coroutine was running
	done    bool
	dead    bool
}

// Go starts fn as a new coroutine named name. The coroutine begins running
// at the current cycle, after already-queued events at this cycle.
func (e *Engine) Go(name string, fn func(c *Coro)) *Coro {
	c := &Coro{eng: e, name: name, parked: true}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		defer func() {
			c.finish()
			if r := recover(); r != nil {
				if _, ok := r.(coroKilled); !ok {
					panic(r)
				}
			}
		}()
		fn(c)
	})
	e.track(c)
	e.After(0, func() { c.dispatch(WakeSignal) })
	return c
}

// Name returns the coroutine's debug name.
func (c *Coro) Name() string { return c.name }

// Done reports whether the coroutine's function has returned.
func (c *Coro) Done() bool { return c.done }

// Now returns the current simulation time.
func (c *Coro) Now() Cycles { return c.eng.Now() }

// dispatch switches to the coroutine and returns once it parks or
// finishes. Must run on the engine's goroutine (inside an event).
func (c *Coro) dispatch(reason WakeReason) {
	if c.done || c.dead {
		return
	}
	c.parked = false
	c.reason = reason
	c.next()
}

// resume is the event-carried wake: it dispatches the coroutine with
// reason unless a newer park or wake has superseded generation gen.
func (c *Coro) resume(gen uint64, reason WakeReason) {
	if c.wakeGen != gen || !c.parked {
		return // stale: the coroutine was woken or re-parked since
	}
	c.dispatch(reason)
}

// park switches back to the engine and returns the reason of the resume
// that switches back in. A kill makes yield report false; the coroutine
// then unwinds with coroKilled.
func (c *Coro) park() WakeReason {
	c.parked = true
	if !c.yield(struct{}{}) {
		panic(coroKilled{})
	}
	return c.reason
}

// finish marks the coroutine done and drops its iter.Pull handles.
func (c *Coro) finish() {
	c.done = true
	c.next, c.stop, c.yield = nil, nil, nil
}

// Sleep advances this coroutine's time by d cycles. Other simulation
// activity proceeds during the sleep. Signals (Wake) arriving during the
// sleep are absorbed: every blocking construct in the simulator rechecks
// its state after waking, so a swallowed signal cannot lose information —
// it only means the state it advertised is already visible.
func (c *Coro) Sleep(d Cycles) {
	deadline := c.eng.Now() + d
	for {
		now := c.eng.Now()
		if now >= deadline {
			return
		}
		c.pending = false // absorb any signal posted while running
		if c.Park(deadline-now) == WakeTimeout {
			return
		}
	}
}

// Park blocks the coroutine until either an explicit Wake (WakeSignal) or
// the timeout elapses (WakeTimeout). A timeout of Forever (or greater)
// means no deadline. If a signal was posted with Wake while the coroutine
// was still running, Park consumes it and returns immediately. A timed
// park whose resume would be the engine's next event returns WakeTimeout
// at the resume cycle without leaving the coroutine.
func (c *Coro) Park(timeout Cycles) WakeReason {
	if c.pending {
		c.pending = false
		return WakeSignal
	}
	c.wakeGen++
	if timeout < Forever {
		t := c.eng.now + timeout
		if c.eng.resumeInPlace(t) {
			return WakeTimeout
		}
		c.eng.resumeAt(t, c, WakeTimeout)
	}
	return c.park()
}

// Wake delivers a signal to the coroutine. If it is parked it resumes (via
// the event queue, preserving deterministic ordering) with WakeSignal; if
// it is currently running, the signal is remembered and consumed by its
// next Park. Waking a finished coroutine is a no-op. Multiple wakes before
// the coroutine parks collapse into one.
func (c *Coro) Wake() {
	if c.done || c.dead {
		return
	}
	if !c.parked {
		c.pending = true
		return
	}
	c.wakeGen++ // invalidate any in-flight timeout
	c.eng.resumeAt(c.eng.Now(), c, WakeSignal)
}

// Kill unwinds the coroutine through its deferred calls if it is still
// parked, as Shutdown does for every coroutine, and does nothing to a
// finished or killed one. A layer that abandons a parked coroutine kills
// it, so its goroutine and stack do not live until Shutdown. Like
// Shutdown, Kill is only legal on an idle engine, from host code; called
// from inside an event or coroutine it panics.
func (c *Coro) Kill() {
	if c.eng.stepping {
		panic("sim: Coro.Kill called from inside an event or coroutine; Kill is only legal on an idle engine from host code")
	}
	c.kill()
}

// kill unwinds the coroutine if it is still parked. Called only from
// Kill and Engine.Shutdown (outside simulation context, with the engine
// idle).
func (c *Coro) kill() {
	if c.done || c.dead {
		return
	}
	c.dead = true
	if !c.parked {
		// A non-parked, non-done coroutine outside simulation context
		// cannot exist; nothing to do but mark it dead.
		return
	}
	// Parked in yield, stop makes yield return false and waits for the
	// unwind. Before the first dispatch, stop never starts fn at all, so
	// the coroutine is marked done here rather than by its own unwind.
	c.stop()
	c.finish()
}
