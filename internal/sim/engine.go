package sim

import (
	"fmt"
	"slices"
)

// event is a single scheduled callback, or, when co is set, a coroutine
// resume: co.resume(gen, reason). Carrying the resume in the pooled
// event keeps Park and Wake free of a closure allocation.
type event struct {
	at  Cycles
	seq uint64 // tie-breaker: FIFO among events at the same cycle
	fn  func()

	co     *Coro
	gen    uint64
	reason WakeReason
}

// EngineConfig selects engine implementation details that must never
// change observable behaviour: every configuration runs the same events
// at the same cycles in the same order (the differential harness in
// differential_test.go holds the implementations to that).
type EngineConfig struct {
	// Scheduler picks the pending-event queue: SchedWheel (default, the
	// timer-wheel fast path) or SchedHeap (the reference binary heap).
	Scheduler SchedulerKind
}

// Engine is a deterministic discrete-event simulator. All state mutation in
// a simulation happens either inside event callbacks or inside coroutines
// resumed by event callbacks; the engine guarantees that exactly one of
// these runs at a time and that their order depends only on (time, schedule
// order), never on the Go runtime scheduler.
type Engine struct {
	now   Cycles
	seq   uint64
	sched scheduler
	coros []*Coro // started coroutines in start order, for shutdown
	trace *Trace

	// free recycles event structs: the simulation's hot path schedules
	// millions of events, and pooling them leaves the per-schedule cost
	// at the callback closure alone.
	free []*event

	// stepping guards against event-queue mutation racing a running
	// coroutine: engine methods may only be called from simulation context,
	// and Shutdown only from outside it.
	stepping bool

	// advance, when set, is called each time Step moves the clock
	// forward, before the event at the new time dispatches, and each time
	// a timed park resumed in place moves it. Observability layers hang
	// periodic samplers here instead of scheduling events of their own: a
	// self-rescheduling sampler event would keep Pending nonzero forever
	// and perturb every run-until-idle loop. The hook must only observe —
	// it may run inside the coroutine that resumes in place, and must not
	// schedule events, sleep, or mutate simulation state.
	advance func(prev, now Cycles)

	// While Run or RunUntilIdle is in progress, running is set and limit
	// is the last cycle it may reach; inPlace counts the timed parks it
	// resumed in place (see resumeInPlace).
	running bool
	limit   Cycles
	inPlace int
}

// NewEngine returns an engine at cycle 0 with an empty event queue, using
// the default (timer wheel) scheduler.
func NewEngine() *Engine { return NewEngineWith(EngineConfig{}) }

// NewEngineWith returns an engine configured by cfg.
func NewEngineWith(cfg EngineConfig) *Engine {
	e := &Engine{trace: NewTrace()}
	if cfg.Scheduler == SchedHeap {
		e.sched = &heapSched{}
	} else {
		e.sched = newWheelSched()
	}
	return e
}

// Now returns the current simulation time.
func (e *Engine) Now() Cycles { return e.now }

// Trace returns the engine's trace recorder.
func (e *Engine) Trace() *Trace { return e.trace }

// At schedules fn to run at absolute cycle t. Scheduling in the past is an
// error in simulation logic and panics.
func (e *Engine) At(t Cycles, fn func()) {
	ev := e.newEvent(t)
	ev.fn = fn
	e.sched.push(ev)
}

// resumeAt schedules a resume of c at cycle t, valid while c's wake
// generation stays at its current value.
func (e *Engine) resumeAt(t Cycles, c *Coro, reason WakeReason) {
	ev := e.newEvent(t)
	ev.co, ev.gen, ev.reason = c, c.wakeGen, reason
	e.sched.push(ev)
}

// newEvent takes an event from the free list (or allocates one) and
// gives it time t and the next sequence number.
func (e *Engine) newEvent(t Cycles) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.at, ev.seq = t, e.seq
	return ev
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Cycles, fn func()) { e.At(e.now+d, fn) }

// SetAdvanceHook installs fn as the clock-advance observer (nil clears
// it); see the field comment for the contract.
func (e *Engine) SetAdvanceHook(fn func(prev, now Cycles)) { e.advance = fn }

// Step runs the next pending event. It reports false when the queue is
// empty.
func (e *Engine) Step() bool {
	ev := e.sched.pop()
	if ev == nil {
		return false
	}
	if ev.at < e.now {
		panic("sim: time went backwards")
	}
	e.advanceTo(ev.at)
	fn, co, gen, reason := ev.fn, ev.co, ev.gen, ev.reason
	ev.fn, ev.co = nil, nil
	e.free = append(e.free, ev)
	e.stepping = true
	if co != nil {
		co.resume(gen, reason)
	} else {
		fn()
	}
	e.stepping = false
	return true
}

// advanceTo moves the clock to t, calling the advance hook when the clock
// moves forward.
func (e *Engine) advanceTo(t Cycles) {
	prev := e.now
	e.now = t
	if e.advance != nil && t > prev {
		e.advance(prev, t)
	}
}

// resumeInPlace reports whether a timed park resuming at t would be the
// next event the Run or RunUntilIdle in progress dispatches: t is within
// its limit and every queued event is later than t. If so, it moves the
// clock to t as Step would and counts the resume as one executed event,
// and the parking coroutine carries on without leaving. Every other event
// still runs at the same cycle in the same order. A bare Step never takes
// this path: it runs exactly one event.
func (e *Engine) resumeInPlace(t Cycles) bool {
	if !e.running || t > e.limit {
		return false
	}
	if next, ok := e.sched.peek(); ok && next <= t {
		return false
	}
	e.advanceTo(t)
	e.inPlace++
	return true
}

// Run executes events until the queue is empty or the next event lies
// beyond the limit. It returns the number of events executed, counting
// each timed park resumed in place as one.
func (e *Engine) Run(limit Cycles) int {
	e.running, e.limit, e.inPlace = true, limit, 0
	n := 0
	for {
		t, ok := e.sched.peek()
		if !ok || t > limit {
			break
		}
		e.Step()
		n++
	}
	e.running = false
	return n + e.inPlace
}

// RunUntilIdle executes events until no events remain. Coroutines parked
// without a pending wake are not counted as work; a deadlocked simulation
// simply stops. It returns the number of events executed, counting each
// timed park resumed in place as one.
func (e *Engine) RunUntilIdle() int {
	e.running, e.limit, e.inPlace = true, ^Cycles(0), 0
	n := 0
	for e.Step() {
		n++
	}
	e.running = false
	return n + e.inPlace
}

// track records a started coroutine for Shutdown. When the slice is full
// it first compacts finished and killed coroutines out, keeping start
// order, and leaves at least as much free room as there are live entries,
// so the scan is amortised over the appends that follow it.
func (e *Engine) track(c *Coro) {
	if len(e.coros) == cap(e.coros) {
		live := slices.DeleteFunc(e.coros, func(c *Coro) bool { return c.done || c.dead })
		e.coros = slices.Grow(live, len(live))
	}
	e.coros = append(e.coros, c)
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.sched.len() }

// Shutdown kills every live coroutine, in start order, unwinding each
// through its deferred calls. The engine must not be used afterwards.
//
// Contract: Shutdown is only legal on an idle engine, from host code —
// never from inside an event callback or coroutine. A coroutine cannot
// unwind itself synchronously, and tearing the queue down mid-step would
// corrupt the dispatch in flight; instead of silently corrupting state,
// calling Shutdown from simulation context panics. Let the run finish (or
// stop driving the engine) and shut down from the outside.
func (e *Engine) Shutdown() {
	if e.stepping {
		panic("sim: Engine.Shutdown called from inside an event or coroutine; Shutdown is only legal on an idle engine from host code")
	}
	for _, c := range e.coros {
		c.kill()
	}
	e.coros = nil
	e.sched.reset()
	e.free = nil
}
