// Package barrier models the Blue Gene/P global barrier/interrupt
// network: a dedicated AND/OR wire spanning the partition with
// ~microsecond latency. MPI_Barrier maps onto it, and the multichip
// reproducible-reboot protocol of paper Section III uses it to coordinate
// reboots so that chips restart on exactly the same relative cycle.
package barrier

import (
	"errors"
	"fmt"

	"bgcnk/internal/sim"
)

// ErrDeadParticipant is returned by EnterErr when a participant's torus
// interface has died: a wired-AND with a permanently-low input can never
// fire, so waiting is hopeless and the caller must fail the job instead
// of parking forever.
var ErrDeadParticipant = errors.New("barrier: participant dead, barrier can never complete")

// Network is one global barrier channel over n participants.
type Network struct {
	eng     *sim.Engine
	latency sim.Cycles

	// entered, dead and failed are indexed by participant: the coroutine
	// blocked in the current barrier (nil if it has not entered), whether
	// its node died, and whether a death released it from its wait.
	entered []*sim.Coro
	waiting int
	dead    []bool
	anyDead bool
	failed  []bool

	// ArbiterState models the hardware arbiter/state-machine content that
	// the multichip reproducible reboot must leave consistent (paper:
	// "special code ensured a consistent state in all arbiters and state
	// machines involved in the barrier network hardware"). Every
	// completed barrier advances it; ResetArbiters restores the
	// power-on value.
	arbiterState uint64

	Barriers uint64 // completed barriers
}

// DefaultLatency is the full-partition barrier latency (~1.3us).
var DefaultLatency = sim.FromMicros(1.3)

// New builds a barrier network over n participants.
func New(eng *sim.Engine, n int, latency sim.Cycles) *Network {
	if n <= 0 {
		panic("barrier: need at least one participant")
	}
	if latency == 0 {
		latency = DefaultLatency
	}
	return &Network{eng: eng, latency: latency, entered: make([]*sim.Coro, n),
		dead: make([]bool, n), failed: make([]bool, n)}
}

// MarkDead declares participant id permanently gone (node failure).
// Everyone currently blocked in the barrier is released immediately with
// ErrDeadParticipant — woken in participant order so same-cycle wakeups
// stay reproducible — and every future EnterErr fails fast. Idempotent.
func (b *Network) MarkDead(id int) {
	if b.dead[id] {
		return
	}
	b.dead[id] = true
	b.anyDead = true
	for wid, w := range b.entered {
		if w != nil {
			b.failed[wid] = true
			w.Wake()
		}
	}
	clear(b.entered)
	b.waiting = 0
}

// Enter blocks participant id until all n participants have entered, then
// releases everyone latency cycles after the last arrival. Entering twice
// concurrently with the same id panics (a wired-AND cannot distinguish).
// If a participant has died the entry returns immediately (legacy void
// entry point; callers that must distinguish use EnterErr).
func (b *Network) Enter(c *sim.Coro, id int) {
	_ = b.EnterErr(c, id)
}

// EnterErr is Enter with node-failure semantics: it returns
// ErrDeadParticipant — instead of parking forever — when any participant
// is already dead, or dies while this one waits.
func (b *Network) EnterErr(c *sim.Coro, id int) error {
	if id < 0 || id >= len(b.entered) {
		panic(fmt.Sprintf("barrier: participant %d of %d", id, len(b.entered)))
	}
	if b.entered[id] != nil {
		panic(fmt.Sprintf("barrier: participant %d entered twice", id))
	}
	if b.anyDead {
		return ErrDeadParticipant
	}
	b.entered[id] = c
	b.waiting++
	if b.waiting == len(b.entered) {
		waiters := b.entered
		b.entered = make([]*sim.Coro, len(waiters))
		b.waiting = 0
		b.arbiterState++
		b.Barriers++
		me := c
		b.eng.At(b.eng.Now()+b.latency, func() {
			// Wake in participant order, so same-cycle resumes do not
			// depend on arrival order.
			for _, w := range waiters {
				if w != me {
					w.Wake()
				}
			}
		})
		// The last arriver also waits out the wire latency.
		c.Sleep(b.latency)
		return nil
	}
	c.Park(sim.Forever)
	if b.failed[id] {
		b.failed[id] = false
		return ErrDeadParticipant
	}
	return nil
}

// ArbiterState exposes the hardware state machines' content.
func (b *Network) ArbiterState() uint64 { return b.arbiterState }

// ResetArbiters restores the arbiters to their power-on state, as the
// multichip reproducible-reboot code does while keeping the network
// "active and configured".
func (b *Network) ResetArbiters() { b.arbiterState = 0 }

// Waiting reports how many participants are currently blocked.
func (b *Network) Waiting() int { return b.waiting }
