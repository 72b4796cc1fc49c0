// Package barrier models Blue Gene/P's two wired rendezvous. The global
// barrier/interrupt network is a dedicated AND/OR wire spanning the
// partition with ~microsecond latency: MPI_Barrier maps onto it, and the
// multichip reproducible-reboot protocol of paper Section III uses it to
// coordinate reboots so that chips restart on exactly the same relative
// cycle. The collective network's arithmetic-combine (ALU) class route
// sums one double from every participant on the way up the tree and
// broadcasts the sum on the way down: MPI_Allreduce maps onto it, which is
// why its per-iteration time is constant to the cycle under CNK (paper
// V-D). Both are one mechanism, a Network: n participants enter, and the
// last arrival releases everyone a fixed wire latency later. New and
// NewCombine differ only in that latency.
package barrier

import (
	"errors"
	"fmt"

	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// ErrDeadParticipant is returned by EnterErr and AllreduceErr when a
// participant's node has died: a wired-AND with a permanently-low input
// can never fire, and the tree can never finish a sum with a contribution
// permanently missing, so waiting is hopeless and the caller must fail
// the job instead of parking forever.
var ErrDeadParticipant = errors.New("barrier: participant dead, rendezvous can never complete")

// Network is one rendezvous over n participants.
type Network struct {
	eng     *sim.Engine
	latency sim.Cycles

	// entered and parts are indexed by participant: the coroutine blocked
	// in the current round (nil if it has not entered), and the rest of
	// its state.
	entered []*sim.Coro
	parts   []participant
	waiting int
	sum     float64
	anyDead bool

	// released holds the completed round's waiters until its release
	// event wakes them and clears it; the next completed round swaps it
	// with entered. No participant can enter a new round before that
	// release, so two slices and one callback, bound at construction,
	// serve every round.
	released []*sim.Coro
	release  func()

	// ArbiterState models the hardware arbiter/state-machine content that
	// the multichip reproducible reboot must leave consistent (paper:
	// "special code ensured a consistent state in all arbiters and state
	// machines involved in the barrier network hardware"). Every
	// completed round advances it; ResetArbiters restores the
	// power-on value.
	arbiterState uint64

	Barriers uint64 // completed rounds
}

// participant is one participant's state beyond its current entry.
type participant struct {
	result float64  // the sum it resumes with
	dead   bool     // its node died
	failed bool     // a death released it from its wait
	upc    *upc.Set // its chip's UPC unit; nil counts nothing
}

const (
	// barrierLatency is the full-partition barrier latency, 1.3 us.
	barrierLatency = sim.Cycles(1.3 * sim.CyclesPerMicro)
	// combineLatency is the combining-tree traversal, 2.5 us.
	combineLatency = sim.Cycles(2.5 * sim.CyclesPerMicro)
)

// New builds a global barrier network over n participants.
func New(eng *sim.Engine, n int) *Network { return newNetwork(eng, n, barrierLatency) }

// NewCombine builds the collective network's combine route over n
// participants.
func NewCombine(eng *sim.Engine, n int) *Network { return newNetwork(eng, n, combineLatency) }

func newNetwork(eng *sim.Engine, n int, latency sim.Cycles) *Network {
	if n <= 0 {
		panic("barrier: need at least one participant")
	}
	b := &Network{eng: eng, latency: latency, entered: make([]*sim.Coro, n),
		released: make([]*sim.Coro, n), parts: make([]participant, n)}
	b.release = b.wakeReleased
	return b
}

// wakeReleased is a completed round's release: it wakes the round's
// waiters in participant order, so same-cycle resumes do not depend on
// arrival order, and clears the slice for the round after next.
func (b *Network) wakeReleased() {
	for _, w := range b.released {
		if w != nil {
			w.Wake()
		}
	}
	clear(b.released)
}

// AttachUPC routes participant id's combine-operation counter to a chip's
// UPC unit.
func (b *Network) AttachUPC(id int, u *upc.Set) { b.parts[id].upc = u }

// MarkDead declares participant id permanently gone (node failure).
// Everyone currently blocked in the round is released immediately with
// ErrDeadParticipant — woken in participant order so same-cycle wakeups
// stay reproducible — and every future entry fails fast. Idempotent.
func (b *Network) MarkDead(id int) {
	if b.parts[id].dead {
		return
	}
	b.parts[id].dead = true
	b.anyDead = true
	for wid, w := range b.entered {
		if w != nil {
			b.parts[wid].failed = true
			w.Wake()
		}
	}
	clear(b.entered)
	b.waiting = 0
	b.sum = 0
}

// Enter is EnterErr for callers that need no error: after a death it
// returns at once.
func (b *Network) Enter(c *sim.Coro, id int) { _, _ = b.AllreduceErr(c, id, 0) }

// EnterErr is AllreduceErr contributing nothing.
func (b *Network) EnterErr(c *sim.Coro, id int) error {
	_, err := b.AllreduceErr(c, id, 0)
	return err
}

// AllreduceErr contributes v for participant id and blocks until all n
// participants have entered, then releases everyone latency cycles after
// the last arrival with the round's sum. Entering twice concurrently with
// the same id panics (a wired-AND cannot distinguish). It returns
// ErrDeadParticipant — instead of parking forever — when any participant
// is already dead, or dies while this one waits.
func (b *Network) AllreduceErr(c *sim.Coro, id int, v float64) (float64, error) {
	if id < 0 || id >= len(b.entered) {
		panic(fmt.Sprintf("barrier: participant %d of %d", id, len(b.entered)))
	}
	if b.entered[id] != nil {
		panic(fmt.Sprintf("barrier: participant %d entered twice", id))
	}
	if b.anyDead {
		return 0, ErrDeadParticipant
	}
	b.entered[id] = c
	b.waiting++
	b.sum += v
	b.parts[id].upc.Inc(upc.ChipScope, upc.CombineOp)
	if b.waiting == len(b.entered) {
		b.entered[id] = nil // the release wakes the others; this one sleeps below
		b.entered, b.released = b.released, b.entered
		b.waiting = 0
		for i := range b.parts {
			b.parts[i].result = b.sum
		}
		b.sum = 0
		b.arbiterState++
		b.Barriers++
		b.eng.At(b.eng.Now()+b.latency, b.release)
		// The last arriver also waits out the wire latency.
		c.Sleep(b.latency)
		return b.parts[id].result, nil
	}
	c.Park(sim.Forever)
	if b.parts[id].failed {
		b.parts[id].failed = false
		return 0, ErrDeadParticipant
	}
	return b.parts[id].result, nil
}

// ArbiterState exposes the hardware state machines' content.
func (b *Network) ArbiterState() uint64 { return b.arbiterState }

// ResetArbiters restores the arbiters to their power-on state, as the
// multichip reproducible-reboot code does while keeping the network
// "active and configured".
func (b *Network) ResetArbiters() { b.arbiterState = 0 }

// Waiting reports how many participants are currently blocked.
func (b *Network) Waiting() int { return b.waiting }
