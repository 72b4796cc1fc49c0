// Package collective models the Blue Gene/P collective (tree) network that
// connects compute nodes to their I/O node. CNK function-ships filesystem
// system calls over this network to CIOD (paper Fig 2). The model carries
// real bytes in 256-byte packets over per-endpoint serialized links, so
// protocol cost, aggregation, and bandwidth contention are observable.
package collective

import (
	"errors"
	"fmt"
	"sort"

	"bgcnk/internal/obs"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// ErrDeadParticipant is returned by Combine.AllreduceErr when a
// participant's node has died: the tree can never finish summing with a
// contribution permanently missing, so the caller must fail the job
// instead of parking forever.
var ErrDeadParticipant = errors.New("collective: participant dead, combine can never complete")

// PacketBytes is the collective network packet payload size.
const PacketBytes = 256

// RetransBackoff is the base sender backoff after a CRC-corrupted
// transfer; it doubles per consecutive corruption of the same transfer.
const RetransBackoff = sim.Cycles(200)

// muxHeader is the multiplexing header every CN→ION message carries on a
// shared uplink: magic(1) + cn(4) + pid(4) + tag(4) + paylen(4), what one
// daemon needs to demultiplex many compute nodes' interleaved traffic.
// The Message envelope and the request already carry all of it, so the
// tree charges the header's bytes without building it.
const muxHeader = 1 + 4 + 4 + 4 + 4

// Config sets the link cost model. Defaults approximate BG/P's tree:
// ~0.85 GB/s per link and a few microseconds of tree latency.
type Config struct {
	Latency       sim.Cycles // one-way tree traversal latency
	CyclesPerByte float64    // serialization cost
	PerPacket     sim.Cycles // per-packet header/processing cost
}

// DefaultConfig returns the BG/P-like cost model.
func DefaultConfig() Config {
	return Config{
		Latency:       sim.FromMicros(1.3),
		CyclesPerByte: 1.0, // 850 MB/s at 850 MHz
		PerPacket:     40,
	}
}

// Message is one function-ship message (request or reply).
type Message struct {
	From int    // sender endpoint ID
	Tag  uint32 // request/reply matching tag
	Data []byte
}

// Tree is one collective-network class route: a set of compute-node
// endpoints all connected to one I/O-node endpoint.
type Tree struct {
	eng *sim.Engine
	cfg Config
	ion *Endpoint
	cns map[int]*Endpoint

	// shareUp serializes every CN→ION transfer on one shared uplink (the
	// physical tree's root edge into the I/O node) in addition to each
	// sender's own NIC, and charges each one the mux header. Armed by the
	// ION aggregation subsystem; off, each CN has a private uplink.
	shareUp bool
	upBusy  sim.Cycles

	// obs, when non-nil, receives one msg span per tree send
	// (serialization start to delivery); emitting charges no cycles.
	obs *obs.Recorder
}

// AttachObs wires the machine-wide span recorder to every endpoint of
// this tree (nil is a no-op recorder).
func (t *Tree) AttachObs(r *obs.Recorder) { t.obs = r }

// Endpoint is one node's tree interface: an inbox plus a serialized
// outgoing link.
type Endpoint struct {
	tree      *Tree
	id        int
	ion       bool
	inbox     []Message
	waiters   []waiter
	busyUntil sim.Cycles // outgoing link serialization

	// upc is the owning node's counter unit; nil (count nothing) until
	// AttachUPC (the tree is built before the chips are wired to it).
	upc *upc.Set

	// faults draws seeded link-CRC corruption for outgoing transfers;
	// nil on a perfect machine.
	faults *ras.NodeFaults

	Sent, Received uint64
	BytesSent      uint64
}

type waiter struct {
	coro   *sim.Coro
	tag    uint32
	anyTag bool
}

// NewTree builds a tree with one ION endpoint (id -1) and the given
// compute-node endpoint IDs.
func NewTree(eng *sim.Engine, cfg Config, cnIDs []int) *Tree {
	t := &Tree{eng: eng, cfg: cfg, cns: make(map[int]*Endpoint)}
	t.ion = &Endpoint{tree: t, id: -1, ion: true}
	for _, id := range cnIDs {
		t.cns[id] = &Endpoint{tree: t, id: id}
	}
	return t
}

// ION returns the I/O-node endpoint.
func (t *Tree) ION() *Endpoint { return t.ion }

// ShareUplink arms shared-uplink serialization: all CN→ION traffic on
// this tree contends for the single link into the I/O node, on top of
// each sender's own NIC serialization, and each message pays for the
// mux header that lets one daemon tell its senders apart. This is what
// makes fan-in bandwidth saturate as the CN:ION ratio grows.
func (t *Tree) ShareUplink() { t.shareUp = true }

// UplinkTransfer blocks c while n bytes cross the shared uplink and
// returns the cycles spent waiting for the link to come free. The FWK's
// network-filesystem client uses this for data operations: unlike CNK's
// function shipping there is no asynchronous send FIFO — the caller
// sits in the kernel for the whole synchronous RPC.
func (t *Tree) UplinkTransfer(c *sim.Coro, n int) sim.Cycles {
	ser := t.ion.sendCost(n)
	now := t.eng.Now()
	start := now
	if t.upBusy > start {
		start = t.upBusy
	}
	t.upBusy = start + ser
	stall := start - now
	c.Sleep(stall + ser + t.cfg.Latency)
	return stall
}

// CN returns the compute-node endpoint with the given ID.
func (t *Tree) CN(id int) *Endpoint {
	ep, ok := t.cns[id]
	if !ok {
		panic(fmt.Sprintf("collective: no CN endpoint %d", id))
	}
	return ep
}

// ID returns the endpoint's node ID (-1 for the ION).
func (e *Endpoint) ID() int { return e.id }

// AttachUPC routes this endpoint's traffic counters to a chip's UPC unit.
func (e *Endpoint) AttachUPC(u *upc.Set) { e.upc = u }

// AttachFaults wires the owning node's seeded fault source into this
// endpoint's outgoing link.
func (e *Endpoint) AttachFaults(f *ras.NodeFaults) { e.faults = f }

// Drain discards every undelivered inbox message: replies that arrived
// after their caller gave up (or died) age in the inbox, and a partition
// reboot must not let job N's stragglers leak into job N+1.
func (e *Endpoint) Drain() { e.inbox = nil }

// packets is how many collective packets carry n bytes (at least one).
func packets(n int) int { return max(1, (n+PacketBytes-1)/PacketBytes) }

// sendCost computes serialization cycles for n bytes.
func (e *Endpoint) sendCost(n int) sim.Cycles {
	return sim.Cycles(float64(n)*e.tree.cfg.CyclesPerByte) + sim.Cycles(packets(n))*e.tree.cfg.PerPacket
}

// Send transmits msg to the tree peer (CN→ION or ION→CN addressed by
// msg destination to). The sender's coroutine is NOT blocked: the cost is
// paid on the link (DMA-like). On a shared uplink a CN→ION message is
// charged, counted and traced with the mux header's bytes added.
func (e *Endpoint) Send(to int, tag uint32, data []byte) {
	var dst *Endpoint
	if e.ion {
		dst = e.tree.CN(to)
	} else {
		dst = e.tree.ion
	}
	shared := !e.ion && e.tree.shareUp
	n := len(data)
	if shared {
		n += muxHeader
	}
	ser := e.sendCost(n)
	// Link-level CRC: the receiver NAKs a corrupted transfer and the
	// sender re-serializes it after an exponentially growing backoff. The
	// whole protocol is charged on the link, keeping Send non-blocking
	// (DMA-like), and counted so experiments can read the cost back out.
	if n := e.faults.LinkRetransmits("collective"); n > 0 {
		clean := ser
		for a := 0; a < n; a++ {
			ser += clean + (RetransBackoff << a)
		}
		e.upc.Add(upc.ChipScope, upc.LinkCRC, uint64(n))
		e.upc.Add(upc.ChipScope, upc.LinkRetransmit, uint64(n))
	}
	start := e.tree.eng.Now()
	if e.busyUntil > start {
		start = e.busyUntil
	}
	if shared && e.tree.upBusy > start {
		start = e.tree.upBusy
	}
	e.busyUntil = start + ser
	if shared {
		e.tree.upBusy = e.busyUntil
	}
	arrive := e.busyUntil + e.tree.cfg.Latency
	msg := Message{From: e.id, Tag: tag, Data: append([]byte(nil), data...)}
	e.Sent++
	e.BytesSent += uint64(n)
	e.upc.Add(upc.ChipScope, upc.CollPacket, uint64(packets(n)))
	e.upc.Add(upc.ChipScope, upc.CollBytes, uint64(n))
	e.tree.obs.Emit(obs.CatMsg, "coll:send", e.id, 0, e.tree.eng.Now(), arrive, uint64(n))
	e.tree.eng.At(arrive, func() { dst.deliver(msg) })
}

func (e *Endpoint) deliver(m Message) {
	e.inbox = append(e.inbox, m)
	e.Received++
	// Wake every waiter that could match; they re-check on resume.
	for _, w := range e.waiters {
		if w.anyTag || w.tag == m.Tag {
			w.coro.Wake()
		}
	}
}

// take removes and returns the first inbox message matching (tag, anyTag).
func (e *Endpoint) take(tag uint32, anyTag bool) (Message, bool) {
	for i, m := range e.inbox {
		if anyTag || m.Tag == tag {
			e.inbox = append(e.inbox[:i], e.inbox[i+1:]...)
			return m, true
		}
	}
	return Message{}, false
}

// Recv blocks the calling coroutine until any message arrives and returns
// it.
func (e *Endpoint) Recv(c *sim.Coro) Message {
	for {
		if m, ok := e.take(0, true); ok {
			return m
		}
		e.waiters = append(e.waiters, waiter{coro: c, anyTag: true})
		c.Park(sim.Forever)
		e.removeWaiter(c)
	}
}

// RecvTag blocks until a message with the given tag arrives. Multiple
// coroutines may wait on the same endpoint with different tags (one I/O
// proxy thread per application thread — paper Section IV-A).
func (e *Endpoint) RecvTag(c *sim.Coro, tag uint32) Message {
	for {
		if m, ok := e.take(tag, false); ok {
			return m
		}
		e.waiters = append(e.waiters, waiter{coro: c, tag: tag})
		c.Park(sim.Forever)
		e.removeWaiter(c)
	}
}

// RecvTagTimeout is RecvTag with a deadline: it returns ok=false if no
// message with the tag arrives within timeout cycles. A timeout of
// sim.Forever behaves exactly like RecvTag (and schedules no timer event,
// so fault-free runs are unchanged to the cycle).
func (e *Endpoint) RecvTagTimeout(c *sim.Coro, tag uint32, timeout sim.Cycles) (Message, bool) {
	if timeout >= sim.Forever {
		return e.RecvTag(c, tag), true
	}
	deadline := e.tree.eng.Now() + timeout
	for {
		if m, ok := e.take(tag, false); ok {
			return m, true
		}
		now := e.tree.eng.Now()
		if now >= deadline {
			return Message{}, false
		}
		e.waiters = append(e.waiters, waiter{coro: c, tag: tag})
		r := c.Park(deadline - now)
		e.removeWaiter(c)
		if r == sim.WakeTimeout {
			if m, ok := e.take(tag, false); ok {
				return m, true
			}
			return Message{}, false
		}
	}
}

func (e *Endpoint) removeWaiter(c *sim.Coro) {
	for i, w := range e.waiters {
		if w.coro == c {
			e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
			return
		}
	}
}

// Pending reports queued inbox messages (for tests).
func (e *Endpoint) Pending() int { return len(e.inbox) }

// Combine is the collective network's arithmetic-combine (ALU) class
// route: all n participants contribute a double, the tree sums on the way
// up and broadcasts on the way down with a fixed hardware latency. This is
// what MPI_Allreduce maps onto on Blue Gene, and why its per-iteration
// time is constant to the cycle under CNK (paper V-D).
type Combine struct {
	eng     *sim.Engine
	n       int
	latency sim.Cycles

	entered map[int]*sim.Coro
	sum     float64
	results map[int]float64
	dead    map[int]bool
	failed  map[int]bool

	// upcs routes per-participant combine counts to each node's UPC unit.
	upcs map[int]*upc.Set
}

// AttachUPC routes participant id's combine-operation counter to a chip's
// UPC unit.
func (cb *Combine) AttachUPC(id int, u *upc.Set) {
	if cb.upcs == nil {
		cb.upcs = make(map[int]*upc.Set)
	}
	cb.upcs[id] = u
}

// NewCombine builds an n-participant combining route. latency 0 selects a
// BG/P-like ~2.5us tree traversal.
func NewCombine(eng *sim.Engine, n int, latency sim.Cycles) *Combine {
	if latency == 0 {
		latency = sim.FromMicros(2.5)
	}
	return &Combine{eng: eng, n: n, latency: latency,
		entered: make(map[int]*sim.Coro), results: make(map[int]float64),
		dead: make(map[int]bool), failed: make(map[int]bool)}
}

// MarkDead declares participant id permanently gone (node failure):
// everyone currently blocked in the combine is released immediately with
// ErrDeadParticipant — woken in participant order for reproducibility —
// and every future AllreduceErr fails fast. Idempotent.
func (cb *Combine) MarkDead(id int) {
	if cb.dead[id] {
		return
	}
	cb.dead[id] = true
	if len(cb.entered) == 0 {
		return
	}
	ids := make([]int, 0, len(cb.entered))
	for wid := range cb.entered {
		ids = append(ids, wid)
	}
	sort.Ints(ids)
	for _, wid := range ids {
		cb.failed[wid] = true
		cb.entered[wid].Wake()
	}
	cb.entered = make(map[int]*sim.Coro)
	cb.sum = 0
}

// Allreduce contributes v for participant id and blocks until the global
// sum returns down the tree. On a dead combine (a participant's node has
// failed) it returns 0 immediately; callers that must distinguish use
// AllreduceErr.
func (cb *Combine) Allreduce(c *sim.Coro, id int, v float64) float64 {
	r, _ := cb.AllreduceErr(c, id, v)
	return r
}

// AllreduceErr is Allreduce with node-failure semantics: it returns
// ErrDeadParticipant — instead of parking forever — when any participant
// is already dead, or dies while this one waits.
func (cb *Combine) AllreduceErr(c *sim.Coro, id int, v float64) (float64, error) {
	if _, dup := cb.entered[id]; dup {
		panic(fmt.Sprintf("collective: participant %d re-entered combine", id))
	}
	if len(cb.dead) > 0 {
		return 0, ErrDeadParticipant
	}
	cb.entered[id] = c
	cb.sum += v
	cb.upcs[id].Inc(upc.ChipScope, upc.CombineOp)
	if len(cb.entered) == cb.n {
		sum := cb.sum
		waiters := cb.entered
		cb.entered = make(map[int]*sim.Coro)
		cb.sum = 0
		for wid := range waiters {
			cb.results[wid] = sum
		}
		me := c
		cb.eng.At(cb.eng.Now()+cb.latency, func() {
			// Wake in participant order: map iteration order would permute
			// same-cycle wakeups and break cycle reproducibility.
			ids := make([]int, 0, len(waiters))
			for wid := range waiters {
				ids = append(ids, wid)
			}
			sort.Ints(ids)
			for _, wid := range ids {
				if w := waiters[wid]; w != me {
					w.Wake()
				}
			}
		})
		c.Sleep(cb.latency)
		r := cb.results[id]
		delete(cb.results, id)
		return r, nil
	}
	c.Park(sim.Forever)
	if cb.failed[id] {
		delete(cb.failed, id)
		return 0, ErrDeadParticipant
	}
	r := cb.results[id]
	delete(cb.results, id)
	return r, nil
}
