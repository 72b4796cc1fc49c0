// Package collective models the Blue Gene/P collective (tree) network that
// connects compute nodes to their I/O node. CNK function-ships filesystem
// system calls over this network to CIOD (paper Fig 2). The model carries
// real bytes in 256-byte packets over per-endpoint serialized links, so
// protocol cost, aggregation, and bandwidth contention are observable.
// The network's arithmetic-combine route, onto which MPI_Allreduce maps,
// is a rendezvous like the global barrier and is modelled with it
// (barrier.NewCombine).
package collective

import (
	"fmt"

	"bgcnk/internal/obs"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

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
	// Data is the slice the sender passed to Send, not a copy: the
	// receiver shares its backing array and must copy what it keeps.
	// Either side may write into the array only once nothing can read
	// the message again, as the I/O daemon does when it answers a file
	// call in the message that carried it (see Endpoint.Send).
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

	// free recycles delivery records.
	free []*delivery
}

// delivery is one message in flight on the tree, from Send until it
// lands in dst's inbox. Records are recycled through Tree.free and bind
// their arrived method once, so scheduling a delivery allocates nothing.
type delivery struct {
	tree   *Tree
	dst    *Endpoint
	msg    Message
	arrive func() // d.arrived
}

// newDelivery takes a record from the free list, or allocates one, for
// msg on its way to dst.
func (t *Tree) newDelivery(dst *Endpoint, msg Message) *delivery {
	var d *delivery
	if k := len(t.free); k > 0 {
		d = t.free[k-1]
		t.free = t.free[:k-1]
	} else {
		d = &delivery{tree: t}
		d.arrive = d.arrived
	}
	d.dst, d.msg = dst, msg
	return d
}

// arrived lands the message and returns the record to the free list,
// dropping what it references.
func (d *delivery) arrived() {
	dst, msg := d.dst, d.msg
	d.dst, d.msg = nil, Message{}
	d.tree.free = append(d.tree.free, d)
	dst.deliver(msg)
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
//
// Send keeps data itself, not a copy, and delivers it as Message.Data,
// capacity included. Whoever holds the slice may write into it only once
// nothing can read the message again, and no buffer is sent twice. A
// compute node's file call travels in its thread's wire buffer, and the
// daemon renders the reply into that message once it has finished
// reading it, so the reply comes back in the buffer it was sent in,
// which ciod.Recycle gives back to the thread. A client that may resend
// sends each attempt in a copy of its own, so that a resend carries the
// original bytes.
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
	msg := Message{From: e.id, Tag: tag, Data: data}
	e.upc.Add(upc.ChipScope, upc.CollPacket, uint64(packets(n)))
	e.upc.Add(upc.ChipScope, upc.CollBytes, uint64(n))
	e.tree.obs.Emit(obs.CatMsg, "coll:send", e.id, 0, e.tree.eng.Now(), arrive, uint64(n))
	e.tree.eng.At(arrive, e.tree.newDelivery(dst, msg).arrive)
}

func (e *Endpoint) deliver(m Message) {
	e.inbox = append(e.inbox, m)
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
	m, _ := e.recv(c, 0, true, sim.Forever)
	return m
}

// RecvTag blocks until a message with the given tag arrives. Multiple
// coroutines may wait on the same endpoint with different tags (one I/O
// proxy thread per application thread — paper Section IV-A).
func (e *Endpoint) RecvTag(c *sim.Coro, tag uint32) Message {
	m, _ := e.recv(c, tag, false, sim.Forever)
	return m
}

// RecvTagTimeout is RecvTag with a deadline: it returns ok=false if no
// message with the tag arrives within timeout cycles. A timeout of
// sim.Forever behaves exactly like RecvTag (and schedules no timer event,
// so fault-free runs are unchanged to the cycle).
func (e *Endpoint) RecvTagTimeout(c *sim.Coro, tag uint32, timeout sim.Cycles) (Message, bool) {
	return e.recv(c, tag, false, timeout)
}

// recv takes the first inbox message matching (tag, anyTag), parking
// until one arrives, and gives up with ok=false once timeout cycles have
// passed. A timeout of sim.Forever parks with no deadline, so it never
// queues a timer event.
func (e *Endpoint) recv(c *sim.Coro, tag uint32, anyTag bool, timeout sim.Cycles) (Message, bool) {
	timed := timeout < sim.Forever
	deadline := e.tree.eng.Now() + timeout
	for {
		if m, ok := e.take(tag, anyTag); ok {
			return m, true
		}
		wait := sim.Forever
		if timed {
			now := e.tree.eng.Now()
			if now >= deadline {
				return Message{}, false
			}
			wait = deadline - now
		}
		e.waiters = append(e.waiters, waiter{coro: c, tag: tag, anyTag: anyTag})
		c.Park(wait)
		e.removeWaiter(c)
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
