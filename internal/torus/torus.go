// Package torus models the Blue Gene/P 3-D torus network and its DMA
// engine. Two properties of the real machine matter to the paper and are
// preserved here:
//
//  1. Applications drive the DMA directly from user space under CNK, with
//     no per-message system call (Table I's sub-microsecond latencies).
//     The cost model therefore separates software overhead (charged by the
//     messaging library) from network cost (charged here).
//
//  2. A DMA descriptor covers one physically contiguous range. CNK's
//     static map turns any user buffer into a single descriptor; an FWK's
//     scattered 4KB pages need a descriptor per page, with per-descriptor
//     injection overhead — the mechanism behind Fig 8's bandwidth gap.
package torus

import (
	"fmt"

	"bgcnk/internal/hw"
	"bgcnk/internal/obs"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// Coord is a 3-D torus coordinate.
type Coord [3]int

// Config is the torus cost model. Defaults approximate BG/P: 425 MB/s per
// link direction (2 cycles/byte at 850 MHz), ~100 ns per hop, and a
// per-descriptor DMA injection overhead.
type Config struct {
	Dims          Coord
	HopLatency    sim.Cycles
	CyclesPerByte float64
	PerPacket     sim.Cycles // 256B torus packet processing
	PerDescriptor sim.Cycles // DMA injection cost per descriptor
	RecvOverhead  sim.Cycles // reception-side DMA/counter cost
}

// PacketBytes is the torus packet payload size.
const PacketBytes = 256

// DefaultConfig returns a BG/P-like model for a dims-sized torus.
func DefaultConfig(dims Coord) Config {
	return Config{
		Dims:          dims,
		HopLatency:    85, // ~100ns
		CyclesPerByte: 2.0,
		PerPacket:     10,
		PerDescriptor: 170, // ~200ns injection FIFO work
		RecvOverhead:  100,
	}
}

// Network is the torus fabric: interfaces per node and directed-link
// serialization state, indexed by node number (see nodeOf).
type Network struct {
	eng *sim.Engine
	cfg Config
	// ifcs holds each node's interface, nil until attached.
	ifcs []*Interface
	// busy is the cycle until which each directed link is busy.
	busy []sim.Cycles
	// routes[s][d] caches the route from node s to node d. A source's row
	// is allocated by its first send; see route.
	routes [][][]link
	// free recycles transfer records.
	free []*transfer
	// Hard-fault layer; nil until ArmFaults.
	faults *faultState
	// obs, when non-nil, receives one msg span per delivered packet
	// (send to delivery); emitting charges no cycles.
	obs *obs.Recorder
}

// AttachObs wires the machine-wide span recorder (nil is a no-op
// recorder).
func (n *Network) AttachObs(r *obs.Recorder) { n.obs = r }

// nodeOf numbers c row-major over dims, x outermost: the order EnumCoords
// lists coordinates in and coordLess sorts them. It returns -1 for a
// coordinate outside dims; a dimension of size 0 or 1 holds only 0.
func nodeOf(c, dims Coord) int {
	node := 0
	for d := 0; d < 3; d++ {
		size := max1(dims[d])
		if c[d] < 0 || c[d] >= size {
			return -1
		}
		node = node*size + c[d]
	}
	return node
}

// nodeCount is the number of nodes in a dims-shaped torus.
func nodeCount(dims Coord) int { return max1(dims[0]) * max1(dims[1]) * max1(dims[2]) }

// coordOf is the inverse of nodeOf.
func coordOf(node int, dims Coord) Coord {
	var c Coord
	for d := 2; d >= 0; d-- {
		size := max1(dims[d])
		c[d] = node % size
		node /= size
	}
	return c
}

// link numbers a directed link by the node it leaves: linkDirs per node,
// the positive then the negative direction of each dimension in turn.
type link int32

// linkDirs is the number of directed links leaving each node.
const linkDirs = 6

func linkOf(node, dim int, pos bool) link {
	k := link(node*linkDirs + 2*dim)
	if !pos {
		k++
	}
	return k
}

func (k link) node() int { return int(k) / linkDirs }
func (k link) dim() int  { return int(k) % linkDirs / 2 }
func (k link) pos() bool { return k%2 == 0 }

// New builds a torus of the configured dimensions.
func New(eng *sim.Engine, cfg Config) *Network {
	nodes := nodeCount(cfg.Dims)
	return &Network{eng: eng, cfg: cfg, ifcs: make([]*Interface, nodes),
		busy: make([]sim.Cycles, nodes*linkDirs), routes: make([][][]link, nodes)}
}

// node returns c's node number; a coordinate outside Dims is a wiring
// bug and panics.
func (n *Network) node(c Coord) int {
	node := nodeOf(c, n.cfg.Dims)
	if node < 0 {
		panic(fmt.Sprintf("torus: coordinate %v outside dims %v", c, n.cfg.Dims))
	}
	return node
}

// Attach creates the interface for a chip at coord, which must lie
// within Dims.
func (n *Network) Attach(chip *hw.Chip, coord Coord) *Interface {
	node := n.node(coord)
	if n.ifcs[node] != nil {
		panic(fmt.Sprintf("torus: coordinate %v already attached", coord))
	}
	ifc := &Interface{net: n, chip: chip, coord: coord, node: node}
	n.ifcs[node] = ifc
	return ifc
}

// At returns the interface at coord.
func (n *Network) At(coord Coord) *Interface {
	if node := nodeOf(coord, n.cfg.Dims); node >= 0 && n.ifcs[node] != nil {
		return n.ifcs[node]
	}
	panic(fmt.Sprintf("torus: no interface at %v", coord))
}

// Hops returns the dimension-ordered hop count between two coordinates
// with wraparound.
func (n *Network) Hops(a, b Coord) int {
	total := 0
	for d := 0; d < 3; d++ {
		dim := n.cfg.Dims[d]
		if dim <= 1 {
			continue
		}
		diff := a[d] - b[d]
		if diff < 0 {
			diff = -diff
		}
		if wrap := dim - diff; wrap < diff {
			diff = wrap
		}
		total += diff
	}
	return total
}

// serial is the time bytes take to serialize onto one link: the bytes
// themselves plus per-packet processing.
func (n *Network) serial(bytes int) sim.Cycles {
	packets := (bytes + PacketBytes - 1) / PacketBytes
	if packets == 0 {
		packets = 1
	}
	return sim.Cycles(float64(bytes)*n.cfg.CyclesPerByte) + sim.Cycles(packets)*n.cfg.PerPacket
}

// reserve serializes n bytes onto a directed link and returns the cycle at
// which the tail leaves the link.
func (n *Network) reserve(k link, bytes int, earliest sim.Cycles) sim.Cycles {
	ser := n.serial(bytes)
	start := earliest
	if bu := n.busy[k]; bu > start {
		start = bu
	}
	n.busy[k] = start + ser
	return start + ser
}

// dimOrderRoute is the static dimension-ordered minimal route from a to
// b: dimensions ascending, each crossed the shorter way round, ties going
// forward.
func dimOrderRoute(a, b Coord, dims Coord) []link {
	var out []link
	cur := a
	for d := 0; d < 3; d++ {
		n := dims[d]
		if n <= 1 || cur[d] == b[d] {
			continue
		}
		fwd := (b[d] - cur[d] + n) % n
		bwd := (cur[d] - b[d] + n) % n
		pos := fwd <= bwd
		steps := fwd
		if !pos {
			steps = bwd
		}
		for s := 0; s < steps; s++ {
			out = append(out, linkOf(nodeOf(cur, dims), d, pos))
			cur = step(cur, d, pos, dims)
		}
	}
	return out
}

// reserveOverlap lets the reception link overlap the injection link
// (cut-through routing): all but one packet's worth of time overlaps.
func reserveOverlap(bytes int, cfg Config) sim.Cycles {
	ser := sim.Cycles(float64(bytes) * cfg.CyclesPerByte)
	onePkt := sim.Cycles(float64(PacketBytes) * cfg.CyclesPerByte)
	if ser > onePkt {
		return ser - onePkt
	}
	return 0
}

// Packet is an active-message packet (eager data or protocol control).
type Packet struct {
	From    Coord
	Tag     uint32
	Kind    uint8
	Seq     uint64 // per-sender sequence number (reliable-delivery identity)
	Payload []byte
}

// Interface is one node's torus port plus DMA engine.
type Interface struct {
	net   *Network
	chip  *hw.Chip
	coord Coord
	node  int    // coord's node number
	seq   uint64 // last sequence number issued
	dead  bool   // interface killed by a NodeFault

	inbox   []Packet
	waiters []*sim.Coro
}

// Coord returns the interface's coordinate.
func (i *Interface) Coord() Coord { return i.coord }

// Chip returns the attached chip.
func (i *Interface) Chip() *hw.Chip { return i.chip }

// retransBackoff is the base sender backoff after a CRC-corrupted torus
// transfer; it doubles per consecutive corruption.
const retransBackoff = sim.Cycles(170)

// retransPenalty draws this transfer's seeded CRC corruptions from the
// chip's fault source and returns the extra link time: each corrupted
// attempt re-serializes the transfer after an exponentially growing
// backoff, counted in the UPC unit.
func (i *Interface) retransPenalty(bytes int) sim.Cycles {
	n := i.chip.Faults.LinkRetransmits("torus")
	if n == 0 {
		return 0
	}
	ser := i.net.serial(bytes)
	var extra sim.Cycles
	for a := 0; a < n; a++ {
		extra += ser + (retransBackoff << a)
	}
	u := i.chip.UPC
	u.Add(upc.ChipScope, upc.LinkCRC, uint64(n))
	u.Add(upc.ChipScope, upc.LinkRetransmit, uint64(n))
	return extra
}

func (i *Interface) requireUnits() {
	if !i.chip.UnitEnabled(hw.UnitTorus) {
		panic(fmt.Sprintf("torus: torus unit broken on chip %d", i.chip.ID))
	}
	if !i.chip.UnitEnabled(hw.UnitDMA) {
		panic(fmt.Sprintf("torus: DMA unit broken on chip %d", i.chip.ID))
	}
}

// transferKind says what a transfer lands at its destination.
type transferKind uint8

const (
	landPacket transferKind = iota // an active-message packet, into the inbox
	landPut                        // a put's bytes, into the destination's memory
	landGet                        // a get's request, answered with a put
)

// transfer is one torus transfer in flight, from injection until it lands
// or is abandoned. SendPacket, Put and Get all go through it, first
// attempts and retransmits alike, whether or not faults are armed:
// attempt routes and prices the transfer and schedules arrived, which
// checks for in-flight loss (nothing dies on an unarmed network) and then
// lands it. Records are recycled through Network.free and bind their step
// methods once, so scheduling an arrival allocates nothing.
type transfer struct {
	from, to *Interface
	kind     transferKind
	bytes    int
	extra    sim.Cycles // per-attempt injection overhead (DMA descriptors)
	sentAt   sim.Cycles // first injection, for the packet's obs span
	try      int        // retransmits so far
	route    []link
	arrival  sim.Cycles

	pkt    Packet      // landPacket
	data   []byte      // landPut: the bytes, read at injection
	ranges []PhysRange // landPut: destination ranges; landGet: remote source
	local  []PhysRange // landGet: where the reply lands
	onDone func(error) // landPut, landGet: completion, nil error on success

	arrive, retry func() // t.arrived and t.attempt
}

func (n *Network) newTransfer(from, to *Interface, kind transferKind, bytes int) *transfer {
	var t *transfer
	if k := len(n.free); k > 0 {
		t = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		t = &transfer{}
		t.arrive, t.retry = t.arrived, t.attempt
	}
	t.from, t.to, t.kind, t.bytes, t.sentAt = from, to, kind, bytes, n.eng.Now()
	return t
}

// release returns t to the free list, dropping everything it references.
func (n *Network) release(t *transfer) {
	*t = transfer{arrive: t.arrive, retry: t.retry}
	n.free = append(n.free, t)
}

// attempt injects the transfer: it routes and prices it and schedules its
// arrival, or abandons it when the sender is dead or no route survives.
func (t *transfer) attempt() {
	n := t.from.net
	if t.from.dead {
		t.abandon("local node dead", false)
		return
	}
	t.route = n.route(t.from, t.to)
	if len(t.route) == 0 && t.from != t.to {
		t.abandon("no surviving route", true)
		return
	}
	t.arrival = t.from.price(t.to, t.route, t.bytes) + t.extra + n.cfg.RecvOverhead
	n.eng.At(t.arrival, t.arrive)
}

// price reserves the wires a transfer of bytes crosses along route,
// injected now, and returns the cycle its tail reaches dst's DMA. It holds
// the injection wire, a detour's intermediate wires and dst's reception
// port (keyed as the reverse of the final hop), each cut-through
// overlapped with the one before, and adds HopLatency per hop. The
// sender's drawn CRC retransmits re-serialize on the same wires, so the
// injection wire and the port stay busy for them too.
func (i *Interface) price(dst *Interface, route []link, bytes int) sim.Cycles {
	n := i.net
	now := n.eng.Now()
	pen := i.retransPenalty(bytes)
	if len(route) == 0 { // self-send: no wire
		return now + pen
	}
	overlap := reserveOverlap(bytes, n.cfg)
	tail := n.reserve(route[0], bytes, now)
	if detour := len(route) - n.Hops(i.coord, dst.coord); detour > 0 {
		i.chip.UPC.Add(upc.ChipScope, upc.TorusRouteDetour, uint64(detour))
		for _, k := range route[1 : len(route)-1] {
			tail = n.reserve(k, bytes, tail-overlap)
		}
	}
	last := route[len(route)-1]
	port := linkOf(dst.node, last.dim(), !last.pos())
	tail = n.reserve(port, bytes, tail-overlap)
	if pen > 0 {
		n.busy[route[0]] += pen
		n.busy[port] += pen
	}
	return tail + pen + sim.Cycles(len(route))*n.cfg.HopLatency
}

// arrived runs at the arrival instant. A transfer that crossed a link, or
// reached a node, dead by now is retransmitted after an exponential
// backoff (resilient networks, bounded tries) or abandoned; any other
// lands.
func (t *transfer) arrived() {
	n := t.from.net
	if f := n.faults; f.lost(t.route, t.to.node, t.arrival) {
		if f.resilient && t.try < maxE2ERetries {
			t.from.chip.UPC.Inc(upc.ChipScope, upc.TorusE2ERetry)
			n.eng.After(e2eBackoff<<uint(t.try), t.retry)
			t.try++
			return
		}
		t.abandon("delivery lost on dead path", false)
		return
	}
	switch t.kind {
	case landPacket:
		n.obs.Emit(obs.CatMsg, "torus:pkt", t.from.chip.ID, 0, t.sentAt, n.eng.Now(), uint64(len(t.pkt.Payload)))
		t.to.deliver(t.pkt)
	case landPut:
		off := uint64(0)
		for _, r := range t.ranges {
			t.to.chip.Mem.Write(r.PA, t.data[off:off+r.Len])
			off += r.Len
		}
		if t.onDone != nil {
			t.onDone(nil)
		}
	case landGet:
		t.to.Put(t.from.coord, t.ranges, t.local, t.onDone)
	}
	n.release(t)
}

// abandon gives the transfer up: an end-to-end timeout on the sender's
// UPC unit, and a *DeliveryError to onDone (packets have none).
func (t *transfer) abandon(reason string, unroutable bool) {
	t.from.chip.UPC.Inc(upc.ChipScope, upc.TorusE2ETimeout)
	if t.onDone != nil {
		t.onDone(&DeliveryError{From: t.from.coord, To: t.to.coord, Retries: t.try, Reason: reason, Unroutable: unroutable})
	}
	t.from.net.release(t)
}

// SendPacket injects an active-message packet toward dst; it is delivered
// to dst's inbox after network traversal. Non-blocking (memfifo
// injection); the caller charges its own software overhead. The packet
// carries payload itself, not a copy, and the receiver may keep it: the
// caller must not modify payload after the call.
func (i *Interface) SendPacket(dst Coord, tag uint32, kind uint8, payload []byte) {
	i.requireUnits()
	if len(payload) > PacketBytes {
		panic("torus: active-message payload exceeds one packet; use Put")
	}
	i.seq++
	i.chip.UPC.Inc(upc.ChipScope, upc.TorusPacket)
	t := i.net.newTransfer(i, i.net.At(dst), landPacket, len(payload))
	t.pkt = Packet{From: i.coord, Tag: tag, Kind: kind, Seq: i.seq, Payload: payload}
	t.attempt()
}

func (i *Interface) deliver(p Packet) {
	i.inbox = append(i.inbox, p)
	for _, c := range i.waiters {
		c.Wake()
	}
}

// RecvMatch blocks until a packet satisfying pred arrives and returns it.
// It has no deadline and panics if the local interface dies: receivers on
// a network with hard faults armed use RecvMatchErr.
func (i *Interface) RecvMatch(c *sim.Coro, pred func(Packet) bool) Packet {
	p, err := i.recv(c, pred, sim.Forever)
	if err != nil {
		panic(err)
	}
	return p
}

// RecvMatchErr is RecvMatch with delivery-failure semantics: on a network
// with hard faults armed the wait is bounded by the end-to-end receive
// timeout, and a typed *DeliveryError surfaces — instead of a coro parked
// forever — when the local interface dies or expected traffic never
// arrives (lost on a dead wire, sender dead, route gone).
func (i *Interface) RecvMatchErr(c *sim.Coro, pred func(Packet) bool) (Packet, error) {
	wait := sim.Forever
	if i.net.faults != nil {
		wait = i.net.faults.recvTimeout
	}
	return i.recv(c, pred, wait)
}

// recv waits up to wait cycles (sim.Forever: no deadline) for a packet
// satisfying pred.
func (i *Interface) recv(c *sim.Coro, pred func(Packet) bool, wait sim.Cycles) (Packet, error) {
	deadline := i.net.eng.Now() + wait
	for {
		if p, ok := i.Poll(pred); ok {
			return p, nil
		}
		if i.dead {
			i.chip.UPC.Inc(upc.ChipScope, upc.TorusE2ETimeout)
			return Packet{}, &DeliveryError{From: i.coord, To: i.coord, Reason: "local node dead"}
		}
		timeout := sim.Forever
		if wait < sim.Forever {
			now := i.net.eng.Now()
			if now >= deadline {
				i.chip.UPC.Inc(upc.ChipScope, upc.TorusE2ETimeout)
				return Packet{}, &DeliveryError{From: i.coord, To: i.coord, Reason: "receive timed out waiting for delivery"}
			}
			timeout = deadline - now
		}
		i.waiters = append(i.waiters, c)
		c.Park(timeout)
		for idx, w := range i.waiters {
			if w == c {
				i.waiters = append(i.waiters[:idx], i.waiters[idx+1:]...)
				break
			}
		}
	}
}

// Poll returns a packet matching pred without blocking.
func (i *Interface) Poll(pred func(Packet) bool) (Packet, bool) {
	for idx, p := range i.inbox {
		if pred(p) {
			i.inbox = append(i.inbox[:idx], i.inbox[idx+1:]...)
			return p, true
		}
	}
	return Packet{}, false
}

// PhysRange mirrors mem.PhysRange at the hardware level.
type PhysRange struct {
	PA  hw.PAddr
	Len uint64
}

// Put performs a direct-put DMA: bytes from src physical ranges on this
// node are written to dst physical ranges on the remote node. onDone (if
// non-nil) runs when the transfer completes at the destination (the
// reception counter hitting zero), with a nil error — or, on an armed
// network, with a *DeliveryError when the transfer could not be
// delivered. The injection cost is charged per descriptor: one per
// source range.
func (i *Interface) Put(dst Coord, src, dstRanges []PhysRange, onDone func(error)) {
	i.requireUnits()
	target := i.net.At(dst)
	var total uint64
	for _, r := range src {
		total += r.Len
	}
	var dtotal uint64
	for _, r := range dstRanges {
		dtotal += r.Len
	}
	if total != dtotal {
		panic(fmt.Sprintf("torus: put size mismatch %d vs %d", total, dtotal))
	}
	// Copy the bytes now (source buffer at injection time) and deliver at
	// the modelled completion time.
	data := make([]byte, 0, total)
	buf := make([]byte, 0)
	for _, r := range src {
		if uint64(cap(buf)) < r.Len {
			buf = make([]byte, r.Len)
		}
		b := buf[:r.Len]
		i.chip.Mem.Read(r.PA, b)
		data = append(data, b...)
	}
	u := i.chip.UPC
	u.Add(upc.ChipScope, upc.DMADescriptor, uint64(len(src)))
	u.Add(upc.ChipScope, upc.TorusBytes, total)
	t := i.net.newTransfer(i, target, landPut, int(total))
	t.extra = sim.Cycles(uint64(len(src))) * i.net.cfg.PerDescriptor
	t.data, t.ranges, t.onDone = data, dstRanges, onDone
	t.attempt()
}

// Get fetches bytes from remote physical ranges into local ranges: a
// request packet travels to the remote DMA, which responds with a put.
// onDone runs locally when the data has landed (nil error), or with a
// *DeliveryError when either leg of an armed transfer failed.
func (i *Interface) Get(dst Coord, remote, local []PhysRange, onDone func(error)) {
	i.requireUnits()
	target := i.net.At(dst)
	i.chip.UPC.Inc(upc.ChipScope, upc.DMADescriptor)
	t := i.net.newTransfer(i, target, landGet, 16) // the request descriptor packet
	t.ranges, t.local, t.onDone = remote, local, onDone
	t.attempt()
}

// Requeue returns a polled packet to the front of the inbox (used by
// protocol layers that peek to choose a receive path). Waiters are woken:
// the requeued packet may be exactly what a parked RecvMatch is matching
// on, and without the wake that coro would sleep forever.
func (i *Interface) Requeue(p Packet) {
	i.inbox = append([]Packet{p}, i.inbox...)
	for _, c := range i.waiters {
		c.Wake()
	}
}
