// Hard network faults: seeded link/node deaths, fault-region routing and
// end-to-end reliable delivery.
//
// The lessons-learned half of the paper is about RAS: on a real machine
// links and nodes die, and the network must either route around the
// damage or surface a clean partition-level failure to the control
// system. This file makes hard network failure a first-class,
// cycle-exactly-replayable event: a FaultPlan drawn from a dedicated RNG
// stream kills directed links and whole interfaces at drawn cycles, every
// death drops the network's cached routes so the next transfer between a
// pair searches the surviving links afresh, transfers crossing a dead wire
// are lost and retransmitted end-to-end with exponential backoff, and
// when no route survives the sender gets a typed DeliveryError instead of
// a silently hung coroutine.
//
// Arming adds deaths, detours and receive deadlines; it does not change
// how a transfer over live wires is priced (see transfer in torus.go).
package torus

import (
	"errors"
	"fmt"
	"sort"

	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// ErrUnroutable is wrapped by DeliveryError when no path survives the
// fault set between two live endpoints; test with errors.Is.
var ErrUnroutable = errors.New("torus: no route survives the fault set")

// DeliveryError is the typed failure a reliable transfer surfaces into
// the messaging layers (dcmf, collective, barrier) instead of hanging a
// parked coroutine.
type DeliveryError struct {
	From, To   Coord
	Retries    int    // retransmit attempts consumed before giving up
	Reason     string // human-readable cause
	Unroutable bool   // no surviving route (wraps ErrUnroutable)
}

func (e *DeliveryError) Error() string {
	return fmt.Sprintf("torus: delivery %v -> %v failed after %d retries: %s",
		e.From, e.To, e.Retries, e.Reason)
}

// Unwrap lets errors.Is(err, ErrUnroutable) see through a routing death.
func (e *DeliveryError) Unwrap() error {
	if e.Unroutable {
		return ErrUnroutable
	}
	return nil
}

// LinkFault kills the directed link leaving C along dimension Dim
// (positive or negative direction) at cycle At.
type LinkFault struct {
	C   Coord
	Dim int
	Pos bool
	At  sim.Cycles
}

// NodeFault kills the whole interface at C — every link it owns — at
// cycle At.
type NodeFault struct {
	C  Coord
	At sim.Cycles
}

// FaultPlan is a drawn schedule of hard network faults. Plans are values:
// two machines armed with equal plans fail identically.
type FaultPlan struct {
	Links []LinkFault
	Nodes []NodeFault
}

func coordLess(a, b Coord) bool {
	for d := 0; d < 3; d++ {
		if a[d] != b[d] {
			return a[d] < b[d]
		}
	}
	return false
}

func linkFaultLess(a, b LinkFault) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.C != b.C {
		return coordLess(a.C, b.C)
	}
	if a.Dim != b.Dim {
		return a.Dim < b.Dim
	}
	return a.Pos && !b.Pos
}

func nodeFaultLess(a, b NodeFault) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return coordLess(a.C, b.C)
}

// EnumCoords lists every coordinate of a dims-shaped torus in canonical
// row-major order (x outermost) — the rank-to-coordinate mapping the
// machine layer uses for non-ring topologies.
func EnumCoords(dims Coord) []Coord {
	var out []Coord
	for x := 0; x < max1(dims[0]); x++ {
		for y := 0; y < max1(dims[1]); y++ {
			for z := 0; z < max1(dims[2]); z++ {
				out = append(out, Coord{x, y, z})
			}
		}
	}
	return out
}

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// step returns the neighbor of c one hop along dim in the given
// direction, with wraparound.
func step(c Coord, dim int, pos bool, dims Coord) Coord {
	n := dims[dim]
	if pos {
		c[dim] = (c[dim] + 1) % n
	} else {
		c[dim] = (c[dim] - 1 + n) % n
	}
	return c
}

// DrawFaultPlan draws nLinks directed-link deaths and nNodes node deaths
// (without replacement) with death cycles uniform in (0, window], purely
// from rng — a pure function of (rng seed, dims, counts, window), so a
// plan replays bit-identically. At least one node always survives.
func DrawFaultPlan(rng *sim.RNG, dims Coord, nLinks, nNodes int, window sim.Cycles) *FaultPlan {
	if window <= 0 {
		window = 1
	}
	p := &FaultPlan{}
	coords := EnumCoords(dims)

	var links []LinkFault
	for _, c := range coords {
		for d := 0; d < 3; d++ {
			if dims[d] <= 1 {
				continue
			}
			links = append(links, LinkFault{C: c, Dim: d, Pos: true})
			links = append(links, LinkFault{C: c, Dim: d, Pos: false})
		}
	}
	if nLinks > len(links) {
		nLinks = len(links)
	}
	// Partial Fisher-Yates: the first nLinks entries become the sample.
	for i := 0; i < nLinks; i++ {
		j := i + rng.Intn(len(links)-i)
		links[i], links[j] = links[j], links[i]
		links[i].At = 1 + rng.Cycles(window)
		p.Links = append(p.Links, links[i])
	}

	if nNodes >= len(coords) {
		nNodes = len(coords) - 1 // the machine keeps at least one survivor
	}
	nodes := append([]Coord(nil), coords...)
	for i := 0; i < nNodes; i++ {
		j := i + rng.Intn(len(nodes)-i)
		nodes[i], nodes[j] = nodes[j], nodes[i]
		p.Nodes = append(p.Nodes, NodeFault{C: nodes[i], At: 1 + rng.Cycles(window)})
	}

	sort.Slice(p.Links, func(i, j int) bool { return linkFaultLess(p.Links[i], p.Links[j]) })
	sort.Slice(p.Nodes, func(i, j int) bool { return nodeFaultLess(p.Nodes[i], p.Nodes[j]) })
	return p
}

// ---- armed fault state ----

// End-to-end reliable-delivery parameters.
const (
	// maxE2ERetries bounds retransmit attempts per transfer.
	maxE2ERetries = 5
	// e2eBackoff is the base retransmit delay, doubling per attempt.
	e2eBackoff = sim.Cycles(2_000)
	// e2eRecvTimeout (50 ms) is how long an armed receiver waits for
	// expected traffic before surfacing a DeliveryError: generous against
	// any healthy wait in our workloads, far below the run limits a silent
	// hang would eat.
	e2eRecvTimeout = sim.Cycles(50_000 * sim.CyclesPerMicro)
)

type faultState struct {
	resilient   bool
	onNodeDead  func(Coord)
	recvTimeout sim.Cycles

	deadLinks map[link]sim.Cycles // death cycle per dead directed link
	deadNodes map[int]sim.Cycles  // death cycle per dead node
}

// ArmFaults arms the hard-fault layer: the plan's deaths are scheduled as
// engine events and (with resilient true) transfers detour around dead
// links and retransmit lost deliveries. With resilient false routing stays
// static dimension-ordered and lost packets stay lost — the degrade
// experiment's baseline. onNodeDead (may be nil) runs at each node death,
// after the RAS event is logged. A plan naming a coordinate outside Dims
// panics.
func (n *Network) ArmFaults(plan *FaultPlan, resilient bool, onNodeDead func(Coord)) {
	if n.faults != nil {
		panic("torus: hard faults armed twice")
	}
	n.faults = &faultState{
		resilient:   resilient,
		onNodeDead:  onNodeDead,
		recvTimeout: e2eRecvTimeout,
		deadLinks:   make(map[link]sim.Cycles),
		deadNodes:   make(map[int]sim.Cycles),
	}
	for _, lf := range plan.Links {
		k := linkOf(n.node(lf.C), lf.Dim, lf.Pos)
		n.eng.At(lf.At, func() { n.killLink(k) })
	}
	for _, nf := range plan.Nodes {
		node := n.node(nf.C)
		n.eng.At(nf.At, func() { n.killNode(node) })
	}
}

// FaultsArmed reports whether the hard-fault layer is active.
func (n *Network) FaultsArmed() bool { return n.faults != nil }

// SetE2ERecvTimeout overrides the armed receiver timeout.
func (n *Network) SetE2ERecvTimeout(d sim.Cycles) {
	if n.faults != nil {
		n.faults.recvTimeout = d
	}
}

// DeadLinks counts directed links currently dead (node deaths included).
func (n *Network) DeadLinks() int {
	if n.faults == nil {
		return 0
	}
	return len(n.faults.deadLinks)
}

// route returns the links a transfer from src to dst crosses, cached in
// src's row until the next death: on a resilient armed network the
// shortest path over surviving links, otherwise the static
// dimension-ordered route, dead links ignored. On a healthy torus both
// are the same route, so arming alone moves no transfer. The route is
// empty for a self-send, which crosses no link, and for a pair no route
// joins any more; a computed route is never nil, so nil marks an entry
// not yet computed.
func (n *Network) route(src, dst *Interface) []link {
	row := n.routes[src.node]
	if row == nil {
		row = make([][]link, len(n.ifcs))
		n.routes[src.node] = row
	}
	r := row[dst.node]
	if r == nil {
		if f := n.faults; f != nil && f.resilient {
			r = f.reach(src.node, n.cfg.Dims).pathTo(src.node, dst.node)
		} else {
			r = dimOrderRoute(src.coord, dst.coord, n.cfg.Dims)
		}
		if r == nil {
			r = []link{}
		}
		row[dst.node] = r
	}
	return r
}

// reached holds, for each node a search reached, the link it was first
// reached over; the search's source and every node it did not reach hold
// noLink.
type reached []link

const noLink link = -1

// reach searches breadth-first from node src over the links and nodes
// still alive, exploring dimensions ascending and the positive direction
// first. The fixed exploration order makes every route a pure function of
// the dead set.
func (f *faultState) reach(src int, dims Coord) reached {
	via := make(reached, nodeCount(dims))
	for v := range via {
		via[v] = noLink
	}
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		c := coordOf(u, dims)
		for d := 0; d < 3; d++ {
			if dims[d] <= 1 {
				continue
			}
			for _, pos := range [2]bool{true, false} {
				k := linkOf(u, d, pos)
				if _, dead := f.deadLinks[k]; dead {
					continue
				}
				v := nodeOf(step(c, d, pos, dims), dims)
				if _, dead := f.deadNodes[v]; dead {
					continue
				}
				if v == src || via[v] != noLink {
					continue
				}
				via[v] = k
				queue = append(queue, v)
			}
		}
	}
	return via
}

// pathTo returns the links the search crossed from src to dst, in order,
// or nil when dst was not reached.
func (via reached) pathTo(src, dst int) []link {
	if dst != src && via[dst] == noLink {
		return nil
	}
	hops := 0
	for v := dst; v != src; v = via[v].node() {
		hops++
	}
	out := make([]link, hops)
	for v := dst; v != src; v = via[v].node() {
		hops--
		out[hops] = via[v]
	}
	return out
}

// killLink marks one directed link dead: RAS-logged against the owning
// node, counted in its UPC unit, and every cached route dropped.
func (n *Network) killLink(k link) {
	f := n.faults
	if _, dead := f.deadLinks[k]; dead {
		return
	}
	f.deadLinks[k] = n.eng.Now()
	dir := "-"
	if k.pos() {
		dir = "+"
	}
	if ifc := n.ifcs[k.node()]; ifc != nil {
		ifc.chip.UPC.Inc(upc.ChipScope, upc.TorusLinkDead)
		ifc.chip.Faults.Report(ras.LinkFail, "torus",
			fmt.Sprintf("directed link %v dim %d%s died", ifc.coord, k.dim(), dir))
	}
	clear(n.routes)
}

// killNode marks a whole interface dead: every link it owns dies with it,
// the event is RAS-logged, cached routes are dropped, blocked receivers
// are woken so they surface errors instead of sleeping forever, and
// onNodeDead runs last (the machine layer uses it to kill the job
// partition-wide).
func (n *Network) killNode(node int) {
	f := n.faults
	if _, dead := f.deadNodes[node]; dead {
		return
	}
	now := n.eng.Now()
	f.deadNodes[node] = now
	ifc := n.ifcs[node]
	for d := 0; d < 3; d++ {
		if n.cfg.Dims[d] <= 1 {
			continue
		}
		for _, pos := range [2]bool{true, false} {
			k := linkOf(node, d, pos)
			if _, dead := f.deadLinks[k]; !dead {
				f.deadLinks[k] = now
				if ifc != nil {
					ifc.chip.UPC.Inc(upc.ChipScope, upc.TorusLinkDead)
				}
			}
		}
	}
	if ifc != nil {
		ifc.dead = true
		ifc.chip.Faults.Report(ras.NodeFail, "torus",
			fmt.Sprintf("node %v torus interface died with all its links", ifc.coord))
	}
	clear(n.routes)
	if ifc != nil {
		for _, w := range ifc.waiters {
			w.Wake()
		}
	}
	if f.onNodeDead != nil {
		f.onNodeDead(coordOf(node, n.cfg.Dims))
	}
}

// ValidatePlanRoutable verifies that even after every death in plan has
// landed, the surviving attached interfaces can all still reach each
// other. This is the boot-time partition wiring validation: a seeded
// fault schedule is part of the partition's configuration, and a
// topology it will disconnect must fail fast at boot instead of
// stranding a job mid-run.
func (n *Network) ValidatePlanRoutable(plan *FaultPlan) error {
	after := &faultState{
		deadLinks: make(map[link]sim.Cycles, len(plan.Links)),
		deadNodes: make(map[int]sim.Cycles, len(plan.Nodes)),
	}
	for _, lf := range plan.Links {
		after.deadLinks[linkOf(n.node(lf.C), lf.Dim, lf.Pos)] = lf.At
	}
	for _, nf := range plan.Nodes {
		after.deadNodes[n.node(nf.C)] = nf.At
	}
	survives := func(node int) bool {
		_, dead := after.deadNodes[node]
		return n.ifcs[node] != nil && !dead
	}
	// Node order is coordLess order, so the first broken pair reported is
	// the same on every run.
	for a := range n.ifcs {
		if !survives(a) {
			continue
		}
		via := after.reach(a, n.cfg.Dims)
		for b := range n.ifcs {
			if b != a && survives(b) && via[b] == noLink {
				return fmt.Errorf("torus: partition wiring %v -> %v after planned faults: %w",
					n.ifcs[a].coord, n.ifcs[b].coord, ErrUnroutable)
			}
		}
	}
	return nil
}

// lost reports whether a transfer over route, arriving at done, crossed a
// link (or reached a destination) that died before the arrival. Nothing
// is lost on a network without hard faults armed.
func (f *faultState) lost(route []link, dst int, done sim.Cycles) bool {
	if f == nil {
		return false
	}
	for _, k := range route {
		if at, dead := f.deadLinks[k]; dead && at < done {
			return true
		}
	}
	if at, dead := f.deadNodes[dst]; dead && at < done {
		return true
	}
	return false
}
