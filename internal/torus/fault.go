// Hard network faults: seeded link/node deaths, fault-region routing and
// end-to-end reliable delivery.
//
// The lessons-learned half of the paper is about RAS: on a real machine
// links and nodes die, and the network must either route around the
// damage or surface a clean partition-level failure to the control
// system. This file makes hard network failure a first-class,
// cycle-exactly-replayable event: a FaultPlan drawn from a dedicated RNG
// stream kills directed links and whole interfaces at drawn cycles, a
// per-network route table is recomputed deterministically on every
// failure, transfers crossing a dead wire are lost and retransmitted
// end-to-end with exponential backoff, and when no route survives the
// sender gets a typed DeliveryError instead of a silently hung coroutine.
//
// Everything here is gated on ArmFaults: a network that never arms hard
// faults runs the exact legacy code path, event for event.
package torus

import (
	"encoding/binary"
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

// Empty reports whether the plan kills nothing.
func (p *FaultPlan) Empty() bool { return p == nil || (len(p.Links) == 0 && len(p.Nodes) == 0) }

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
func EnumCoords(dims Coord) []Coord { return enumCoords(dims) }

// enumCoords lists every coordinate of a dims-sized torus in x,y,z
// lexicographic order.
func enumCoords(dims Coord) []Coord {
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
	coords := enumCoords(dims)

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

// ---- fault-plan codec ----
//
// Versioned canonical binary form, fuzzed (FuzzFaultPlan): any bytes
// Unmarshal accepts must re-Marshal to exactly the input.

var faultPlanMagic = [4]byte{'T', 'N', 'F', '1'}

// maxPlanEntries bounds decoded entry counts so corrupt input cannot ask
// for gigabytes.
const maxPlanEntries = 1 << 16

// maxCoordVal bounds coordinates in the wire form (no real torus
// dimension approaches it).
const maxCoordVal = 1 << 20

// Marshal encodes the plan in its canonical wire form (entries sorted by
// death cycle, then coordinate/dimension/direction).
func (p *FaultPlan) Marshal() []byte {
	links := append([]LinkFault(nil), p.Links...)
	nodes := append([]NodeFault(nil), p.Nodes...)
	sort.Slice(links, func(i, j int) bool { return linkFaultLess(links[i], links[j]) })
	sort.Slice(nodes, func(i, j int) bool { return nodeFaultLess(nodes[i], nodes[j]) })

	b := make([]byte, 0, 12+len(links)*22+len(nodes)*20)
	b = append(b, faultPlanMagic[:]...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(links)))
	for _, lf := range links {
		for d := 0; d < 3; d++ {
			b = binary.BigEndian.AppendUint32(b, uint32(lf.C[d]))
		}
		b = append(b, byte(lf.Dim))
		if lf.Pos {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.BigEndian.AppendUint64(b, uint64(lf.At))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(nodes)))
	for _, nf := range nodes {
		for d := 0; d < 3; d++ {
			b = binary.BigEndian.AppendUint32(b, uint32(nf.C[d]))
		}
		b = binary.BigEndian.AppendUint64(b, uint64(nf.At))
	}
	return b
}

type planReader struct {
	b   []byte
	off int
	err error
}

func (r *planReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.b) {
		r.err = errors.New("torus: truncated fault plan")
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *planReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.err = errors.New("torus: truncated fault plan")
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *planReader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.off+1 > len(r.b) {
		r.err = errors.New("torus: truncated fault plan")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *planReader) coord() Coord {
	var c Coord
	for d := 0; d < 3; d++ {
		v := r.u32()
		if r.err == nil && v >= maxCoordVal {
			r.err = fmt.Errorf("torus: fault-plan coordinate %d out of range", v)
		}
		c[d] = int(v)
	}
	return c
}

// UnmarshalFaultPlan decodes a canonical fault-plan wire image, strictly
// rejecting truncation, trailing bytes, out-of-range fields and
// non-canonical ordering.
func UnmarshalFaultPlan(b []byte) (*FaultPlan, error) {
	if len(b) < 4 || [4]byte(b[:4]) != faultPlanMagic {
		return nil, errors.New("torus: bad fault-plan magic")
	}
	r := &planReader{b: b, off: 4}
	p := &FaultPlan{}
	nl := r.u32()
	if r.err == nil && nl > maxPlanEntries {
		return nil, fmt.Errorf("torus: fault plan claims %d link faults", nl)
	}
	for i := uint32(0); i < nl && r.err == nil; i++ {
		lf := LinkFault{C: r.coord()}
		dim := r.u8()
		pos := r.u8()
		lf.At = sim.Cycles(r.u64())
		if r.err != nil {
			break
		}
		if dim > 2 || pos > 1 {
			return nil, errors.New("torus: fault-plan link field out of range")
		}
		if lf.At < 1 {
			return nil, errors.New("torus: fault-plan death cycle must be positive")
		}
		lf.Dim, lf.Pos = int(dim), pos == 1
		if n := len(p.Links); n > 0 && !linkFaultLess(p.Links[n-1], lf) {
			return nil, errors.New("torus: fault-plan links not in canonical order")
		}
		p.Links = append(p.Links, lf)
	}
	nn := r.u32()
	if r.err == nil && nn > maxPlanEntries {
		return nil, fmt.Errorf("torus: fault plan claims %d node faults", nn)
	}
	for i := uint32(0); i < nn && r.err == nil; i++ {
		nf := NodeFault{C: r.coord(), At: sim.Cycles(r.u64())}
		if r.err != nil {
			break
		}
		if nf.At < 1 {
			return nil, errors.New("torus: fault-plan death cycle must be positive")
		}
		if n := len(p.Nodes); n > 0 && !nodeFaultLess(p.Nodes[n-1], nf) {
			return nil, errors.New("torus: fault-plan nodes not in canonical order")
		}
		p.Nodes = append(p.Nodes, nf)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(b) {
		return nil, errors.New("torus: trailing bytes after fault plan")
	}
	return p, nil
}

// ---- route table ----

// Route is one surviving source→destination path: the successive
// coordinates after Src, ending at Dst.
type Route struct {
	Src, Dst Coord
	Hops     []Coord
}

// RouteTable is the per-network routing state recomputed deterministically
// on every failure event: for every ordered pair of coordinates with a
// surviving path, the shortest detour (BFS over healthy directed links,
// dimensions ascending, positive direction first — a fixed exploration
// order, so the table is a pure function of the dead set).
type RouteTable struct {
	Dims   Coord
	Epoch  uint32
	Routes []Route // sorted by (Src, Dst) lexicographic
}

// BuildRouteTable computes the all-pairs table over links/nodes the
// callbacks report alive.
func BuildRouteTable(dims Coord, epoch uint32, linkAlive func(linkKey) bool, nodeAlive func(Coord) bool) *RouteTable {
	rt := &RouteTable{Dims: dims, Epoch: epoch}
	coords := enumCoords(dims)
	for _, src := range coords {
		if !nodeAlive(src) {
			continue
		}
		parent := map[Coord]Coord{src: src}
		queue := []Coord{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for d := 0; d < 3; d++ {
				if dims[d] <= 1 {
					continue
				}
				for _, pos := range [2]bool{true, false} {
					k := linkKey{u, d, pos}
					if !linkAlive(k) {
						continue
					}
					v := step(u, d, pos, dims)
					if !nodeAlive(v) {
						continue
					}
					if _, seen := parent[v]; seen {
						continue
					}
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
		for _, dst := range coords {
			if dst == src {
				continue
			}
			if _, ok := parent[dst]; !ok {
				continue
			}
			var rev []Coord
			for c := dst; c != src; c = parent[c] {
				rev = append(rev, c)
			}
			hops := make([]Coord, len(rev))
			for i, c := range rev {
				hops[len(rev)-1-i] = c
			}
			rt.Routes = append(rt.Routes, Route{Src: src, Dst: dst, Hops: hops})
		}
	}
	return rt
}

// ---- route-table codec ----

var routeTableMagic = [4]byte{'T', 'R', 'T', '1'}

// Marshal encodes the table in canonical wire form.
func (rt *RouteTable) Marshal() []byte {
	b := append([]byte(nil), routeTableMagic[:]...)
	for d := 0; d < 3; d++ {
		b = binary.BigEndian.AppendUint32(b, uint32(rt.Dims[d]))
	}
	b = binary.BigEndian.AppendUint32(b, rt.Epoch)
	b = binary.BigEndian.AppendUint32(b, uint32(len(rt.Routes)))
	for _, r := range rt.Routes {
		for d := 0; d < 3; d++ {
			b = binary.BigEndian.AppendUint32(b, uint32(r.Src[d]))
		}
		for d := 0; d < 3; d++ {
			b = binary.BigEndian.AppendUint32(b, uint32(r.Dst[d]))
		}
		b = binary.BigEndian.AppendUint32(b, uint32(len(r.Hops)))
		for _, h := range r.Hops {
			for d := 0; d < 3; d++ {
				b = binary.BigEndian.AppendUint32(b, uint32(h[d]))
			}
		}
	}
	return b
}

// routeLess orders routes by (Src, Dst) lexicographic.
func routeLess(a, b Route) bool {
	if a.Src != b.Src {
		return coordLess(a.Src, b.Src)
	}
	return coordLess(a.Dst, b.Dst)
}

// UnmarshalRouteTable decodes a canonical route-table wire image. Beyond
// framing, it validates the semantic invariants: coordinates in bounds,
// routes sorted strictly by (src, dst), and every path a chain of unit
// torus steps from src to dst.
func UnmarshalRouteTable(b []byte) (*RouteTable, error) {
	if len(b) < 4 || [4]byte(b[:4]) != routeTableMagic {
		return nil, errors.New("torus: bad route-table magic")
	}
	r := &planReader{b: b, off: 4}
	rt := &RouteTable{}
	for d := 0; d < 3; d++ {
		v := r.u32()
		if r.err == nil && (v < 1 || v >= maxCoordVal) {
			return nil, errors.New("torus: route-table dims out of range")
		}
		rt.Dims[d] = int(v)
	}
	rt.Epoch = r.u32()
	nr := r.u32()
	if r.err == nil && nr > maxPlanEntries {
		return nil, fmt.Errorf("torus: route table claims %d routes", nr)
	}
	inBounds := func(c Coord) bool {
		for d := 0; d < 3; d++ {
			if c[d] < 0 || c[d] >= max1(rt.Dims[d]) {
				return false
			}
		}
		return true
	}
	for i := uint32(0); i < nr && r.err == nil; i++ {
		rte := Route{Src: r.coord(), Dst: r.coord()}
		nh := r.u32()
		if r.err != nil {
			break
		}
		if nh < 1 || nh > maxPlanEntries {
			return nil, errors.New("torus: route hop count out of range")
		}
		for h := uint32(0); h < nh && r.err == nil; h++ {
			rte.Hops = append(rte.Hops, r.coord())
		}
		if r.err != nil {
			break
		}
		if !inBounds(rte.Src) || !inBounds(rte.Dst) || rte.Src == rte.Dst {
			return nil, errors.New("torus: route endpoints invalid")
		}
		cur := rte.Src
		for _, h := range rte.Hops {
			if !inBounds(h) || !unitStep(cur, h, rt.Dims) {
				return nil, errors.New("torus: route hop is not a unit torus step")
			}
			cur = h
		}
		if cur != rte.Dst {
			return nil, errors.New("torus: route does not end at its destination")
		}
		if n := len(rt.Routes); n > 0 && !routeLess(rt.Routes[n-1], rte) {
			return nil, errors.New("torus: routes not in canonical order")
		}
		rt.Routes = append(rt.Routes, rte)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(b) {
		return nil, errors.New("torus: trailing bytes after route table")
	}
	return rt, nil
}

// unitStep reports whether b is exactly one torus hop from a.
func unitStep(a, b Coord, dims Coord) bool {
	diff := -1
	for d := 0; d < 3; d++ {
		if a[d] == b[d] {
			continue
		}
		if diff >= 0 || dims[d] <= 1 {
			return false
		}
		n := dims[d]
		if b[d] != (a[d]+1)%n && b[d] != (a[d]-1+n)%n {
			return false
		}
		diff = d
	}
	return diff >= 0
}

// ---- armed fault state ----

// End-to-end reliable-delivery parameters.
const (
	// maxE2ERetries bounds retransmit attempts per transfer.
	maxE2ERetries = 5
	// e2eBackoff is the base retransmit delay, doubling per attempt.
	e2eBackoff = sim.Cycles(2_000)
)

// DefaultE2ERecvTimeout is how long an armed receiver waits for expected
// traffic before surfacing a DeliveryError: generous against any healthy
// wait in our workloads, far below the run limits a silent hang would eat.
var DefaultE2ERecvTimeout = sim.FromSeconds(0.05)

type faultState struct {
	resilient   bool
	onNodeDead  func(Coord)
	recvTimeout sim.Cycles

	deadLinks map[linkKey]sim.Cycles // death cycle per dead directed link
	deadNodes map[Coord]sim.Cycles
	epoch     uint32
	routes    *RouteTable
	paths     map[[2]Coord][]linkKey // resilient next-path cache, rebuilt per epoch
}

// ArmFaults arms the hard-fault layer: the plan's deaths are scheduled as
// engine events, the route table is built, and (with resilient true)
// transfers detour around dead links and retransmit lost deliveries.
// With resilient false routing stays static dimension-ordered and lost
// packets stay lost — the degrade experiment's baseline. onNodeDead (may
// be nil) runs at each node death, after the RAS event is logged.
func (n *Network) ArmFaults(plan *FaultPlan, resilient bool, onNodeDead func(Coord)) {
	if n.faults != nil {
		panic("torus: hard faults armed twice")
	}
	f := &faultState{
		resilient:   resilient,
		onNodeDead:  onNodeDead,
		recvTimeout: DefaultE2ERecvTimeout,
		deadLinks:   make(map[linkKey]sim.Cycles),
		deadNodes:   make(map[Coord]sim.Cycles),
	}
	n.faults = f
	f.recompute(n)
	for _, lf := range plan.Links {
		k := linkKey{lf.C, lf.Dim, lf.Pos}
		n.eng.At(lf.At, func() { n.killLink(k) })
	}
	for _, nf := range plan.Nodes {
		c := nf.C
		n.eng.At(nf.At, func() { n.killNode(c) })
	}
}

// FaultsArmed reports whether the hard-fault layer is active.
func (n *Network) FaultsArmed() bool { return n.faults != nil }

// SetE2ERecvTimeout overrides the armed receiver timeout (tests).
func (n *Network) SetE2ERecvTimeout(d sim.Cycles) {
	if n.faults != nil {
		n.faults.recvTimeout = d
	}
}

// RouteEpoch returns the current route-table epoch (0 when unarmed).
func (n *Network) RouteEpoch() uint32 {
	if n.faults == nil {
		return 0
	}
	return n.faults.epoch
}

// Routes returns the current route table (nil when unarmed).
func (n *Network) Routes() *RouteTable {
	if n.faults == nil {
		return nil
	}
	return n.faults.routes
}

// DeadLinks counts directed links currently dead (node deaths included).
func (n *Network) DeadLinks() int {
	if n.faults == nil {
		return 0
	}
	return len(n.faults.deadLinks)
}

func (f *faultState) linkAlive(k linkKey) bool {
	if _, dead := f.deadLinks[k]; dead {
		return false
	}
	return true
}

func (f *faultState) nodeAlive(c Coord) bool {
	_, dead := f.deadNodes[c]
	return !dead
}

// recompute rebuilds the route table and path cache — the deterministic
// per-failure recomputation the paper's fault-region routing requires.
func (f *faultState) recompute(n *Network) {
	f.epoch++
	f.routes = BuildRouteTable(n.cfg.Dims, f.epoch, f.linkAlive, f.nodeAlive)
	f.paths = make(map[[2]Coord][]linkKey, len(f.routes.Routes))
	for _, r := range f.routes.Routes {
		f.paths[[2]Coord{r.Src, r.Dst}] = coordsToLinks(r.Src, r.Hops, n.cfg.Dims, f.linkAlive)
	}
}

// coordsToLinks converts a coordinate path into the directed links it
// crosses. On a size-2 dimension both wires connect the same coordinate
// pair, so the coordinate hop alone cannot name the wire; alive (may be
// nil) resolves the ambiguity toward a live link, matching the wire the
// route BFS actually traversed.
func coordsToLinks(src Coord, hops []Coord, dims Coord, alive func(linkKey) bool) []linkKey {
	out := make([]linkKey, 0, len(hops))
	cur := src
	for _, h := range hops {
		for d := 0; d < 3; d++ {
			if cur[d] == h[d] {
				continue
			}
			pos := h[d] == (cur[d]+1)%dims[d]
			if dims[d] == 2 && alive != nil && !alive(linkKey{cur, d, pos}) {
				pos = !pos
			}
			out = append(out, linkKey{cur, d, pos})
			break
		}
		cur = h
	}
	return out
}

// killLink marks one directed link dead: RAS-logged against the owning
// node, counted in its UPC unit, and the route table recomputed.
func (n *Network) killLink(k linkKey) {
	f := n.faults
	if _, dead := f.deadLinks[k]; dead {
		return
	}
	f.deadLinks[k] = n.eng.Now()
	dir := "-"
	if k.pos {
		dir = "+"
	}
	if ifc, ok := n.ifcs[k.c]; ok {
		ifc.chip.UPC.Inc(upc.ChipScope, upc.TorusLinkDead)
		if ifc.chip.Faults != nil {
			ifc.chip.Faults.Report(ras.LinkFail, "torus",
				fmt.Sprintf("directed link %v dim %d%s died", k.c, k.dim, dir))
		}
	}
	f.recompute(n)
}

// killNode marks a whole interface dead: every link it owns dies with it,
// the event is RAS-logged, blocked receivers are woken so they surface
// errors instead of sleeping forever, and onNodeDead runs last (the
// machine layer uses it to kill the job partition-wide).
func (n *Network) killNode(c Coord) {
	f := n.faults
	if _, dead := f.deadNodes[c]; dead {
		return
	}
	now := n.eng.Now()
	f.deadNodes[c] = now
	ifc := n.ifcs[c]
	for d := 0; d < 3; d++ {
		if n.cfg.Dims[d] <= 1 {
			continue
		}
		for _, pos := range [2]bool{true, false} {
			k := linkKey{c, d, pos}
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
		if ifc.chip.Faults != nil {
			ifc.chip.Faults.Report(ras.NodeFail, "torus",
				fmt.Sprintf("node %v torus interface died with all its links", c))
		}
	}
	f.recompute(n)
	if ifc != nil {
		for _, w := range ifc.waiters {
			w.Wake()
		}
	}
	if f.onNodeDead != nil {
		f.onNodeDead(c)
	}
}

// ValidateRoutable verifies every pair of live attached interfaces can
// still reach each other over surviving links — the boot-time partition
// wiring validation. Returns an error wrapping ErrUnroutable naming the
// first unreachable pair.
func (n *Network) ValidateRoutable() error {
	f := n.faults
	if f == nil {
		return nil
	}
	coords := make([]Coord, 0, len(n.ifcs))
	for c := range n.ifcs {
		coords = append(coords, c)
	}
	sort.Slice(coords, func(i, j int) bool { return coordLess(coords[i], coords[j]) })
	for _, a := range coords {
		if !f.nodeAlive(a) {
			continue
		}
		for _, b := range coords {
			if a == b || !f.nodeAlive(b) {
				continue
			}
			if _, ok := f.paths[[2]Coord{a, b}]; !ok {
				return fmt.Errorf("torus: partition wiring %v -> %v: %w", a, b, ErrUnroutable)
			}
		}
	}
	return nil
}

// ValidatePlanRoutable verifies that even after every death in plan has
// landed, the surviving attached interfaces can all still reach each
// other. This is the boot-time partition wiring validation: a seeded
// fault schedule is part of the partition's configuration, and a
// topology it will disconnect must fail fast at boot instead of
// stranding a job mid-run.
func (n *Network) ValidatePlanRoutable(plan *FaultPlan) error {
	deadL := make(map[linkKey]bool, len(plan.Links))
	deadN := make(map[Coord]bool, len(plan.Nodes))
	for _, lf := range plan.Links {
		deadL[linkKey{lf.C, lf.Dim, lf.Pos}] = true
	}
	for _, nf := range plan.Nodes {
		deadN[nf.C] = true
	}
	rt := BuildRouteTable(n.cfg.Dims, 0,
		func(k linkKey) bool { return !deadL[k] },
		func(c Coord) bool { return !deadN[c] })
	ok := make(map[[2]Coord]bool, len(rt.Routes))
	for _, r := range rt.Routes {
		ok[[2]Coord{r.Src, r.Dst}] = true
	}
	coords := make([]Coord, 0, len(n.ifcs))
	for c := range n.ifcs {
		if !deadN[c] {
			coords = append(coords, c)
		}
	}
	sort.Slice(coords, func(i, j int) bool { return coordLess(coords[i], coords[j]) })
	for _, a := range coords {
		for _, b := range coords {
			if a == b {
				continue
			}
			if !ok[[2]Coord{a, b}] {
				return fmt.Errorf("torus: partition wiring %v -> %v after planned faults: %w", a, b, ErrUnroutable)
			}
		}
	}
	return nil
}

// legacyPath is the static dimension-ordered minimal route, dead links
// ignored — what a torus without fault-region routing injects into. Used
// by the resilience-off arm so its losses are the unmitigated baseline.
func legacyPath(a, b Coord, dims Coord) []linkKey {
	var out []linkKey
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
			out = append(out, linkKey{cur, d, pos})
			cur = step(cur, d, pos, dims)
		}
	}
	return out
}

// path returns the links a transfer a→b crosses under the current fault
// state: the recomputed detour route when resilient, the static
// dimension-ordered route when not. nil means unroutable (resilient only).
func (f *faultState) path(a, b Coord, dims Coord) []linkKey {
	if !f.resilient {
		return legacyPath(a, b, dims)
	}
	return f.paths[[2]Coord{a, b}]
}

// lost reports whether a transfer over path, arriving at done, crossed a
// link (or reached a destination) that died before the arrival.
func (f *faultState) lost(path []linkKey, dst Coord, done sim.Cycles) bool {
	for _, k := range path {
		if at, dead := f.deadLinks[k]; dead && at < done {
			return true
		}
	}
	if at, dead := f.deadNodes[dst]; dead && at < done {
		return true
	}
	return false
}

// routedDone is transferDone for an armed network: the route comes from
// the fault state, detour links are reserved for contention and the
// extra hops charged at HopLatency. Returns the tail-arrival time, the
// links crossed (for in-flight loss checks) and the extra hop count.
func (n *Network) routedDone(a, b Coord, bytes int) (done sim.Cycles, path []linkKey, extraHops int, err error) {
	now := n.eng.Now()
	f := n.faults
	if a == b {
		return now, nil, 0, nil
	}
	path = f.path(a, b, n.cfg.Dims)
	if path == nil {
		return 0, nil, 0, &DeliveryError{From: a, To: b, Unroutable: true, Reason: "no surviving route"}
	}
	min := n.Hops(a, b)
	L := len(path)
	tail := n.reserve(path[0], bytes, now)
	if L > min {
		// Detouring: the extra wires are real contended links, charged like
		// any other reservation (cut-through overlapped).
		for _, k := range path[1 : L-1] {
			tail = n.reserve(k, bytes, tail-reserveOverlap(bytes, n.cfg))
		}
		extraHops = L - min
	}
	if L > 1 {
		// Reception port at b, mirroring the legacy model: keyed as b's
		// reverse direction of the final hop.
		last := path[L-1]
		tail = n.reserve(linkKey{b, last.dim, !last.pos}, bytes, tail-reserveOverlap(bytes, n.cfg))
	}
	return tail + sim.Cycles(L)*n.cfg.HopLatency, path, extraHops, nil
}

// sendArmed drives one end-to-end reliable transfer on an armed network:
// sequence the attempt, route it, detect in-flight loss at the would-be
// arrival, retransmit with exponential backoff over a freshly recomputed
// route, and surface a typed DeliveryError when delivery is impossible.
// complete runs exactly once — at the arrival instant with nil, or at
// abandonment with the error. extraCost is per-attempt injection overhead
// (DMA descriptors). Returns the first attempt's arrival estimate.
func (i *Interface) sendArmed(dst Coord, bytes int, extraCost sim.Cycles, complete func(error)) sim.Cycles {
	f := i.net.faults
	u := i.chip.UPC
	first := sim.Cycles(0)
	var attempt func(try int)
	attempt = func(try int) {
		if !f.nodeAlive(i.coord) {
			u.Inc(upc.ChipScope, upc.TorusE2ETimeout)
			complete(&DeliveryError{From: i.coord, To: dst, Retries: try, Reason: "local node dead"})
			return
		}
		done, path, extra, err := i.net.routedDone(i.coord, dst, bytes)
		if err != nil {
			u.Inc(upc.ChipScope, upc.TorusE2ETimeout)
			if de, ok := err.(*DeliveryError); ok {
				de.Retries = try
			}
			complete(err)
			return
		}
		if extra > 0 {
			u.Add(upc.ChipScope, upc.TorusRouteDetour, uint64(extra))
		}
		if pen := i.retransPenalty(bytes); pen > 0 {
			// CRC retransmits re-serialize on the injection wire: charge the
			// link reservation too, not just the arrival.
			if len(path) > 0 {
				i.net.links[path[0]] += pen
			}
			done += pen
		}
		arrival := done + extraCost + i.net.cfg.RecvOverhead
		if try == 0 {
			first = arrival
		}
		i.net.eng.At(arrival, func() {
			if !f.lost(path, dst, arrival) {
				complete(nil)
				return
			}
			if f.resilient && try < maxE2ERetries {
				u.Inc(upc.ChipScope, upc.TorusE2ERetry)
				i.net.eng.After(e2eBackoff<<uint(try), func() { attempt(try + 1) })
				return
			}
			u.Inc(upc.ChipScope, upc.TorusE2ETimeout)
			complete(&DeliveryError{From: i.coord, To: dst, Retries: try, Reason: "delivery lost on dead path"})
		})
	}
	attempt(0)
	return first
}
