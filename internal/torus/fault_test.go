package torus

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"bgcnk/internal/hw"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// propDims is the asymmetric-dimension battery for the routing property
// tests, including degenerate dims <= 1.
var propDims = []Coord{
	{8, 1, 1}, {5, 3, 1}, {4, 4, 2}, {1, 1, 7}, {2, 2, 2}, {3, 1, 4}, {1, 1, 1},
}

func TestHopsFirstHopProperties(t *testing.T) {
	for _, dims := range propDims {
		eng := sim.NewEngine()
		net := New(eng, DefaultConfig(dims))
		coords := EnumCoords(dims)
		for _, a := range coords {
			for _, b := range coords {
				h := net.Hops(a, b)
				if hb := net.Hops(b, a); hb != h {
					t.Fatalf("dims %v: Hops(%v,%v)=%d but Hops(%v,%v)=%d", dims, a, b, h, b, a, hb)
				}
				if (h == 0) != (a == b) {
					t.Fatalf("dims %v: Hops(%v,%v)=%d", dims, a, b, h)
				}
				// Greedy walk by each step's first dimension-ordered link
				// must reach b in exactly Hops steps: wraparound and
				// tie-breaking must never lengthen the route.
				cur := a
				for steps := 0; cur != b; steps++ {
					if steps > h {
						t.Fatalf("dims %v: first-hop walk %v->%v exceeded %d hops", dims, a, b, h)
					}
					k := dimOrderRoute(cur, b, dims)[0]
					if from := coordOf(k.node(), dims); from != cur {
						t.Fatalf("dims %v: first link of %v->%v leaves %v", dims, cur, b, from)
					}
					cur = step(cur, k.dim(), k.pos(), dims)
				}
			}
		}
	}
}

func TestFirstHopTieBreaksForward(t *testing.T) {
	dims := Coord{4, 6, 1}
	first := func(a, b Coord) link { return dimOrderRoute(a, b, dims)[0] }
	// Equal forward/backward distance (4/2=2 each way): forward wins.
	if k := first(Coord{0, 0, 0}, Coord{2, 0, 0}); k.dim() != 0 || !k.pos() {
		t.Fatalf("tie on dim 0: got dim %d pos %v, want 0/forward", k.dim(), k.pos())
	}
	if k := first(Coord{1, 1, 0}, Coord{1, 4, 0}); k.dim() != 1 || !k.pos() {
		t.Fatalf("tie on dim 1: got dim %d pos %v, want 1/forward", k.dim(), k.pos())
	}
	// Strictly shorter backward must win over the tie-break.
	if k := first(Coord{0, 1, 0}, Coord{0, 5, 0}); k.dim() != 1 || k.pos() {
		t.Fatalf("shorter backward: got dim %d pos %v, want 1/backward", k.dim(), k.pos())
	}
}

func TestLegacyPathMatchesHops(t *testing.T) {
	// The static dimension-ordered route (what a torus without
	// fault-region routing injects into) is always minimal.
	for _, dims := range propDims {
		eng := sim.NewEngine()
		net := New(eng, DefaultConfig(dims))
		for _, a := range EnumCoords(dims) {
			for _, b := range EnumCoords(dims) {
				if got, want := len(dimOrderRoute(a, b, dims)), net.Hops(a, b); got != want {
					t.Fatalf("dims %v: dimOrderRoute(%v,%v) length %d, want %d", dims, a, b, got, want)
				}
			}
		}
	}
}

func TestDrawFaultPlanDeterministic(t *testing.T) {
	dims := Coord{6, 1, 1}
	p1 := DrawFaultPlan(sim.NewRNG(42), dims, 4, 2, 1000)
	p2 := DrawFaultPlan(sim.NewRNG(42), dims, 4, 2, 1000)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("same seed drew different plans")
	}
	p3 := DrawFaultPlan(sim.NewRNG(43), dims, 4, 2, 1000)
	if reflect.DeepEqual(p1, p3) {
		t.Fatal("different seeds drew identical plans")
	}
	if len(p1.Links) != 4 || len(p1.Nodes) != 2 {
		t.Fatalf("drew %d links / %d nodes, want 4/2", len(p1.Links), len(p1.Nodes))
	}
	seen := map[LinkFault]bool{}
	for _, lf := range p1.Links {
		if lf.At < 1 || lf.At > 1000 {
			t.Fatalf("death cycle %d outside (0, 1000]", lf.At)
		}
		k := lf
		k.At = 0
		if seen[k] {
			t.Fatalf("link %v drawn twice", k)
		}
		seen[k] = true
	}
	// At least one node always survives even when asked to kill them all.
	pAll := DrawFaultPlan(sim.NewRNG(7), dims, 0, 100, 1000)
	if len(pAll.Nodes) != 5 {
		t.Fatalf("killed %d of 6 nodes, want 5 (one survivor)", len(pAll.Nodes))
	}
}

func TestHealthyRoutesAreDimensionOrdered(t *testing.T) {
	// With nothing dead, the fault-region search must pick exactly the
	// dimension-ordered route, link for link: this is what lets a healthy
	// network route without searching.
	healthy := &faultState{}
	for _, dims := range propDims {
		coords := EnumCoords(dims)
		for _, a := range coords {
			via := healthy.reach(nodeOf(a, dims), dims)
			for _, b := range coords {
				got, want := via.pathTo(nodeOf(a, dims), nodeOf(b, dims)), dimOrderRoute(a, b, dims)
				if !slices.Equal(got, want) {
					t.Fatalf("dims %v: healthy route %v->%v is %v, want %v", dims, a, b, got, want)
				}
			}
		}
	}
}

// armedRing builds an n-node 1-D torus with UPC-only chips, arms the
// given plan, and returns the network plus interfaces.
func armedRing(t *testing.T, n int, plan *FaultPlan, resilient bool) (*sim.Engine, *Network, []*Interface) {
	t.Helper()
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(Coord{n, 1, 1}))
	ifcs := make([]*Interface, n)
	for i := 0; i < n; i++ {
		ifcs[i] = net.Attach(hw.NewChip(hw.ChipConfig{ID: i}), Coord{i, 0, 0})
	}
	net.ArmFaults(plan, resilient, nil)
	return eng, net, ifcs
}

func TestRouteDetourAroundDeadLink(t *testing.T) {
	plan := &FaultPlan{Links: []LinkFault{{C: Coord{0, 0, 0}, Dim: 0, Pos: true, At: 1}}}
	eng, net, ifcs := armedRing(t, 4, plan, true)
	eng.At(5, func() {}) // advance past the kill
	eng.RunUntilIdle()
	if net.DeadLinks() != 1 {
		t.Fatalf("dead links = %d, want 1", net.DeadLinks())
	}
	var got Packet
	eng.Go("recv", func(c *sim.Coro) {
		p, err := ifcs[1].RecvMatchErr(c, func(p Packet) bool { return p.Tag == 7 })
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		got = p
	})
	eng.Go("send", func(c *sim.Coro) {
		ifcs[0].SendPacket(Coord{1, 0, 0}, 7, 1, []byte("detour"))
	})
	eng.RunUntilIdle()
	if string(got.Payload) != "detour" {
		t.Fatalf("packet not delivered around the dead link: %+v", got)
	}
	// 0->1 detours 0->3->2->1: two extra hops on the sender's unit.
	if d := ifcs[0].chip.UPC.Get(upc.ChipScope, upc.TorusRouteDetour); d != 2 {
		t.Fatalf("torus_route_detour = %d, want 2", d)
	}
	if dl := ifcs[0].chip.UPC.Get(upc.ChipScope, upc.TorusLinkDead); dl != 1 {
		t.Fatalf("torus_link_dead = %d, want 1", dl)
	}
}

func TestE2ERetryAfterMidFlightDeath(t *testing.T) {
	// The link dies at cycle 1, while the first attempt (injected at cycle
	// 0) is still in flight: the delivery is lost, retransmitted over the
	// recomputed detour route, and completes.
	plan := &FaultPlan{Links: []LinkFault{{C: Coord{0, 0, 0}, Dim: 0, Pos: true, At: 1}}}
	eng, _, ifcs := armedRing(t, 4, plan, true)
	var got Packet
	eng.Go("recv", func(c *sim.Coro) {
		p, err := ifcs[1].RecvMatchErr(c, func(p Packet) bool { return p.Tag == 9 })
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		got = p
	})
	eng.Go("send", func(c *sim.Coro) {
		ifcs[0].SendPacket(Coord{1, 0, 0}, 9, 1, []byte("retry"))
	})
	eng.RunUntilIdle()
	if string(got.Payload) != "retry" {
		t.Fatalf("lost delivery was not retransmitted: %+v", got)
	}
	if r := ifcs[0].chip.UPC.Get(upc.ChipScope, upc.TorusE2ERetry); r < 1 {
		t.Fatalf("torus_e2e_retry = %d, want >= 1", r)
	}
}

func TestResilienceOffDropsAndTimesOut(t *testing.T) {
	plan := &FaultPlan{Links: []LinkFault{{C: Coord{0, 0, 0}, Dim: 0, Pos: true, At: 1}}}
	eng, net, ifcs := armedRing(t, 4, plan, false)
	net.SetE2ERecvTimeout(500_000)
	var rerr error
	eng.Go("recv", func(c *sim.Coro) {
		_, rerr = ifcs[1].RecvMatchErr(c, func(p Packet) bool { return p.Tag == 3 })
	})
	eng.Go("send", func(c *sim.Coro) {
		ifcs[0].SendPacket(Coord{1, 0, 0}, 3, 1, []byte("lost"))
	})
	eng.RunUntilIdle()
	var de *DeliveryError
	if !errors.As(rerr, &de) {
		t.Fatalf("receiver error = %v, want *DeliveryError timeout", rerr)
	}
	if r := ifcs[0].chip.UPC.Get(upc.ChipScope, upc.TorusE2ERetry); r != 0 {
		t.Fatalf("resilience off retransmitted %d times", r)
	}
	if to := ifcs[0].chip.UPC.Get(upc.ChipScope, upc.TorusE2ETimeout); to < 1 {
		t.Fatalf("sender never abandoned the delivery")
	}
}

func TestUnroutableSurfacesTypedError(t *testing.T) {
	// Both directed links out of node 0 die: node 0 can send nowhere.
	plan := &FaultPlan{Links: []LinkFault{
		{C: Coord{0, 0, 0}, Dim: 0, Pos: false, At: 1},
		{C: Coord{0, 0, 0}, Dim: 0, Pos: true, At: 2},
	}}
	eng, net, ifcs := armedRing(t, 4, plan, true)
	eng.At(5, func() {})
	eng.RunUntilIdle()
	if err := net.ValidatePlanRoutable(plan); !errors.Is(err, ErrUnroutable) {
		t.Fatalf("ValidatePlanRoutable = %v, want ErrUnroutable", err)
	}
	var perr error
	done := false
	eng.Go("put", func(c *sim.Coro) {
		ifcs[0].chip.Mem.Write(0x1000, []byte("data"))
		ifcs[0].Put(Coord{2, 0, 0},
			[]PhysRange{{PA: 0x1000, Len: 4}}, []PhysRange{{PA: 0x2000, Len: 4}},
			func(err error) { done, perr = true, err })
	})
	eng.RunUntilIdle()
	if !done {
		t.Fatal("put completion never ran")
	}
	if !errors.Is(perr, ErrUnroutable) {
		t.Fatalf("put error = %v, want ErrUnroutable", perr)
	}
}

func TestNodeFailKillsInterface(t *testing.T) {
	plan := &FaultPlan{Nodes: []NodeFault{{C: Coord{2, 0, 0}, At: 1}}}
	var deadNode Coord
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(Coord{4, 1, 1}))
	ifcs := make([]*Interface, 4)
	for i := 0; i < 4; i++ {
		ifcs[i] = net.Attach(hw.NewChip(hw.ChipConfig{ID: i}), Coord{i, 0, 0})
	}
	net.ArmFaults(plan, true, func(c Coord) { deadNode = c })
	// A receiver parked on the dying node must be released with an error,
	// not left sleeping forever.
	var rerr error
	eng.Go("recv", func(c *sim.Coro) {
		_, rerr = ifcs[2].RecvMatchErr(c, func(p Packet) bool { return p.Tag == 1 })
	})
	eng.RunUntilIdle()
	if deadNode != (Coord{2, 0, 0}) {
		t.Fatalf("onNodeDead got %v", deadNode)
	}
	var de *DeliveryError
	if !errors.As(rerr, &de) || de.Reason != "local node dead" {
		t.Fatalf("receiver on dead node got %v", rerr)
	}
	// Both of the node's directed links died with it.
	if dl := ifcs[2].chip.UPC.Get(upc.ChipScope, upc.TorusLinkDead); dl != 2 {
		t.Fatalf("torus_link_dead = %d, want 2", dl)
	}
	// Senders targeting the dead node exhaust retries and surface the error.
	var serr error
	sdone := false
	eng.Go("send", func(c *sim.Coro) {
		ifcs[0].chip.Mem.Write(0x1000, []byte("dead"))
		ifcs[0].Put(Coord{2, 0, 0},
			[]PhysRange{{PA: 0x1000, Len: 4}}, []PhysRange{{PA: 0x2000, Len: 4}},
			func(err error) { sdone, serr = true, err })
	})
	eng.RunUntilIdle()
	if !sdone || serr == nil {
		t.Fatalf("put to dead node: done=%v err=%v, want delivery error", sdone, serr)
	}
	// The route search already excludes the dead node, so the sender
	// learns unroutability immediately rather than burning retransmits.
	if !errors.Is(serr, ErrUnroutable) {
		t.Fatalf("put error = %v, want ErrUnroutable", serr)
	}
	if to := ifcs[0].chip.UPC.Get(upc.ChipScope, upc.TorusE2ETimeout); to < 1 {
		t.Fatal("delivery never abandoned")
	}
}

func TestRasLogsHardFaults(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(Coord{3, 1, 1}))
	log := ras.NewLog()
	inj := ras.NewInjector(eng, log, ras.Plan{Seed: 1})
	for i := 0; i < 3; i++ {
		chip := hw.NewChip(hw.ChipConfig{ID: i})
		chip.AttachFaults(inj.Node(i))
		net.Attach(chip, Coord{i, 0, 0})
	}
	net.ArmFaults(&FaultPlan{
		Links: []LinkFault{{C: Coord{1, 0, 0}, Dim: 0, Pos: true, At: 10}},
		Nodes: []NodeFault{{C: Coord{2, 0, 0}, At: 20}},
	}, true, nil)
	eng.At(30, func() {})
	eng.RunUntilIdle()
	if n := log.Count(ras.LinkFail); n != 1 {
		t.Fatalf("link_fail events = %d, want 1", n)
	}
	if n := log.Count(ras.NodeFail); n != 1 {
		t.Fatalf("node_fail events = %d, want 1", n)
	}
}

func TestRequeueWakesWaiters(t *testing.T) {
	// A coro parked in RecvMatch must be woken when a peeked packet is
	// returned to the inbox — Requeue used to re-insert silently, leaving
	// the waiter asleep forever.
	eng, a, b := twoNodeNet(t)
	_ = a
	var got Packet
	eng.Go("recv", func(c *sim.Coro) {
		got = b.RecvMatch(c, func(p Packet) bool { return p.Tag == 5 })
	})
	eng.RunUntilIdle() // receiver is now parked with an empty inbox
	eng.Go("requeue", func(c *sim.Coro) {
		b.Requeue(Packet{From: Coord{0, 0, 0}, Tag: 5, Payload: []byte("peeked")})
	})
	eng.RunUntilIdle()
	if string(got.Payload) != "peeked" {
		t.Fatal("parked RecvMatch never woke for the requeued packet")
	}
}

func TestRetransExtendsLinkReservation(t *testing.T) {
	// With CRC corruption near certainty, back-to-back sends must see each
	// other's retransmission time on the wire: the second arrival is pushed
	// out by the first transfer's penalty, not just its clean serialization.
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(Coord{2, 1, 1}))
	log := ras.NewLog()
	inj := ras.NewInjector(eng, log, ras.Plan{Seed: 3, LinkCRC: 0.999})
	chips := make([]*hw.Chip, 2)
	ifcs := make([]*Interface, 2)
	for i := 0; i < 2; i++ {
		chips[i] = hw.NewChip(hw.ChipConfig{ID: i})
		chips[i].AttachFaults(inj.Node(i))
		ifcs[i] = net.Attach(chips[i], Coord{i, 0, 0})
	}
	var arrivals []sim.Cycles
	eng.Go("recv", func(c *sim.Coro) {
		for len(arrivals) < 2 {
			ifcs[1].RecvMatch(c, func(p Packet) bool { return p.Tag == 4 })
			arrivals = append(arrivals, eng.Now())
		}
	})
	eng.Go("send", func(c *sim.Coro) {
		ifcs[0].SendPacket(Coord{1, 0, 0}, 4, 1, make([]byte, PacketBytes))
		ifcs[0].SendPacket(Coord{1, 0, 0}, 4, 1, make([]byte, PacketBytes))
	})
	eng.RunUntilIdle()
	if len(arrivals) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(arrivals))
	}
	ser := sim.Cycles(float64(PacketBytes)*2.0) + 10
	// At LinkCRC 0.999 each transfer draws the full 8 bounded corruptions;
	// the inter-arrival gap must carry the first transfer's ~8 re-serializations,
	// which the old accounting (arrival-only penalty) dropped.
	if gap := arrivals[1] - arrivals[0]; gap < 9*ser {
		t.Fatalf("inter-arrival gap %d under-charges retransmission (want >= %d)", gap, 9*ser)
	}
}
