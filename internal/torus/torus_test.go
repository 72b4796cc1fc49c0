package torus

import (
	"fmt"
	"slices"
	"testing"

	"bgcnk/internal/hw"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

func twoNodeNet(t testing.TB) (*sim.Engine, *Interface, *Interface) {
	t.Helper()
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(Coord{2, 1, 1}))
	a := net.Attach(hw.NewChip(hw.ChipConfig{ID: 0}), Coord{0, 0, 0})
	b := net.Attach(hw.NewChip(hw.ChipConfig{ID: 1}), Coord{1, 0, 0})
	return eng, a, b
}

func TestHopsWraparound(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(Coord{8, 8, 8}))
	if h := net.Hops(Coord{0, 0, 0}, Coord{7, 0, 0}); h != 1 {
		t.Fatalf("wraparound hops = %d, want 1", h)
	}
	if h := net.Hops(Coord{0, 0, 0}, Coord{4, 4, 4}); h != 12 {
		t.Fatalf("hops = %d, want 12", h)
	}
	if h := net.Hops(Coord{1, 2, 3}, Coord{1, 2, 3}); h != 0 {
		t.Fatalf("self hops = %d", h)
	}
}

func TestActiveMessageDelivery(t *testing.T) {
	eng, a, b := twoNodeNet(t)
	var got Packet
	eng.Go("recv", func(c *sim.Coro) {
		got = b.RecvMatch(c, func(p Packet) bool { return p.Tag == 9 })
	})
	eng.Go("send", func(c *sim.Coro) {
		a.SendPacket(b.Coord(), 9, 1, []byte("eager"))
	})
	eng.RunUntilIdle()
	if string(got.Payload) != "eager" || got.From != a.Coord() || got.Kind != 1 {
		t.Fatalf("got %+v", got)
	}
}

func TestOversizePacketPanics(t *testing.T) {
	_, a, b := twoNodeNet(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.SendPacket(b.Coord(), 1, 0, make([]byte, PacketBytes+1))
}

func TestPutMovesBytes(t *testing.T) {
	eng, a, b := twoNodeNet(t)
	a.Chip().Mem.Write(0x1000, []byte("direct-put payload"))
	done := false
	eng.Go("put", func(c *sim.Coro) {
		a.Put(b.Coord(),
			[]PhysRange{{PA: 0x1000, Len: 18}},
			[]PhysRange{{PA: 0x8000, Len: 18}},
			func(error) { done = true })
	})
	eng.RunUntilIdle()
	if !done {
		t.Fatal("completion callback did not run")
	}
	buf := make([]byte, 18)
	b.Chip().Mem.Read(0x8000, buf)
	if string(buf) != "direct-put payload" {
		t.Fatalf("payload corrupted: %q", buf)
	}
}

func TestPutScatterGather(t *testing.T) {
	eng, a, b := twoNodeNet(t)
	a.Chip().Mem.Write(0x1000, []byte("AAAA"))
	a.Chip().Mem.Write(0x3000, []byte("BBBB"))
	eng.Go("put", func(c *sim.Coro) {
		a.Put(b.Coord(),
			[]PhysRange{{0x1000, 4}, {0x3000, 4}},
			[]PhysRange{{0x9000, 8}},
			nil)
	})
	eng.RunUntilIdle()
	buf := make([]byte, 8)
	b.Chip().Mem.Read(0x9000, buf)
	if string(buf) != "AAAABBBB" {
		t.Fatalf("gather: %q", buf)
	}
	if got := a.Chip().UPC.Get(upc.ChipScope, upc.DMADescriptor); got != 2 {
		t.Fatalf("descriptors = %d, want 2 (one per source range)", got)
	}
}

func TestPutSizeMismatchPanics(t *testing.T) {
	_, a, b := twoNodeNet(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Put(b.Coord(), []PhysRange{{0, 4}}, []PhysRange{{0, 8}}, nil)
}

func TestGetFetchesRemote(t *testing.T) {
	eng, a, b := twoNodeNet(t)
	b.Chip().Mem.Write(0x2000, []byte("remote data!"))
	var doneAt sim.Cycles
	eng.Go("get", func(c *sim.Coro) {
		a.Get(b.Coord(), []PhysRange{{0x2000, 12}}, []PhysRange{{0x7000, 12}},
			func(error) { doneAt = eng.Now() })
	})
	eng.RunUntilIdle()
	buf := make([]byte, 12)
	a.Chip().Mem.Read(0x7000, buf)
	if string(buf) != "remote data!" {
		t.Fatalf("get: %q", buf)
	}
	if doneAt == 0 {
		t.Fatal("completion missing")
	}
}

func TestGetCostsMoreThanPut(t *testing.T) {
	// A get is a request + a put, so its completion time must exceed a
	// same-size put's (Table I: DCMF Get 1.6us vs Put 0.9us).
	eng, a, b := twoNodeNet(t)
	b.Chip().Mem.Write(0x2000, make([]byte, 64))
	a.Chip().Mem.Write(0x2000, make([]byte, 64))
	var putDone, getDone sim.Cycles
	eng.Go("put", func(c *sim.Coro) {
		a.Put(b.Coord(), []PhysRange{{0x2000, 64}}, []PhysRange{{0x9000, 64}},
			func(error) { putDone = eng.Now() })
	})
	eng.RunUntilIdle()
	eng.Go("get", func(c *sim.Coro) {
		a.Get(b.Coord(), []PhysRange{{0x2000, 64}}, []PhysRange{{0xA000, 64}},
			func(error) { getDone = eng.Now() - putDone })
	})
	eng.RunUntilIdle()
	if getDone <= putDone {
		t.Fatalf("get (%d) should cost more than put (%d)", getDone, putDone)
	}
}

func TestDescriptorOverheadVisible(t *testing.T) {
	// The same 64KB transfer split into 16 descriptors (FWK 4KB pages)
	// must finish later than as a single descriptor (CNK contiguous).
	run := func(ranges int) sim.Cycles {
		eng, a, b := twoNodeNet(t)
		total := uint64(64 << 10)
		var src []PhysRange
		per := total / uint64(ranges)
		for r := 0; r < ranges; r++ {
			src = append(src, PhysRange{PA: hw.PAddr(uint64(r) * per), Len: per})
		}
		var done sim.Cycles
		eng.Go("put", func(c *sim.Coro) {
			a.Put(b.Coord(), src, []PhysRange{{0, total}}, func(error) { done = eng.Now() })
		})
		eng.RunUntilIdle()
		return done
	}
	one := run(1)
	sixteen := run(16)
	if sixteen <= one {
		t.Fatalf("scatter (%d) should cost more than contiguous (%d)", sixteen, one)
	}
}

func TestLinkContentionBetweenTransfers(t *testing.T) {
	eng, a, b := twoNodeNet(t)
	var t1, t2 sim.Cycles
	eng.Go("puts", func(c *sim.Coro) {
		a.Put(b.Coord(), []PhysRange{{0, 32 << 10}}, []PhysRange{{0x10000, 32 << 10}}, func(error) { t1 = eng.Now() })
		a.Put(b.Coord(), []PhysRange{{0, 32 << 10}}, []PhysRange{{0x20000, 32 << 10}}, func(error) { t2 = eng.Now() })
	})
	eng.RunUntilIdle()
	ser := sim.Cycles(float64(32<<10) * 2.0)
	if t2-t1 < ser/2 {
		t.Fatalf("transfers did not serialize on the link: %d vs %d", t1, t2)
	}
}

func TestBrokenTorusUnitPanics(t *testing.T) {
	_, a, b := twoNodeNet(t)
	a.Chip().SetUnitEnabled(hw.UnitTorus, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic using broken torus")
		}
	}()
	a.SendPacket(b.Coord(), 1, 0, nil)
}

func TestDuplicateAttachPanics(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(Coord{2, 1, 1}))
	net.Attach(hw.NewChip(hw.ChipConfig{ID: 0}), Coord{0, 0, 0})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.Attach(hw.NewChip(hw.ChipConfig{ID: 1}), Coord{0, 0, 0})
}

// TestCoordOutsideDimsPanics: a coordinate outside Dims names no node.
// Attach refuses it rather than give it another node's number ({0,2,0}
// on a 2x2x1 torus would land on {1,0,0}), and At refuses it as it
// refuses an unattached coordinate.
func TestCoordOutsideDimsPanics(t *testing.T) {
	net := New(sim.NewEngine(), DefaultConfig(Coord{2, 2, 1}))
	net.Attach(hw.NewChip(hw.ChipConfig{ID: 0}), Coord{1, 0, 0})
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	for _, c := range []Coord{{0, 2, 0}, {2, 0, 0}, {-1, 0, 0}, {0, 0, 1}} {
		mustPanic(fmt.Sprintf("Attach(%v)", c), func() { net.Attach(hw.NewChip(hw.ChipConfig{ID: 1}), c) })
		mustPanic(fmt.Sprintf("At(%v)", c), func() { net.At(c) })
	}
	mustPanic("At of an unattached coordinate", func() { net.At(Coord{0, 1, 0}) })
	if got := net.At(Coord{1, 0, 0}).Coord(); got != (Coord{1, 0, 0}) {
		t.Fatalf("At({1,0,0}) returned the interface at %v", got)
	}
}

// transferCosts is the arrival cycle of every transfer in costScript, in
// script order. It is a fixed reference for the torus cost model, taken
// from the model as it stood before the armed and unarmed send paths were
// merged (the unarmed one); an intended model change regenerates it.
var transferCosts = []sim.Cycles{
	1005,  // 0->1, 200 B, one hop
	11090, // 0->2, 200 B, two hops
	21005, // 0->1, first of two sharing a wire and 1's -x port
	21415, // 0->1, second: queued behind the first on both
	21005, // 2->1 at the same cycle, into 1's other port
	30100, // 2->2 self-send: no wire
	43707, // 0->1 put, 3 x 400 B descriptors
	51946, // 0 gets 300 B from 2: request out, put back
	61585, // 3->0, 200 B, with drawn CRC retransmits
	62405, // 0->3: its wire is 3->0's reception port, held for the retransmits
	64555, // 3->0 again: its own draws, behind the first on 3's wire
}

// costScript runs the fixed transfer script on a 4-node ring and returns
// each transfer's arrival cycle. Only chip 3 has a link-CRC fault source.
// armed arms a plan whose one death lands after the script ends.
func costScript(t *testing.T, armed bool) []sim.Cycles {
	t.Helper()
	eng := sim.NewEngine()
	defer eng.Shutdown()
	net := New(eng, DefaultConfig(Coord{4, 1, 1}))
	inj := ras.NewInjector(eng, ras.NewLog(), ras.Plan{Seed: 2, LinkCRC: 0.5})
	ifcs := make([]*Interface, 4)
	for i := range ifcs {
		chip := hw.NewChip(hw.ChipConfig{ID: i, Coord: [3]int{i, 0, 0}})
		if i == 3 {
			chip.AttachFaults(inj.Node(i))
		}
		ifcs[i] = net.Attach(chip, Coord{i, 0, 0})
	}
	const lateDeath = 1_000_000
	if armed {
		net.ArmFaults(&FaultPlan{Links: []LinkFault{{C: Coord{2, 0, 0}, Dim: 0, Pos: true, At: lateDeath}}}, true, nil)
	}
	got := make([]sim.Cycles, len(transferCosts))
	for _, ifc := range ifcs {
		eng.Go("recv", func(c *sim.Coro) {
			for {
				p := ifc.RecvMatch(c, func(Packet) bool { return true })
				got[p.Tag] = eng.Now()
			}
		})
	}
	pkt := make([]byte, 200)
	send := func(from, to int, tag uint32) { ifcs[from].SendPacket(Coord{to, 0, 0}, tag, 0, pkt) }
	eng.At(0, func() { send(0, 1, 0) })
	eng.At(10_000, func() { send(0, 2, 1) })
	eng.At(20_000, func() { send(0, 1, 2); send(0, 1, 3); send(2, 1, 4) })
	eng.At(30_000, func() { send(2, 2, 5) })
	eng.At(40_000, func() {
		ifcs[0].Put(Coord{1, 0, 0},
			[]PhysRange{{0x1000, 400}, {0x3000, 400}, {0x5000, 400}}, []PhysRange{{0x8000, 1200}},
			func(error) { got[6] = eng.Now() })
	})
	eng.At(50_000, func() {
		ifcs[0].Get(Coord{2, 0, 0}, []PhysRange{{0x2000, 300}}, []PhysRange{{0x9000, 300}},
			func(error) { got[7] = eng.Now() })
	})
	eng.At(60_000, func() { send(3, 0, 8); send(0, 3, 9); send(3, 0, 10) })
	eng.RunUntilIdle()
	if n := ifcs[3].chip.UPC.Get(upc.ChipScope, upc.LinkCRC); n == 0 {
		t.Fatal("chip 3 drew no CRC corruptions: the retransmit rows test nothing")
	}
	if armed && (net.DeadLinks() != 1 || eng.Now() != lateDeath) {
		t.Fatalf("armed plan: %d dead links at cycle %d, want 1 at %d", net.DeadLinks(), eng.Now(), lateDeath)
	}
	return got
}

func TestTransferCosts(t *testing.T) {
	// Arming hard faults must not reprice a healthy wire: until a death
	// lands, armed and unarmed networks deliver every transfer at the same
	// cycle.
	for _, armed := range []bool{false, true} {
		if got := costScript(t, armed); !slices.Equal(got, transferCosts) {
			t.Errorf("armed=%v: arrivals\n got %v\nwant %v", armed, got, transferCosts)
		}
	}
}

func TestSendPacketAllocs(t *testing.T) {
	// A healthy send copies no payload and allocates no route, closure
	// or transfer record.
	eng, a, b := twoNodeNet(t)
	payload := make([]byte, 8)
	anyPacket := func(Packet) bool { return true }
	send := func() {
		a.SendPacket(b.Coord(), 1, 0, payload)
		eng.RunUntilIdle()
		if _, ok := b.Poll(anyPacket); !ok {
			t.Fatal("packet not delivered")
		}
	}
	send() // warm the route cache, record free list and inbox
	if n := testing.AllocsPerRun(100, send); n > 1 {
		t.Fatalf("SendPacket plus delivery: %.1f allocs, want <= 1", n)
	}
}
