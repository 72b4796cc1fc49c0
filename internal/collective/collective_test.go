package collective

import (
	"testing"

	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

func TestSendRecvRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTree(eng, DefaultConfig(), []int{0, 1})
	var got Message
	eng.Go("ion", func(c *sim.Coro) {
		got = tr.ION().Recv(c)
	})
	eng.Go("cn0", func(c *sim.Coro) {
		tr.CN(0).Send(-1, 7, []byte("write request"))
	})
	eng.RunUntilIdle()
	if got.Tag != 7 || got.From != 0 || string(got.Data) != "write request" {
		t.Fatalf("got %+v", got)
	}
}

func TestLatencyCharged(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	tr := NewTree(eng, cfg, []int{0})
	var at sim.Cycles
	eng.Go("ion", func(c *sim.Coro) {
		tr.ION().Recv(c)
		at = c.Now()
	})
	eng.Go("cn", func(c *sim.Coro) {
		c.Sleep(100)
		tr.CN(0).Send(-1, 1, make([]byte, 100))
	})
	eng.RunUntilIdle()
	if at <= 100+cfg.Latency {
		t.Fatalf("message arrived too fast: %d", at)
	}
}

func TestTagRouting(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTree(eng, DefaultConfig(), []int{0})
	var order []uint32
	// Two waiters on the CN endpoint for different reply tags; replies
	// sent in reverse order must still route correctly.
	for _, tag := range []uint32{10, 20} {
		tag := tag
		eng.Go("waiter", func(c *sim.Coro) {
			m := tr.CN(0).RecvTag(c, tag)
			order = append(order, m.Tag)
		})
	}
	eng.Go("ion", func(c *sim.Coro) {
		tr.ION().Send(0, 20, []byte("b"))
		c.Sleep(10000)
		tr.ION().Send(0, 10, []byte("a"))
	})
	eng.RunUntilIdle()
	if len(order) != 2 || order[0] != 20 || order[1] != 10 {
		t.Fatalf("order = %v", order)
	}
}

func TestLinkSerializationContention(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	tr := NewTree(eng, cfg, []int{0})
	var arrivals []sim.Cycles
	eng.Go("ion", func(c *sim.Coro) {
		for i := 0; i < 2; i++ {
			tr.ION().Recv(c)
			arrivals = append(arrivals, c.Now())
		}
	})
	eng.Go("cn", func(c *sim.Coro) {
		// Two back-to-back large sends share the outgoing link.
		tr.CN(0).Send(-1, 1, make([]byte, 64<<10))
		tr.CN(0).Send(-1, 2, make([]byte, 64<<10))
	})
	eng.RunUntilIdle()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	gap := arrivals[1] - arrivals[0]
	ser := sim.Cycles(float64(64<<10) * cfg.CyclesPerByte)
	if gap < ser {
		t.Fatalf("second message did not queue behind the first: gap %d < ser %d", gap, ser)
	}
}

func TestBandwidthApproximation(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	tr := NewTree(eng, cfg, []int{0})
	const total = 1 << 20
	var done sim.Cycles
	eng.Go("ion", func(c *sim.Coro) {
		for got := 0; got < total; {
			m := tr.ION().Recv(c)
			got += len(m.Data)
		}
		done = c.Now()
	})
	eng.Go("cn", func(c *sim.Coro) {
		for sent := 0; sent < total; sent += 64 << 10 {
			tr.CN(0).Send(-1, 1, make([]byte, 64<<10))
		}
	})
	eng.RunUntilIdle()
	bw := float64(total) / done.Seconds() / 1e6 // MB/s
	if bw < 400 || bw > 900 {
		t.Fatalf("tree bandwidth %.0f MB/s, want ~850", bw)
	}
}

func TestStatsCounters(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTree(eng, DefaultConfig(), []int{3})
	u := new(upc.Set)
	tr.CN(3).AttachUPC(u)
	eng.Go("x", func(c *sim.Coro) {
		tr.CN(3).Send(-1, 1, make([]byte, 10))
	})
	eng.RunUntilIdle()
	if p, b := u.Get(upc.ChipScope, upc.CollPacket), u.Get(upc.ChipScope, upc.CollBytes); p != 1 || b != 10 {
		t.Fatalf("UPC counted %d packets, %d bytes; want 1, 10", p, b)
	}
	if tr.ION().Pending() != 1 {
		t.Fatal("inbox should hold the message")
	}
}

// TestDeliveredDataIsSendersSlice pins the tree's ownership contract:
// Send keeps the caller's slice, so the delivered Message.Data shares the
// sender's backing array in both directions.
func TestDeliveredDataIsSendersSlice(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTree(eng, DefaultConfig(), []int{0})
	up, down := []byte("request"), []byte("reply")
	var atION, atCN Message
	eng.Go("ion", func(c *sim.Coro) {
		atION = tr.ION().Recv(c)
		tr.ION().Send(0, atION.Tag, down)
	})
	eng.Go("cn", func(c *sim.Coro) {
		tr.CN(0).Send(-1, 1, up)
		atCN = tr.CN(0).RecvTag(c, 1)
	})
	eng.RunUntilIdle()
	for _, tc := range []struct {
		dir       string
		sent, got []byte
	}{{"CN->ION", up, atION.Data}, {"ION->CN", down, atCN.Data}} {
		if len(tc.got) != len(tc.sent) || &tc.got[0] != &tc.sent[0] {
			t.Errorf("%s: delivered %q is not the sender's slice %q", tc.dir, tc.got, tc.sent)
		}
	}
}
