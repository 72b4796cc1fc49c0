package ion

import (
	"fmt"
	"testing"

	"bgcnk/internal/fs"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

func newTestNode(depth int) *Node {
	return NewNode(Config{QueueDepth: depth, CacheBlocks: 8}, nil)
}

// With more callers than credits, grants must rotate round-robin over
// waiting CNs regardless of arrival order, and the stall cycles must land
// on the stalling chips' counters.
func TestAcquireRoundRobinFairness(t *testing.T) {
	eng := sim.NewEngine()
	n := newTestNode(1)
	units := map[int]*upc.Set{}
	var order []int
	// CN 0 grabs the only credit and holds it; CNs 3, 1, 2 then queue in
	// that arrival order. RR order after lastGrant=0 must be 1, 2, 3.
	hold := eng.Go("holder", func(c *sim.Coro) {
		n.Acquire(c, 0, nil)
		c.Park(sim.Forever)
		n.Release()
	})
	for _, cn := range []int{3, 1, 2} {
		cn := cn
		units[cn] = new(upc.Set)
		eng.Go(fmt.Sprintf("cn%d", cn), func(c *sim.Coro) {
			c.Sleep(sim.Cycles(10 + cn)) // queue strictly after the holder
			n.Acquire(c, cn, units[cn])
			order = append(order, cn)
			c.Sleep(5)
			n.Release()
		})
	}
	eng.Go("release", func(c *sim.Coro) {
		c.Sleep(100)
		hold.Wake()
	})
	eng.RunUntilIdle()
	if want := []int{1, 2, 3}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("grant order %v, want %v", order, want)
	}
	for _, cn := range []int{1, 2, 3} {
		if got := units[cn].Get(upc.ChipScope, upc.IONStall); got != 1 {
			t.Errorf("cn%d stalls = %d, want 1", cn, got)
		}
		if units[cn].Get(upc.ChipScope, upc.IONStallCycles) == 0 {
			t.Errorf("cn%d stall cycles = 0, want > 0", cn)
		}
	}
	if st := n.Stats(); st.Admitted != 4 || st.MaxDepth != 1 || st.Depth != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// A free credit admits immediately with no stall counted.
func TestAcquireImmediateNoStall(t *testing.T) {
	eng := sim.NewEngine()
	n := newTestNode(4)
	u := new(upc.Set)
	eng.Go("cn", func(c *sim.Coro) {
		n.Acquire(c, 7, u)
		n.Release()
	})
	eng.RunUntilIdle()
	if got := u.Get(upc.ChipScope, upc.IONStall); got != 0 {
		t.Fatalf("stalls = %d, want 0", got)
	}
	if st := n.Stats(); st.Admitted != 1 {
		t.Fatalf("admitted = %d, want 1", st.Admitted)
	}
}

// The queue depth bounds concurrent holders; the high-water mark proves
// the bound was reached, never exceeded.
func TestQueueDepthBounds(t *testing.T) {
	eng := sim.NewEngine()
	n := newTestNode(3)
	live, maxLive := 0, 0
	for i := 0; i < 10; i++ {
		cn := i
		eng.Go(fmt.Sprintf("cn%d", cn), func(c *sim.Coro) {
			n.Acquire(c, cn, nil)
			live++
			if live > maxLive {
				maxLive = live
			}
			c.Sleep(50)
			live--
			n.Release()
		})
	}
	eng.RunUntilIdle()
	if maxLive != 3 {
		t.Fatalf("max concurrent holders = %d, want 3", maxLive)
	}
	if st := n.Stats(); st.MaxDepth != 3 || st.Admitted != 10 || st.Depth != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// Two identical runs produce identical grant orders and stall cycles —
// the determinism contract for the contended fan-in.
func TestAcquireDeterministic(t *testing.T) {
	run := func() (string, uint64) {
		eng := sim.NewEngine()
		n := newTestNode(2)
		u := new(upc.Set)
		var order []int
		for i := 0; i < 8; i++ {
			cn := i
			eng.Go(fmt.Sprintf("cn%d", cn), func(c *sim.Coro) {
				c.Sleep(sim.Cycles(cn % 3))
				n.Acquire(c, cn, u)
				order = append(order, cn)
				c.Sleep(sim.Cycles(20 + cn))
				n.Release()
			})
		}
		eng.RunUntilIdle()
		return fmt.Sprint(order), u.Get(upc.ChipScope, upc.IONStallCycles)
	}
	o1, s1 := run()
	o2, s2 := run()
	if o1 != o2 || s1 != s2 {
		t.Fatalf("runs diverged: (%s, %d) vs (%s, %d)", o1, s1, o2, s2)
	}
}

// Reset restores the full credit pool and zeroes counters and cache.
func TestReset(t *testing.T) {
	eng := sim.NewEngine()
	fsys := fs.New()
	fsys.MustMkdirAll("/d")
	if errno := fsys.WriteFile("/d/f", []byte("x"), 0644, fs.Root); errno != 0 {
		t.Fatal(errno)
	}
	st, _ := fsys.Stat("/", "/d/f", fs.Root)
	n := NewNode(Config{QueueDepth: 2, CacheBlocks: 4}, NewCache(fsys, 4))
	eng.Go("cn", func(c *sim.Coro) {
		n.Acquire(c, 0, nil)
		n.Cache().Write(c, st.Ino, 0, []byte("dirty"))
	})
	eng.RunUntilIdle()
	if n.Cache().DirtyBlocks() == 0 {
		t.Fatal("expected a dirty block before reset")
	}
	n.Reset(fsys)
	if n.Cache().DirtyBlocks() != 0 {
		t.Fatal("dirty blocks survived reset")
	}
	if st := n.Stats(); st.Admitted != 0 || st.Depth != 0 || st.MaxDepth != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
	// The credit pool is whole again.
	granted := 0
	eng2 := sim.NewEngine()
	eng2.Go("a", func(c *sim.Coro) { n.Acquire(c, 0, nil); granted++ })
	eng2.Go("b", func(c *sim.Coro) { n.Acquire(c, 1, nil); granted++ })
	eng2.RunUntilIdle()
	if granted != 2 {
		t.Fatalf("granted %d after reset, want 2", granted)
	}
}

// A waiter that Reset dropped is never admitted, whatever wakes it: a
// waiter takes a credit only once a Release has handed it one, not
// because it is no longer listed.
func TestResetDroppedWaiterNeverGranted(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Shutdown()
	n := newTestNode(1)
	admitted := map[string]bool{}
	acquire := func(name string, cn int) *sim.Coro {
		return eng.Go(name, func(c *sim.Coro) {
			n.Acquire(c, cn, nil)
			admitted[name] = true
		})
	}
	acquire("holder", 0)
	dropped := acquire("dropped", 1)
	eng.RunUntilIdle()
	if !admitted["holder"] || admitted["dropped"] {
		t.Fatalf("before reset: admitted %v, want the holder only", admitted)
	}
	n.Reset(nil)
	// The next job takes the credit and returns it, and something pokes
	// the dropped waiter.
	eng.Go("next", func(c *sim.Coro) {
		n.Acquire(c, 2, nil)
		admitted["next"] = true
		n.Release()
	})
	dropped.Wake()
	eng.RunUntilIdle()
	if !admitted["next"] || admitted["dropped"] {
		t.Fatalf("after reset: admitted %v, want the holder and the next job only", admitted)
	}
	if st := n.Stats(); st.Depth != 0 || st.Admitted != 1 {
		t.Fatalf("stats after reset = %+v, want one admit and no credit held", st)
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newTestNode(1).Release()
}
