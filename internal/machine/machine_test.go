package machine

import (
	"testing"

	"bgcnk/internal/dcmf"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/sim"
	"bgcnk/internal/torus"
	"bgcnk/internal/upc"
)

func TestSingleNodeCNKApp(t *testing.T) {
	m, err := New(Config{Nodes: 1, Kind: KindCNK})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	ran := false
	err = m.Run(func(ctx kernel.Context, env *Env) {
		ctx.Compute(10_000)
		ran = true
	}, kernel.JobParams{}, 0)
	if err != nil || !ran {
		t.Fatalf("run: %v ran=%v", err, ran)
	}
}

func TestMemSizeBeyondCacheTagsRejected(t *testing.T) {
	m, err := New(Config{Nodes: 1, Kind: KindCNK, MemSize: hw.MaxMemSize + 1})
	if err == nil {
		m.Shutdown()
		t.Fatal("New accepted MemSize beyond hw.MaxMemSize")
	}
}

func TestMultiNodeRanksDistinct(t *testing.T) {
	m, err := New(Config{Nodes: 4, Kind: KindCNK})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	seen := map[int]bool{}
	err = m.Run(func(ctx kernel.Context, env *Env) {
		seen[env.Rank] = true
		if env.MPI == nil {
			t.Errorf("rank %d has no communicator", env.Rank)
		}
	}, kernel.JobParams{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("ranks: %v", seen)
	}
}

func TestFWKMachineBoots(t *testing.T) {
	m, err := New(Config{Nodes: 2, Kind: KindFWK, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	count := 0
	err = m.Run(func(ctx kernel.Context, env *Env) {
		ctx.Compute(1_000_000)
		count++
	}, kernel.JobParams{}, 0)
	if err != nil || count != 2 {
		t.Fatalf("%v count=%d", err, count)
	}
}

func TestMPIPingPong(t *testing.T) {
	m, err := New(Config{Nodes: 2, Kind: KindCNK})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	var rtt sim.Cycles
	err = m.Run(func(ctx kernel.Context, env *Env) {
		const tag = 7
		if env.Rank == 0 {
			start := ctx.Now()
			env.MPI.Send(ctx, 1, tag, []byte("ping"))
			data, from, errno := env.MPI.Recv(ctx, tag+1)
			if errno != kernel.OK || string(data) != "pong" || from != 1 {
				t.Errorf("recv: %v %q from %d", errno, data, from)
			}
			rtt = ctx.Now() - start
		} else {
			data, _, errno := env.MPI.Recv(ctx, tag)
			if errno != kernel.OK || string(data) != "ping" {
				t.Errorf("recv: %v %q", errno, data)
			}
			env.MPI.Send(ctx, 0, tag+1, []byte("pong"))
		}
	}, kernel.JobParams{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One-way MPI eager latency should be on the order of Table I's
	// 2.4us; the round trip therefore 3..8us.
	us := rtt.Micros() / 2
	if us < 1.0 || us > 6.0 {
		t.Fatalf("MPI eager one-way = %.2fus; expected Table I's ~2.4us regime", us)
	}
}

func TestMPIAllreduceCorrectAcrossSizes(t *testing.T) {
	for _, nodes := range []int{2, 4, 8} {
		m, err := New(Config{Nodes: nodes, Kind: KindCNK})
		if err != nil {
			t.Fatal(err)
		}
		sums := make([]float64, nodes)
		err = m.Run(func(ctx kernel.Context, env *Env) {
			v, errno := env.MPI.Allreduce(ctx, float64(env.Rank+1))
			if errno != kernel.OK {
				t.Errorf("allreduce: %v", errno)
			}
			sums[env.Rank] = v
		}, kernel.JobParams{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(nodes*(nodes+1)) / 2
		for r, s := range sums {
			if s != want {
				t.Fatalf("nodes=%d rank=%d sum=%v want %v", nodes, r, s, want)
			}
		}
		m.Shutdown()
	}
}

func TestMPIBarrierUsesGlobalNetwork(t *testing.T) {
	m, err := New(Config{Nodes: 4, Kind: KindCNK})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	var releases []sim.Cycles
	err = m.Run(func(ctx kernel.Context, env *Env) {
		ctx.Compute(sim.Cycles(1000 * (env.Rank + 1))) // staggered
		if errno := env.MPI.Barrier(ctx); errno != kernel.OK {
			t.Errorf("barrier: %v", errno)
		}
		releases = append(releases, ctx.Now())
	}, kernel.JobParams{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Bar.Barriers != 1 {
		t.Fatalf("hardware barrier fired %d times, want 1", m.Bar.Barriers)
	}
	for _, r := range releases[1:] {
		if r != releases[0] {
			t.Fatalf("ranks released at different cycles: %v", releases)
		}
	}
}

func TestDCMFPutAcrossNodes(t *testing.T) {
	m, err := New(Config{Nodes: 2, Kind: KindCNK})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	regions := make(chan interface{}, 1)
	_ = regions
	var landed string
	err = m.Run(func(ctx kernel.Context, env *Env) {
		base := m.HeapBase(ctx)
		if env.Rank == 1 {
			// Export a window, then wait for rank 0's put + flag message.
			reg, errno := env.Dev.Register(ctx, base, 4096)
			if errno != kernel.OK {
				t.Errorf("register: %v", errno)
				return
			}
			// Ship the region descriptor to rank 0 (16B per range).
			buf := make([]byte, 0, 16)
			for _, r := range reg.Ranges {
				var b [16]byte
				for i := 0; i < 8; i++ {
					b[i] = byte(uint64(r.PA) >> (56 - 8*i))
					b[8+i] = byte(r.Len >> (56 - 8*i))
				}
				buf = append(buf, b[:]...)
			}
			env.Dev.Send(ctx, 0, 99, buf)
			env.Dev.Recv(ctx, 100) // completion flag
			got := make([]byte, 11)
			ctx.Load(base, got)
			landed = string(got)
		} else {
			data, _, _ := env.Dev.Recv(ctx, 99)
			var remote struct {
				PA  uint64
				Len uint64
			}
			for i := 0; i < 8; i++ {
				remote.PA = remote.PA<<8 | uint64(data[i])
				remote.Len = remote.Len<<8 | uint64(data[8+i])
			}
			reg := remoteRegion(1, remote.PA, remote.Len)
			ctx.Store(base, []byte("put payload"))
			if errno := env.Dev.Put(ctx, reg, 0, base, 11); errno != kernel.OK {
				t.Errorf("put: %v", errno)
			}
			env.Dev.Send(ctx, 1, 100, []byte("done"))
		}
	}, kernel.JobParams{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if landed != "put payload" {
		t.Fatalf("remote memory holds %q", landed)
	}
}

func TestRendezvousLargeMessage(t *testing.T) {
	m, err := New(Config{Nodes: 2, Kind: KindCNK})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	const size = 256 << 10
	ok := false
	err = m.Run(func(ctx kernel.Context, env *Env) {
		base := m.HeapBase(ctx)
		if env.Rank == 0 {
			pattern := make([]byte, size)
			for i := range pattern {
				pattern[i] = byte(i * 7)
			}
			ctx.Store(base, pattern)
			if errno := env.Dev.SendRendezvous(ctx, 1, 42, base, size); errno != kernel.OK {
				t.Errorf("send: %v", errno)
			}
		} else {
			n, from, errno := env.Dev.RecvRendezvous(ctx, 42, base, size)
			if errno != kernel.OK || n != size || from != 0 {
				t.Errorf("recv: %v n=%d from=%d", errno, n, from)
				return
			}
			got := make([]byte, size)
			ctx.Load(base, got)
			for i := 0; i < size; i += 4097 {
				if got[i] != byte(i*7) {
					t.Errorf("payload corrupt at %d", i)
					return
				}
			}
			ok = true
		}
	}, kernel.JobParams{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("rendezvous payload not verified")
	}
}

func TestCNKDescriptorsFewerThanFWK(t *testing.T) {
	// The structural Fig 8 mechanism: the same rendezvous transfer needs
	// one descriptor under CNK's static map and many under FWK paging.
	descriptors := func(kind KernelKind) uint64 {
		m, err := New(Config{Nodes: 2, Kind: kind, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Shutdown()
		const size = 128 << 10
		err = m.Run(func(ctx kernel.Context, env *Env) {
			base := m.HeapBase(ctx)
			if env.Rank == 0 {
				ctx.Touch(base, size, true)
				env.Dev.SendRendezvous(ctx, 1, 5, base, size)
			} else {
				env.Dev.RecvRendezvous(ctx, 5, base, size)
			}
		}, kernel.JobParams{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return m.Chips[0].UPC.Get(upc.ChipScope, upc.DMADescriptor)
	}
	cnkDesc := descriptors(KindCNK)
	fwkDesc := descriptors(KindFWK)
	if cnkDesc >= fwkDesc {
		t.Fatalf("CNK used %d descriptors, FWK %d; contiguity advantage missing", cnkDesc, fwkDesc)
	}
	if fwkDesc < 16 {
		t.Fatalf("FWK used only %d descriptors for 32 pages", fwkDesc)
	}
}

// remoteRegion builds a MemRegion descriptor from wire data.
func remoteRegion(rank int, pa, length uint64) dcmf.MemRegion {
	return dcmf.MemRegion{Rank: rank, Size: length,
		Ranges: []torus.PhysRange{{PA: hw.PAddr(pa), Len: length}}}
}

func TestCoordinatedMultichipReset(t *testing.T) {
	// The multichip reproducible-reboot protocol (paper Section III):
	// both chips rendezvous on the global barrier network, reset with
	// DDR in self-refresh, and restart with clean barrier arbiters.
	m, err := New(Config{Nodes: 2, Kind: KindCNK, Reproducible: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	m.Chips[0].Mem.Write(0x200000, []byte("chip0 state"))
	m.Chips[1].Mem.Write(0x200000, []byte("chip1 state"))
	for i, k := range m.CNKs {
		i, k := i, k
		m.Eng.Go("lowcore", func(c *sim.Coro) {
			k.CoordinatedReset(c, m.Bar, i)
		})
	}
	m.Eng.RunUntilIdle()
	if m.Chips[0].Resets != 1 || m.Chips[1].Resets != 1 {
		t.Fatalf("resets: %d %d", m.Chips[0].Resets, m.Chips[1].Resets)
	}
	if m.Bar.ArbiterState() != 0 {
		t.Fatal("barrier arbiters must be left in a consistent (reset) state")
	}
	for i, k := range m.CNKs {
		if err := k.RestartReproducible(); err != nil {
			t.Fatalf("chip %d restart: %v", i, err)
		}
	}
	buf := make([]byte, 11)
	m.Chips[1].Mem.Read(0x200000, buf)
	if string(buf) != "chip1 state" {
		t.Fatalf("DDR lost across coordinated reset: %q", buf)
	}
}

func TestCombiningTreeAllreduceConstantTime(t *testing.T) {
	m, err := New(Config{Nodes: 8, Kind: KindCNK})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	var times []sim.Cycles
	err = m.Run(func(ctx kernel.Context, env *Env) {
		for i := 0; i < 20; i++ {
			s := ctx.Now()
			v, errno := env.MPI.Allreduce(ctx, 1)
			if errno != kernel.OK || v != 8 {
				t.Errorf("allreduce: %v %v", errno, v)
			}
			if env.Rank == 0 && i >= 2 {
				times = append(times, ctx.Now()-s)
			}
		}
	}, kernel.JobParams{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range times[1:] {
		if d != times[0] {
			t.Fatalf("combining-tree allreduce not constant-time: %v", times)
		}
	}
	if m.MergedCounters().Total(upc.CombineOp) == 0 {
		t.Fatal("hardware combine never used")
	}
}

func TestBcastBothPaths(t *testing.T) {
	for _, kind := range []KernelKind{KindCNK, KindFWK} {
		m, err := New(Config{Nodes: 4, Kind: kind, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, 4)
		err = m.Run(func(ctx kernel.Context, env *Env) {
			v, errno := env.MPI.Bcast(ctx, 2, 42.5)
			if errno != kernel.OK {
				t.Errorf("bcast: %v", errno)
			}
			got[env.Rank] = v
		}, kernel.JobParams{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for r, v := range got {
			if v != 42.5 {
				t.Fatalf("%v rank %d got %v", kind, r, v)
			}
		}
		m.Shutdown()
	}
}
