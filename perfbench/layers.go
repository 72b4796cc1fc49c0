package main

import (
	"fmt"
	"runtime"
	"time"

	"bgcnk/internal/ciod"
	"bgcnk/internal/ckpt"
	"bgcnk/internal/collective"
	"bgcnk/internal/ctrlsys/wal"
	"bgcnk/internal/fs"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/sim"
	"bgcnk/internal/torus"
)

// Layer rows time one layer's public operation in isolation, so a change
// to that layer shows here even when a workload dilutes it. Each row runs
// a fixed batch rowBatches times and reports the median cost per op.

const rowBatches = 5

// row times batch(n) rowBatches times and returns the median ns per op.
// batch returns the host ns it spent on the timed ops, or -1 to have the
// whole call timed.
func row(n int, batch func(n int) int64) float64 {
	per := make([]float64, rowBatches)
	for i := range per {
		t0 := time.Now()
		ns := batch(n)
		if ns < 0 {
			ns = time.Since(t0).Nanoseconds()
		}
		per[i] = float64(ns) / float64(n)
	}
	return median(per)
}

// layerRows returns every layer row, keyed by metric name.
func layerRows() (map[string]metric, error) {
	rows := map[string]metric{}
	add := func(name, unit string, v float64) { rows[name] = metric{v, unit} }

	add("sim.schedule_ns", "ns", row(200_000, scheduleBatch()))
	add("sim.coro_switch_ns", "ns", row(20_000, coroSwitchBatch))

	var chips []*hw.Chip
	newChipNS := row(20, func(n int) int64 {
		chips = chips[:0]
		t0 := time.Now()
		for i := 0; i < n; i++ {
			chips = append(chips, hw.NewChip(hw.ChipConfig{ID: i}))
		}
		return time.Since(t0).Nanoseconds()
	})
	add("hw.new_chip_us", "us", newChipNS/1e3)
	add("hw.new_chip_kb", "KiB", allocPerOp(20, func() { hw.NewChip(hw.ChipConfig{}) })/1024)
	chip := chips[0]
	add("hw.chip_reset_us", "us", row(50, func(n int) int64 {
		for i := 0; i < n; i++ {
			chip.Reset()
		}
		return -1
	})/1e3)
	add("hw.cache_access_ns", "ns", row(1_000_000, cacheAccessBatch()))

	add("torus.send_recv_ns", "ns", row(20_000, torusPingPong))
	add("collective.send_recv_ns", "ns", row(20_000, collectivePingPong))

	add("ciod.marshal_ns", "ns", row(200_000, marshalBatch()))
	var callErr error
	callNS := row(20_000, func(n int) int64 {
		ns, err := ciodCalls(n)
		if err != nil && callErr == nil {
			callErr = err
		}
		return ns
	})
	if callErr != nil {
		return nil, callErr
	}
	add("ciod.call_ns", "ns", callNS)

	wr, rd, err := fsBatches()
	if err != nil {
		return nil, err
	}
	add("fs.write_ns", "ns", row(200_000, wr))
	add("fs.read_ns", "ns", row(200_000, rd))

	img := checkpointImage()
	blob := img.Marshal()
	add("ckpt.marshal_us", "us", row(2_000, func(n int) int64 {
		for i := 0; i < n; i++ {
			img.Marshal()
		}
		return -1
	})/1e3)
	var unmarshalErr error
	add("ckpt.unmarshal_us", "us", row(2_000, func(n int) int64 {
		for i := 0; i < n; i++ {
			if _, err := ckpt.Unmarshal(blob); err != nil && unmarshalErr == nil {
				unmarshalErr = err
			}
		}
		return -1
	})/1e3)
	if unmarshalErr != nil {
		return nil, fmt.Errorf("ckpt row: %w", unmarshalErr)
	}
	var walErr error
	add("wal.append_us", "us", row(5_000, func(n int) int64 {
		ns, err := walAppends(n)
		if err != nil && walErr == nil {
			walErr = err
		}
		return ns
	})/1e3)
	if walErr != nil {
		return nil, walErr
	}
	return rows, nil
}

// allocPerOp reports the bytes fn allocates per call.
func allocPerOp(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// scheduleBatch: At plus Step on an engine holding a standing queue of
// 1024 events spread over 100k cycles.
func scheduleBatch() func(n int) int64 {
	e := sim.NewEngine()
	rng := sim.NewRNG(1)
	nop := func() {}
	for i := 0; i < 1024; i++ {
		e.After(1+rng.Cycles(100_000), nop)
	}
	return func(n int) int64 {
		for i := 0; i < n; i++ {
			e.At(e.Now()+1+rng.Cycles(100_000), nop)
			e.Step()
		}
		return -1
	}
}

// coroSwitchBatch: one Wake/Park round trip of a parked coroutine.
func coroSwitchBatch(n int) int64 {
	e := sim.NewEngine()
	co := e.Go("ping", func(c *sim.Coro) {
		for {
			c.Park(sim.Forever)
		}
	})
	e.RunUntilIdle()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		co.Wake()
		e.RunUntilIdle()
	}
	ns := time.Since(t0).Nanoseconds()
	e.Shutdown()
	return ns
}

// cacheAccessBatch: CacheSim.Access over a seeded mix of 8-byte loads and
// stores spread across 8 MB, so every level of the hierarchy is hit.
func cacheAccessBatch() func(n int) int64 {
	cs := hw.NewCacheSim(hw.CoresPerChip)
	rng := sim.NewRNG(2)
	addrs := make([]hw.PAddr, 4096)
	for i := range addrs {
		addrs[i] = hw.PAddr(rng.Intn(8<<20)) &^ 7
	}
	now := sim.Cycles(0)
	return func(n int) int64 {
		for i := 0; i < n; i++ {
			d, _ := cs.Access(i&3, addrs[i&4095], 8, i&7 == 0, now)
			now += d
		}
		return -1
	}
}

// torusPingPong: SendPacket plus RecvMatch between two attached chips,
// as an 8-byte eager ping-pong; one op is one send and its receive.
func torusPingPong(n int) int64 {
	e := sim.NewEngine()
	net := torus.New(e, torus.DefaultConfig(torus.Coord{2, 1, 1}))
	a := net.Attach(hw.NewChip(hw.ChipConfig{ID: 0}), torus.Coord{0, 0, 0})
	b := net.Attach(hw.NewChip(hw.ChipConfig{ID: 1, Coord: [3]int{1, 0, 0}}), torus.Coord{1, 0, 0})
	payload := make([]byte, 8)
	any := func(torus.Packet) bool { return true }
	rounds := n / 2
	e.Go("a", func(c *sim.Coro) {
		for i := 0; i < rounds; i++ {
			a.SendPacket(b.Coord(), 1, 0, payload)
			a.RecvMatch(c, any)
		}
	})
	e.Go("b", func(c *sim.Coro) {
		for i := 0; i < rounds; i++ {
			b.RecvMatch(c, any)
			b.SendPacket(a.Coord(), 1, 0, payload)
		}
	})
	t0 := time.Now()
	e.RunUntilIdle()
	ns := time.Since(t0).Nanoseconds()
	e.Shutdown()
	return ns
}

// collectivePingPong: a 1 KiB Send plus its receive between a compute
// node and its I/O node on a one-CN tree; one op is one send and receive.
func collectivePingPong(n int) int64 {
	e := sim.NewEngine()
	tree := collective.NewTree(e, collective.DefaultConfig(), []int{0})
	cn, ionEP := tree.CN(0), tree.ION()
	data := make([]byte, 1024)
	rounds := n / 2
	e.Go("cn", func(c *sim.Coro) {
		for i := 0; i < rounds; i++ {
			cn.Send(0, 1, data)
			cn.RecvTag(c, 2)
		}
	})
	e.Go("ion", func(c *sim.Coro) {
		for i := 0; i < rounds; i++ {
			m := ionEP.RecvTag(c, 1)
			ionEP.Send(m.From, 2, data)
		}
	})
	t0 := time.Now()
	e.RunUntilIdle()
	ns := time.Since(t0).Nanoseconds()
	e.Shutdown()
	return ns
}

// marshalBatch: MarshalRequest plus UnmarshalRequest of a 1 KiB write.
func marshalBatch() func(n int) int64 {
	req := &ciod.Request{Op: ciod.OpWrite, PID: 1, TID: 1, FD: 3, Data: make([]byte, 1024)}
	return func(n int) int64 {
		for i := 0; i < n; i++ {
			if _, err := ciod.UnmarshalRequest(ciod.MarshalRequest(req)); err != nil {
				panic(err) // a request this package just encoded must decode
			}
		}
		return -1
	}
}

// ciodCalls: one shipped 1 KiB write round trip, Client.Call to a Server
// on a one-CN tree. Only the writes are timed; a seek back to the file's
// start every 64 writes bounds its size.
func ciodCalls(n int) (int64, error) {
	e := sim.NewEngine()
	tree := collective.NewTree(e, collective.DefaultConfig(), []int{0})
	f := fs.New()
	f.MustMkdirAll("/gpfs")
	ciod.NewServer(e, tree.ION(), f)
	cl := ciod.NewClient(tree.CN(0))
	data := make([]byte, 1024)
	var ns int64
	var err error
	e.Go("cn", func(c *sim.Coro) {
		setup := []*ciod.Request{
			{Op: ciod.OpProcStart, PID: 1},
			{Op: ciod.OpOpen, PID: 1, TID: 1, Path: "/gpfs/row", Flags: kernel.OCreat | kernel.ORdwr, Mode: 0644},
		}
		var fd int32
		for _, r := range setup {
			rep := cl.Call(c, r)
			if rep.Errno != kernel.OK {
				err = fmt.Errorf("ciod row: %s: %v", ciod.OpName(r.Op), rep.Errno)
				return
			}
			fd = int32(rep.Ret)
		}
		write := &ciod.Request{Op: ciod.OpWrite, PID: 1, TID: 1, FD: fd, Data: data}
		rewind := &ciod.Request{Op: ciod.OpLseek, PID: 1, TID: 1, FD: fd, Whence: kernel.SeekSet}
		for i := 0; i < n; i++ {
			if i%64 == 63 {
				if rep := cl.Call(c, rewind); rep.Errno != kernel.OK {
					err = fmt.Errorf("ciod row: lseek: %v", rep.Errno)
					return
				}
			}
			t0 := time.Now()
			rep := cl.Call(c, write)
			ns += time.Since(t0).Nanoseconds()
			if rep.Errno != kernel.OK {
				err = fmt.Errorf("ciod row: write: %v", rep.Errno)
				return
			}
		}
	})
	e.RunUntilIdle()
	e.Shutdown()
	return ns, err
}

// fsBatches: 1 KiB Write and Read through fs.Client on a 64 KiB file,
// seeking back to its start every 64 ops.
func fsBatches() (write, read func(n int) int64, err error) {
	f := fs.New()
	cl := fs.NewClient(f, fs.Root)
	fd, errno := cl.Open("/row", kernel.OCreat|kernel.ORdwr, 0644)
	if errno != kernel.OK {
		return nil, nil, fmt.Errorf("fs row: open: %v", errno)
	}
	buf := make([]byte, 1024)
	pass := func(op func(int, []byte) (int, kernel.Errno)) func(n int) int64 {
		return func(n int) int64 {
			for i := 0; i < n; i++ {
				if i%64 == 0 {
					cl.Lseek(fd, 0, kernel.SeekSet)
				}
				if m, errno := op(fd, buf); errno != kernel.OK || m != len(buf) {
					panic(fmt.Sprintf("fs row: %d bytes, errno %v", m, errno)) // the file is 64 KiB by construction
				}
			}
			return -1
		}
	}
	write = pass(cl.Write)
	write(64) // the read pass needs the whole 64 KiB in place
	return write, pass(cl.Read), nil
}

// checkpointImage is a CNK-shaped image of a 16-node partition: a few
// large static regions, four threads, a full counter block and two open
// files per node.
func checkpointImage() *ckpt.Image {
	rng := sim.NewRNG(3)
	img := &ckpt.Image{JobID: 1, Epoch: 2}
	for n := 0; n < 16; n++ {
		ns := ckpt.NodeState{Node: int32(n)}
		for i, name := range []string{"text", "data", "heap", "stack"} {
			base := uint64(0x0100_0000) << i
			ns.Regions = append(ns.Regions, ckpt.Region{VBase: base, Size: 1 << 20, Digest: ckpt.RegionDigest(name, base, 1<<20)})
		}
		for t := uint32(1); t <= 4; t++ {
			ns.Threads = append(ns.Threads, ckpt.RegState{TID: t, PC: 2, SP: 0x0d00_0000 - uint64(t)<<20})
		}
		for sl := range ns.Counters.Vals {
			for c := range ns.Counters.Vals[sl] {
				ns.Counters.Vals[sl][c] = rng.Uint64() >> 40
			}
		}
		ns.Files = []ckpt.FileState{{FD: 0, Path: "/dev/console"}, {FD: 3, Offset: 4096, Flags: 1, Path: "/gpfs/out.dat"}}
		img.Nodes = append(img.Nodes, ns)
	}
	return img
}

// walAppends: Journal.Append of a 256-byte body on a fresh journal, past
// several segment rotations.
func walAppends(n int) (int64, error) {
	j, err := wal.Create(fs.New(), "/ctrl/wal", 0)
	if err != nil {
		return 0, err
	}
	body := make([]byte, 256)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := j.Append(1, body); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Nanoseconds(), nil
}
