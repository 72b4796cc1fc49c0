package machine

// Machine-level coverage of the I/O-node aggregation subsystem: arming
// Config.ION must leave every run bit-reproducible (the whole repo's
// contract), the reuse/reboot story must hold with a buffer cache in the
// I/O path, and the checkpoint seal must flush dirty blocks so images
// and file data stay mutually durable.

import (
	"bytes"
	"fmt"
	"testing"

	"bgcnk/internal/fs"
	"bgcnk/internal/ion"
	"bgcnk/internal/kernel"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// ionWorkload hammers the aggregated I/O path: every rank writes its own
// file in small chunks, reads part of it back before any flush trigger
// (POSIX semantics over unflushed cache blocks), fsyncs, appends more,
// and closes.
func ionWorkload(m *Machine) App {
	return func(ctx kernel.Context, env *Env) {
		base := m.HeapBase(ctx)
		ctx.Store(base, append([]byte(fmt.Sprintf("/gpfs/ion-rank%d", env.Node)), 0))
		fd, errno := ctx.Syscall(kernel.SysOpen, uint64(base), kernel.OCreat|kernel.ORdwr, 0644)
		if errno != kernel.OK {
			ctx.Syscall(kernel.SysExit, uint64(errno))
			return
		}
		chunk := bytes.Repeat([]byte{byte('a' + env.Node)}, 512)
		ctx.Store(base+4096, chunk)
		for i := 0; i < 8; i++ {
			ctx.Syscall(kernel.SysWrite, fd, uint64(base+4096), 512)
		}
		// Read back through the cache before anything flushed.
		ctx.Syscall(kernel.SysLseek, fd, 0, uint64(kernel.SeekSet))
		n, errno := ctx.Syscall(kernel.SysRead, fd, uint64(base+8192), 512)
		if errno != kernel.OK || n != 512 {
			ctx.Syscall(kernel.SysExit, uint64(kernel.EIO))
			return
		}
		ctx.Syscall(kernel.SysFsync, fd)
		ctx.Syscall(kernel.SysLseek, fd, 0, uint64(kernel.SeekEnd))
		for i := 0; i < 4; i++ {
			ctx.Syscall(kernel.SysWrite, fd, uint64(base+4096), 512)
		}
		ctx.Syscall(kernel.SysClose, fd)
	}
}

type ionRunFacts struct {
	hash     uint64
	now      sim.Cycles
	counters upc.Snapshot
	stats    string
	codes    string
}

func ionMachineRun(t *testing.T, kind KernelKind) ionRunFacts {
	t.Helper()
	m, err := New(Config{
		Nodes: 4, Kind: kind, Seed: 11, CNsPerION: 2,
		ION: &ion.Config{QueueDepth: 4, CacheBlocks: 16, CoalesceMax: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	if err := m.Run(ionWorkload(m), kernel.JobParams{}, 0); err != nil {
		t.Fatal(err)
	}
	for _, code := range m.ExitCodes() {
		if code != 0 {
			t.Fatalf("exit codes %v, want all zero", m.ExitCodes())
		}
	}
	// Every rank's file must be durable on its ION's backing fs after the
	// close-triggered flush, including the post-fsync appended tail.
	for n := 0; n < m.Cfg.Nodes; n++ {
		want := bytes.Repeat(bytes.Repeat([]byte{byte('a' + n)}, 512), 12)
		blob, errno := m.IONFS[n/m.Cfg.CNsPerION].ReadFile(fmt.Sprintf("/gpfs/ion-rank%d", n), fs.Root)
		if errno != kernel.OK {
			t.Fatalf("rank %d file not durable: errno %v", n, errno)
		}
		if !bytes.Equal(blob, want) {
			t.Fatalf("rank %d file: %d bytes, want %d identical chunks", n, len(blob), 12)
		}
	}
	return ionRunFacts{
		hash:     m.Eng.Trace().Hash(),
		now:      m.Eng.Now(),
		counters: m.MergedCounters(),
		stats:    fmt.Sprint(m.IONStats()),
		codes:    fmt.Sprint(m.ExitCodes()),
	}
}

// TestIONMachineDeterminism pins bit-identical behavior of the full
// aggregated path — shared uplink, ingress credits, coalescer, cache —
// for both kernels: two identically configured machines must agree on
// the trace hash, final cycle, merged UPC counters and per-ION stats.
func TestIONMachineDeterminism(t *testing.T) {
	for _, kind := range []KernelKind{KindCNK, KindFWK} {
		t.Run(kind.String(), func(t *testing.T) {
			a := ionMachineRun(t, kind)
			b := ionMachineRun(t, kind)
			if a.hash != b.hash {
				t.Errorf("trace hash differs: %x vs %x", a.hash, b.hash)
			}
			if a.now != b.now {
				t.Errorf("simulated time differs: %d vs %d", a.now, b.now)
			}
			if a.counters != b.counters {
				t.Errorf("counters differ:\n%s\nvs\n%s", a.counters.Text(), b.counters.Text())
			}
			if a.stats != b.stats {
				t.Errorf("ION stats differ:\n%s\nvs\n%s", a.stats, b.stats)
			}
			if a.codes != b.codes {
				t.Errorf("exit codes differ: %s vs %s", a.codes, b.codes)
			}
		})
	}
}

// TestIONAggregationObservable asserts the subsystem actually engages
// under CNK: calls are admitted through the credit gate, the cache sees
// traffic, and flush triggers leave nothing dirty.
func TestIONAggregationObservable(t *testing.T) {
	m, err := New(Config{
		Nodes: 4, Kind: KindCNK, CNsPerION: 2,
		ION: &ion.Config{QueueDepth: 1, CacheBlocks: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	if err := m.Run(ionWorkload(m), kernel.JobParams{}, 0); err != nil {
		t.Fatal(err)
	}
	stats := m.IONStats()
	if len(stats) != 2 {
		t.Fatalf("IONStats has %d entries, want 2 trees", len(stats))
	}
	for i, s := range stats {
		if s.Admitted == 0 {
			t.Errorf("ION %d admitted nothing through the credit gate", i)
		}
		if s.CacheHits == 0 {
			t.Errorf("ION %d cache saw no hits despite rereads", i)
		}
		if s.Flushes == 0 {
			t.Errorf("ION %d never flushed despite fsync+close", i)
		}
		if s.Depth != 0 {
			t.Errorf("ION %d still holds %d credits after the job", i, s.Depth)
		}
		if d := m.IONs[i].Cache().DirtyBlocks(); d != 0 {
			t.Errorf("ION %d has %d dirty blocks after close flush", i, d)
		}
	}
	// One credit shared by 2 CNs issuing back-to-back calls: somebody
	// must have stalled, and the stall landed on the compute chip's UPC.
	if n := m.MergedCounters().Total(upc.IONStall); n == 0 {
		t.Error("no CN ever stalled on ingress credits at QueueDepth 1")
	}
}

// TestIONRebootMatchesFresh extends the machine-reuse contract to an
// armed ION: a rebooted machine (fresh fs, reset credits, cleared cache)
// must run its next job byte-identically to a fresh machine's first —
// under an armed fault injector, so crash-driven cache drops rewind too.
func TestIONRebootMatchesFresh(t *testing.T) {
	for _, kind := range []KernelKind{KindCNK, KindFWK} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := Config{Nodes: 2, Kind: kind, Seed: 11, Faults: ras.DefaultPlan(5),
				ION: &ion.Config{QueueDepth: 4, CacheBlocks: 8}}
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Shutdown()
			first := runReuseJob(t, a)
			if err := a.Reboot(); err != nil {
				t.Fatal(err)
			}
			second := runReuseJob(t, a)

			b, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Shutdown()
			fresh := runReuseJob(t, b)

			assertFactsEqual(t, "fresh A vs fresh B", first, fresh)
			assertFactsEqual(t, "rebooted job 2 vs fresh job 1", second, fresh)
		})
	}
}

// TestSealCheckpointFlushesIONCache pins the barrier-quiesce flush: a
// checkpoint sealed while the job holds dirty cache blocks must write
// them back, so the image's file-table mirror and the backing fs agree —
// an ION crash right after the seal loses nothing the image references.
func TestSealCheckpointFlushesIONCache(t *testing.T) {
	m, err := New(Config{
		Nodes: 2, Kind: KindCNK,
		ION: &ion.Config{QueueDepth: 8, CacheBlocks: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	m.ArmCheckpoints(7, 1)
	payload := bytes.Repeat([]byte{0x5a}, 1024)
	app := func(ctx kernel.Context, env *Env) {
		base := m.HeapBase(ctx)
		path := fmt.Sprintf("/gpfs/seal%d", env.Node)
		ctx.Store(base, append([]byte(path), 0))
		fd, errno := ctx.Syscall(kernel.SysOpen, uint64(base), kernel.OCreat|kernel.OWronly, 0644)
		if errno != kernel.OK {
			ctx.Syscall(kernel.SysExit, uint64(errno))
			return
		}
		ctx.Store(base+4096, payload)
		for i := 0; i < 4; i++ {
			ctx.Syscall(kernel.SysWrite, fd, uint64(base+4096), 1024)
		}
		m.CaptureNode(ctx, 1)
		if env.Node == 0 {
			// No fsync, no close: the writes are sitting dirty in the cache.
			if m.IONs[0].Cache().DirtyBlocks() == 0 {
				t.Error("no dirty blocks before the seal; the cache is not in the write path")
			}
			if img := m.SealCheckpoint(); img == nil {
				t.Error("seal returned nil with checkpoints armed")
			}
			if d := m.IONs[0].Cache().DirtyBlocks(); d != 0 {
				t.Errorf("%d dirty blocks survived the seal's quiesce flush", d)
			}
			blob, errno := m.IONFS[0].ReadFile(path, fs.Root)
			if errno != kernel.OK || len(blob) != 4096 {
				t.Errorf("sealed file not durable: errno %v, %d bytes", errno, len(blob))
			}
		}
		ctx.Syscall(kernel.SysClose, fd)
	}
	if err := m.Run(app, kernel.JobParams{}, 0); err != nil {
		t.Fatal(err)
	}
}

// TestIONOffChangesNothing: a machine built with ION nil serves through
// unarmed I/O nodes on the same CIOD path — calls admitted at once, no
// coalescing, no cache, a private uplink per compute node, no mux header
// — so it grows no ION nodes or counters, and regrouping compute nodes
// under more I/O nodes changes nothing. (The ion-armed runs in this file
// all differ from unarmed ones by construction; this guards the other
// direction.)
func TestIONOffChangesNothing(t *testing.T) {
	run := func(cnsPerION int) ionRunFacts {
		m, err := New(Config{Nodes: 2, Kind: KindCNK, Seed: 11, CNsPerION: cnsPerION})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Shutdown()
		if err := m.Run(reuseWorkload(m), kernel.JobParams{}, 0); err != nil {
			t.Fatal(err)
		}
		if len(m.IONs) != 0 || len(m.IONStats()) != 0 {
			t.Error("unarmed machine grew ION nodes")
		}
		return ionRunFacts{hash: m.Eng.Trace().Hash(), now: m.Eng.Now(),
			counters: m.MergedCounters(), codes: fmt.Sprint(m.ExitCodes())}
	}
	a := run(0)
	b := run(2)
	if a.hash != b.hash || a.now != b.now || a.counters != b.counters {
		t.Errorf("CNsPerION alone perturbed an unarmed machine: now %d vs %d", a.now, b.now)
	}
	c := m0Counters(a)
	for _, ctr := range []upc.Counter{upc.IONStall, upc.IONStallCycles, upc.IONAdmit,
		upc.IONCoalesce, upc.IONCacheHit, upc.IONCacheMiss, upc.IONWriteback, upc.IONFlush} {
		if n := c.Total(ctr); n != 0 {
			t.Errorf("ION counter %v is %d on an unarmed machine", ctr, n)
		}
	}
}

func m0Counters(f ionRunFacts) upc.Snapshot { return f.counters }

// TestIONWorkloadDistinguishable sanity-checks the model has teeth: the
// aggregated run must actually differ in time from the unarmed run (the
// shared uplink and credit gate cost something), or the ioscale
// experiment would be comparing identical machines.
func TestIONWorkloadDistinguishable(t *testing.T) {
	run := func(icfg *ion.Config) sim.Cycles {
		m, err := New(Config{Nodes: 4, Kind: KindCNK, CNsPerION: 2, ION: icfg})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Shutdown()
		if err := m.Run(ionWorkload(m), kernel.JobParams{}, 0); err != nil {
			t.Fatal(err)
		}
		return m.Eng.Now()
	}
	legacy := run(nil)
	armed := run(&ion.Config{QueueDepth: 2, CacheBlocks: 16})
	if legacy == armed {
		t.Errorf("armed and legacy runs took identical time (%d); the subsystem is inert", legacy)
	}
}
