package experiments

import (
	"fmt"

	"bgcnk/internal/ion"
	"bgcnk/internal/kernel"
	"bgcnk/internal/machine"
	"bgcnk/internal/sim"
	"bgcnk/internal/sim/replica"
	"bgcnk/internal/upc"
)

// The ioscale experiment: how far does one I/O node stretch? The paper's
// function-shipping design (Section IV-A) hangs on a CN:ION fan-in of 8
// to 128 compute nodes per I/O node, all funneling file syscalls over one
// collective-tree uplink into one CIOD. This sweep builds a machine per
// ratio with the aggregation subsystem armed — shared uplink, bounded
// ingress queue, coalescer, write-back cache — runs the same per-rank
// I/O workload, and measures where aggregate bandwidth saturates and how
// much of the cost surfaces as compute-node stall cycles in the UPC.
//
// The CNK-vs-FWK asymmetry under test: CNK ships *every* file syscall
// (metadata included) through the ION's credit gate, while the FWK's
// NFS-model client pays the shared uplink only for read/write data and
// keeps metadata in its local attribute cache.

const (
	ioscaleChunk    = 1024 // bytes per write
	ioscaleWrites   = 12   // writes per compute node
	ioscaleQueue    = 16   // ingress credits per ION
	ioscaleCacheBlk = 512  // cache blocks per ION (the ION runs Linux: a real page cache)
)

// ioscaleApp is the per-rank workload: stream chunks into a private file
// with a metadata probe every third write, then fsync and close. Only
// rank-local state, so the sweep scales to any node count.
func ioscaleApp(m *machine.Machine) machine.App {
	return func(ctx kernel.Context, env *machine.Env) {
		base := m.HeapBase(ctx)
		ctx.Store(base, append([]byte(fmt.Sprintf("/gpfs/io%03d", env.Node)), 0))
		fd, errno := ctx.Syscall(kernel.SysOpen, uint64(base), kernel.OCreat|kernel.OWronly, 0644)
		if errno != kernel.OK {
			ctx.Syscall(kernel.SysExit, uint64(errno))
			return
		}
		ctx.Store(base+4096, make([]byte, ioscaleChunk))
		for i := 0; i < ioscaleWrites; i++ {
			ctx.Syscall(kernel.SysWrite, fd, uint64(base+4096), ioscaleChunk)
			if i%3 == 2 {
				// Metadata: a shipped call on CNK, a local attribute-cache
				// hit on the FWK.
				ctx.Syscall(kernel.SysFstat, fd, uint64(base+8192))
			}
		}
		ctx.Syscall(kernel.SysFsync, fd)
		ctx.Syscall(kernel.SysClose, fd)
	}
}

type ioscaleCell struct {
	elapsed   sim.Cycles
	stall     uint64 // merged CN IONStallCycles
	admits    uint64
	coalesced uint64
	hits      uint64
	misses    uint64
	counters  upc.Snapshot
}

func (c ioscaleCell) mbps(ratio int) float64 {
	total := float64(ratio * ioscaleWrites * ioscaleChunk)
	return total / 1e6 / c.elapsed.Seconds()
}

func ioscaleRun(kind machine.KernelKind, ratio int) (ioscaleCell, error) {
	m, err := machine.New(machine.Config{
		Nodes: ratio, Kind: kind, Seed: 1009, CNsPerION: ratio,
		ION: &ion.Config{QueueDepth: ioscaleQueue, CacheBlocks: ioscaleCacheBlk},
	})
	if err != nil {
		return ioscaleCell{}, err
	}
	defer m.Shutdown()
	t0 := m.Eng.Now()
	if err := m.Run(ioscaleApp(m), kernel.JobParams{}, 0); err != nil {
		return ioscaleCell{}, err
	}
	for n, code := range m.ExitCodes() {
		if code != 0 {
			return ioscaleCell{}, fmt.Errorf("%v ratio %d: rank %d exited %d", kind, ratio, n, code)
		}
	}
	s := m.IONStats()[0]
	ctr := m.MergedCounters()
	return ioscaleCell{
		elapsed:   m.Eng.Now() - t0,
		stall:     ctr.Total(upc.IONStallCycles),
		admits:    s.Admitted,
		coalesced: s.Coalesced,
		hits:      s.CacheHits,
		misses:    s.CacheMisses,
		counters:  ctr,
	}, nil
}

// RunIOScale sweeps the CN:ION ratio for both kernels and asserts the
// paper's aggregation shape: per-CN bandwidth falls monotonically as more
// compute nodes share the I/O node (the shared uplink and ingress queue
// saturate), the lost time is visible as CN-side stall cycles, and the
// FWK's ship-only-data path stalls less than CNK's ship-everything path
// at the same fan-in.
func RunIOScale(opt Options) (*Result, error) {
	ratios := []int{8, 16, 32, 64, 128}
	if opt.Quick {
		ratios = []int{8, 32, 128}
	}
	workers := opt.workers()

	r := &Result{ID: "ioscale", Title: "I/O-node aggregation: bandwidth and backpressure vs CN:ION ratio", Pass: true}
	r.addf("per CN: %d writes x %d B + metadata probes, fsync, close; ION queue %d credits, cache %d blocks",
		ioscaleWrites, ioscaleChunk, ioscaleQueue, ioscaleCacheBlk)

	kinds := []struct {
		kind machine.KernelKind
		name string
	}{
		{machine.KindCNK, "CNK"},
		{machine.KindFWK, "FWK"},
	}
	// Every (kernel, ratio) cell is an independent machine, so the whole
	// sweep fans across the worker pool; rendering happens after the
	// barrier in sweep order, identical at any pool size.
	flat, err := replica.Run(workers, len(kinds)*len(ratios), func(idx int) (ioscaleCell, error) {
		return ioscaleRun(kinds[idx/len(ratios)].kind, ratios[idx%len(ratios)])
	})
	if err != nil {
		return nil, err
	}
	cells := make([][]ioscaleCell, len(kinds))
	for ki, k := range kinds {
		cells[ki] = flat[ki*len(ratios) : (ki+1)*len(ratios)]
		for ri, ratio := range ratios {
			c := cells[ki][ri]
			hitRate := 0.0
			if c.hits+c.misses > 0 {
				hitRate = 100 * float64(c.hits) / float64(c.hits+c.misses)
			}
			r.addf("%s %3d CN/ION: %8.3f ms, %7.2f MB/s agg (%5.3f MB/s per CN), stall %8.1f kcyc, admits %5d, coalesced %4d, cache hit %5.1f%%",
				k.name, ratio, c.elapsed.Seconds()*1e3, c.mbps(ratio), c.mbps(ratio)/float64(ratio),
				float64(c.stall)/1e3, c.admits, c.coalesced, hitRate)
		}
	}

	for ki, k := range kinds {
		// Saturation: each doubling of the fan-in must cost per-CN
		// bandwidth — the shared uplink serializes, the credit gate
		// backpressures, and no cache can hide a link.
		for ri := 1; ri < len(ratios); ri++ {
			prev := cells[ki][ri-1].mbps(ratios[ri-1]) / float64(ratios[ri-1])
			cur := cells[ki][ri].mbps(ratios[ri]) / float64(ratios[ri])
			if cur >= prev {
				r.Pass = false
				r.notef("%s: per-CN bandwidth rose from %.4f to %.4f MB/s going %d -> %d CN/ION — no saturation",
					k.name, prev, cur, ratios[ri-1], ratios[ri])
			}
		}
		// The lost bandwidth must be *observable* as CN stall cycles, and
		// grow with the fan-in.
		top, bottom := cells[ki][len(ratios)-1], cells[ki][0]
		if top.stall == 0 {
			r.Pass = false
			r.notef("%s: no stall cycles at %d CN/ION — backpressure invisible", k.name, ratios[len(ratios)-1])
		}
		if top.stall <= bottom.stall {
			r.Pass = false
			r.notef("%s: stall cycles did not grow with fan-in (%d at %d vs %d at %d)",
				k.name, top.stall, ratios[len(ratios)-1], bottom.stall, ratios[0])
		}
	}

	// The shipping asymmetry: CNK funnels every call through the ION's
	// ingress queue (admits > 0, coalescing active); the FWK never enters
	// the credit gate (admits 0) and, paying the uplink only for data,
	// stalls less at the same fan-in.
	topCNK, topFWK := cells[0][len(ratios)-1], cells[1][len(ratios)-1]
	if topCNK.admits == 0 || topCNK.coalesced == 0 {
		r.Pass = false
		r.notef("CNK at top ratio: admits %d, coalesced %d — aggregation not engaged", topCNK.admits, topCNK.coalesced)
	}
	if topFWK.admits != 0 {
		r.Pass = false
		r.notef("FWK entered the CIOD credit gate (%d admits); the NFS model ships no calls", topFWK.admits)
	}
	if topCNK.stall <= topFWK.stall {
		r.Pass = false
		r.notef("CNK stall %d <= FWK stall %d at %d CN/ION; ship-everything must stall more than ship-data-only",
			topCNK.stall, topFWK.stall, ratios[len(ratios)-1])
	}

	// Determinism spot check on the most contended cell: a rerun must be
	// bit-identical, counters and elapsed cycles both.
	again, err := ioscaleRun(machine.KindCNK, ratios[len(ratios)-1])
	if err != nil {
		return nil, err
	}
	if again.counters != topCNK.counters || again.elapsed != topCNK.elapsed {
		r.Pass = false
		r.notef("CNK %d CN/ION rerun diverged: %d vs %d cycles — determinism broken",
			ratios[len(ratios)-1], again.elapsed, topCNK.elapsed)
	}
	return r, nil
}
