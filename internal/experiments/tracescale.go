package experiments

import (
	"fmt"

	"bgcnk/internal/kernel"
	"bgcnk/internal/machine"
	"bgcnk/internal/obs"
	"bgcnk/internal/sim"
	"bgcnk/internal/sim/replica"
)

// The tracescale experiment: what does it cost to watch a machine? The
// obs layer charges zero simulated cycles by construction (pinned by
// TestObsOffChangesNothing); what remains is trace VOLUME — and volume
// is where the paper's noise argument becomes visible in a new way. A
// CNK node between syscalls is silent: nothing runs, so nothing traces.
// An FWK node is never silent: the 1 kHz tick and the daemon set emit
// scheduler spans all the way through a compute region. This sweep runs
// the same compute+I/O job at growing node counts on both kernels with
// the full span set and the UPC sampler armed, and pins (1) linear
// trace-volume growth with node count, (2) the CNK-vs-FWK span-count
// asymmetry (order-of-magnitude more sched spans under FWK), and (3)
// byte-identical exports on rerun.

const (
	// Per-rank compute: 16 bursts of 8M cycles ~= 150 ms simulated, long
	// enough for ~150 FWK timer ticks per rank while CNK's cores run the
	// same region without a single kernel entry.
	tracescaleBursts = 16
	tracescaleBurst  = sim.Cycles(8_000_000)
	tracescaleEvery  = sim.Cycles(4_000_000) // UPC sampler interval
)

// tracescaleApp: compute-dominated with a ring exchange and a small
// file-I/O coda, so every span category has a source.
func tracescaleApp(m *machine.Machine) machine.App {
	return func(ctx kernel.Context, env *machine.Env) {
		base := m.HeapBase(ctx)
		for i := 0; i < tracescaleBursts; i++ {
			ctx.Compute(tracescaleBurst)
		}
		if env.Size > 1 {
			next := (env.Rank + 1) % env.Size
			env.Dev.Send(ctx, next, 3, []byte("trace"))
			env.Dev.Recv(ctx, 3)
		}
		ctx.Store(base, append([]byte(fmt.Sprintf("/gpfs/tr%03d", env.Node)), 0))
		fd, errno := ctx.Syscall(kernel.SysOpen, uint64(base), kernel.OCreat|kernel.OWronly, 0644)
		if errno == kernel.OK {
			ctx.Store(base+4096, make([]byte, 256))
			ctx.Syscall(kernel.SysWrite, fd, uint64(base+4096), 256)
			ctx.Syscall(kernel.SysClose, fd)
		}
	}
}

type tracescaleCell struct {
	spans     int
	samples   int
	cats      [obs.NumCats]int
	jsonBytes int
	binBytes  int
	json      []byte
}

func tracescaleRun(kind machine.KernelKind, nodes int) (tracescaleCell, error) {
	m, err := machine.New(machine.Config{
		Nodes: nodes, Kind: kind, Seed: 1013, Reproducible: true,
		Obs: &obs.Config{SampleEvery: tracescaleEvery},
	})
	if err != nil {
		return tracescaleCell{}, err
	}
	defer m.Shutdown()
	if err := m.Run(tracescaleApp(m), kernel.JobParams{}, 0); err != nil {
		return tracescaleCell{}, err
	}
	for n, code := range m.ExitCodes() {
		if code != 0 {
			return tracescaleCell{}, fmt.Errorf("%v nodes %d: rank %d exited %d", kind, nodes, n, code)
		}
	}
	j, b := m.TraceJSON(), m.TraceBinary()
	if _, err := obs.Unmarshal(b); err != nil {
		return tracescaleCell{}, fmt.Errorf("%v nodes %d: binary trace does not decode: %v", kind, nodes, err)
	}
	return tracescaleCell{
		spans:     m.Obs.SpanCount(),
		samples:   m.Obs.SampleCount(),
		cats:      m.Obs.CatCounts(),
		jsonBytes: len(j),
		binBytes:  len(b),
		json:      j,
	}, nil
}

// RunTraceScale sweeps node counts for both kernels with full tracing
// armed and asserts the volume and asymmetry shape.
func RunTraceScale(opt Options) (*Result, error) {
	counts := []int{1, 2, 4, 8}
	if opt.Quick {
		counts = []int{1, 4}
	}
	workers := opt.workers()

	r := &Result{ID: "tracescale", Title: "Span tracing: trace volume vs node count, CNK vs FWK", Pass: true}
	r.addf("per rank: %d x %.1f Mcyc compute + exchange + file coda; sampler every %.1f Mcyc; all span categories armed",
		tracescaleBursts, float64(tracescaleBurst)/1e6, float64(tracescaleEvery)/1e6)

	kinds := []struct {
		kind machine.KernelKind
		name string
	}{
		{machine.KindCNK, "CNK"},
		{machine.KindFWK, "FWK"},
	}
	flat, err := replica.Run(workers, len(kinds)*len(counts), func(idx int) (tracescaleCell, error) {
		return tracescaleRun(kinds[idx/len(counts)].kind, counts[idx%len(counts)])
	})
	if err != nil {
		return nil, err
	}
	cells := make([][]tracescaleCell, len(kinds))
	for ki, k := range kinds {
		cells[ki] = flat[ki*len(counts) : (ki+1)*len(counts)]
		for ci, n := range counts {
			c := cells[ki][ci]
			r.addf("%s %2d nodes: %6d spans (%6.1f/node; sched %5d, syscall %4d, msg %3d, io %3d), %4d samples, json %7d B, bin %6d B (%4.1f%%)",
				k.name, n, c.spans, float64(c.spans)/float64(n),
				c.cats[obs.CatSched], c.cats[obs.CatSyscall], c.cats[obs.CatMsg], c.cats[obs.CatIO],
				c.samples, c.jsonBytes, c.binBytes, 100*float64(c.binBytes)/float64(c.jsonBytes))
		}
	}

	for ki, k := range kinds {
		// Volume grows with the machine: more nodes, more spans, more
		// bytes — strictly, at every step.
		for ci := 1; ci < len(counts); ci++ {
			prev, cur := cells[ki][ci-1], cells[ki][ci]
			if cur.spans <= prev.spans || cur.jsonBytes <= prev.jsonBytes {
				r.Pass = false
				r.notef("%s: trace volume did not grow %d -> %d nodes (%d -> %d spans)",
					k.name, counts[ci-1], counts[ci], prev.spans, cur.spans)
			}
		}
		// The binary ring must actually be compact.
		top := cells[ki][len(counts)-1]
		if top.binBytes >= top.jsonBytes {
			r.Pass = false
			r.notef("%s: binary trace (%d B) not smaller than JSON (%d B)", k.name, top.binBytes, top.jsonBytes)
		}
		if top.samples == 0 {
			r.Pass = false
			r.notef("%s: sampler recorded nothing over a %d Mcyc run", k.name, int(tracescaleBursts*tracescaleBurst/1e6))
		}
	}

	// The asymmetry: through an identical compute region, the FWK's tick
	// and daemons keep emitting scheduler spans while CNK's cores run
	// kernel-silent. Per node, FWK must carry at least 3x the spans and
	// an order of magnitude more sched spans.
	for ci, n := range counts {
		c, f := cells[0][ci], cells[1][ci]
		if f.spans < 3*c.spans {
			r.Pass = false
			r.notef("%d nodes: FWK %d spans < 3x CNK %d — tick/daemon chatter missing", n, f.spans, c.spans)
		}
		if f.cats[obs.CatSched] < 10*(c.cats[obs.CatSched]+1) {
			r.Pass = false
			r.notef("%d nodes: FWK sched spans %d vs CNK %d — expected an order of magnitude", n,
				f.cats[obs.CatSched], c.cats[obs.CatSched])
		}
	}

	// Byte-determinism spot check on the biggest FWK cell.
	again, err := tracescaleRun(machine.KindFWK, counts[len(counts)-1])
	if err != nil {
		return nil, err
	}
	if string(again.json) != string(cells[1][len(counts)-1].json) {
		r.Pass = false
		r.notef("FWK %d-node rerun JSON export not byte-identical — trace determinism broken", counts[len(counts)-1])
	}
	return r, nil
}
