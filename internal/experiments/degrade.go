package experiments

import (
	"slices"

	"bgcnk/internal/kernel"
	"bgcnk/internal/machine"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/sim/replica"
	"bgcnk/internal/torus"
	"bgcnk/internal/upc"
)

// The degrade experiment: what fraction of a partition's torus wiring can
// die before jobs stop completing? The paper's hard-fault story (Section
// VI) is that the control system either routes around a broken wire or
// refuses to boot the partition — never hands the application a network
// that silently eats packets. This sweep draws seeded link-death plans of
// growing size over an 8-node ring (deaths land at cycle 1, i.e. the
// partition is degraded from boot), runs the same neighbor-exchange
// workload with fault-region routing on and off, and scores each cell by
// its completion rate: the fraction of ranks that exit 0. A plan that
// disconnects the surviving topology is refused at machine construction
// and scores 0 — a deterministic outcome, not an error.
//
// Because the plan sampler is a partial Fisher-Yates with per-pick death
// cycles, same-seed plans of growing size are nested (every link dead at
// f is dead at f' > f), so per-seed completion is structurally monotone
// in the dead-link count and the sweep's shape is a property of the
// routing layer, not of lucky draws.

const (
	degradeNodes   = 16  // 4x4 torus; 64 directed links
	degradeLinks   = 64  // directed links in the 4x4 torus
	degradeRounds  = 3   // neighbor-exchange rounds per rank
	degradePayload = 600 // bytes per exchange (3 packets: eager path)
	degradeSeedTag = 0x5eed
)

// degradeDims is the partition shape: a 4x4 torus rather than a ring, so
// a dead wire on a used path has genuine alternatives (the other ring
// direction or the other dimension) and fault-region routing has real
// work to do: same-row neighbor hops have a unique minimal wire, so its
// death forces a measurably longer detour. On a directed ring any
// opposite-direction pair of dead links disconnects some ordered pair,
// which makes a ring sweep mostly a boot-refusal study.
var degradeDims = torus.Coord{4, 4, 1}

// degradeApp is a pure-torus workload: each rank eager-sends to its right
// neighbor and receives from its left, a few rounds, surfacing every
// network errno as its exit code. No collective-tree traffic, so the only
// fabric under test is the torus. Each rank stamps its last cycle into
// end[rank] before it exits or returns: an armed receive that woke early
// leaves its timeout timer queued, and the run drains those timers after
// the job, so the engine's final cycle overstates the job.
func degradeApp(end []sim.Cycles) machine.App {
	return func(ctx kernel.Context, env *machine.Env) {
		if env.MPI == nil {
			return
		}
		exit := func(errno kernel.Errno) {
			end[env.Rank] = ctx.Now()
			ctx.Syscall(kernel.SysExit, uint64(errno))
		}
		right := (env.Rank + 1) % env.Size
		payload := make([]byte, degradePayload)
		for round := 0; round < degradeRounds; round++ {
			tag := uint32(9000 + round)
			if errno := env.MPI.Send(ctx, right, tag, payload); errno != kernel.OK {
				exit(errno)
				return
			}
			if _, _, errno := env.MPI.Recv(ctx, tag); errno != kernel.OK {
				exit(errno)
				return
			}
		}
		end[env.Rank] = ctx.Now()
	}
}

type degradeCell struct {
	completion  float64    // fraction of ranks exiting 0; 0 on a refused boot
	elapsed     sim.Cycles // boot to the last rank's last cycle
	detours     uint64
	retries     uint64
	timeouts    uint64
	deadLinks   uint64
	bootRefused bool
}

func degradeRun(kind machine.KernelKind, linkFails, nodeFails int, resilient bool, seed uint64) (degradeCell, error) {
	plan := &ras.Plan{
		Seed: seed ^ degradeSeedTag, LinkFails: linkFails, NodeFails: nodeFails,
		NetFailWindow: 1, NetResilienceOff: !resilient,
	}
	m, err := machine.New(machine.Config{
		Dims: degradeDims, Kind: kind, Seed: 7, Faults: plan,
		Reproducible: kind == machine.KindCNK,
	})
	if err != nil {
		// The plan disconnects the surviving topology: the wiring validator
		// refuses the partition at boot. Completion 0, by construction.
		return degradeCell{bootRefused: true}, nil
	}
	defer m.Shutdown()
	// Bound the off-arm horizon: a lost delivery surfaces as a timeout
	// after 5 ms of simulated time instead of the conservative default.
	m.Torus.SetE2ERecvTimeout(sim.FromSeconds(0.005))
	t0 := m.Eng.Now()
	end := make([]sim.Cycles, degradeNodes)
	if err := m.Run(degradeApp(end), kernel.JobParams{}, 0); err != nil {
		return degradeCell{}, err
	}
	ok := 0
	for _, code := range m.ExitCodes() {
		if code == 0 {
			ok++
		}
	}
	ctr := m.MergedCounters()
	return degradeCell{
		completion: float64(ok) / float64(degradeNodes),
		elapsed:    slices.Max(end) - t0,
		detours:    ctr.Total(upc.TorusRouteDetour),
		retries:    ctr.Total(upc.TorusE2ERetry),
		timeouts:   ctr.Total(upc.TorusE2ETimeout),
		deadLinks:  ctr.Total(upc.TorusLinkDead),
	}, nil
}

// RunDegrade sweeps dead-link counts for both kernels with fault-region
// routing on and off, plus a node-death arm, and asserts the resilience
// shape: an intact fabric completes everywhere, completion degrades
// monotonically as wiring dies, routing-on dominates routing-off at every
// point and strictly beats it somewhere, detours are observable where
// routing saves a run, and routing-off surfaces its losses as delivery
// timeouts rather than hangs.
func RunDegrade(opt Options) (*Result, error) {
	fails := []int{0, 2, 4, 8, 16}
	seeds := []uint64{1, 2, 3}
	if opt.Quick {
		seeds = []uint64{1, 2}
	}
	kinds := []struct {
		kind machine.KernelKind
		name string
	}{
		{machine.KindCNK, "CNK"},
		{machine.KindFWK, "FWK"},
	}
	arms := []bool{true, false} // fault-region routing on, off

	r := &Result{ID: "degrade", Title: "Fault-tolerant torus: completion rate vs dead wiring", Pass: true}
	r.addf("%dx%d torus (%d nodes, %d directed links), %d x %d B neighbor exchanges; link deaths at cycle 1, %d seeds per cell",
		degradeDims[0], degradeDims[1], degradeNodes, degradeLinks, degradeRounds, degradePayload, len(seeds))

	// Flat fan-out: every (kernel, arm, fails, seed) cell is an
	// independent machine. Index decode order matches the render loops.
	nCells := len(kinds) * len(arms) * len(fails) * len(seeds)
	flat, err := replica.Run(opt.workers(), nCells, func(idx int) (degradeCell, error) {
		si := idx % len(seeds)
		fi := idx / len(seeds) % len(fails)
		ai := idx / (len(seeds) * len(fails)) % len(arms)
		ki := idx / (len(seeds) * len(fails) * len(arms))
		return degradeRun(kinds[ki].kind, fails[fi], 0, arms[ai], seeds[si])
	})
	if err != nil {
		return nil, err
	}
	// mean[ki][ai][fi] is the completion rate averaged over seeds.
	cellAt := func(ki, ai, fi, si int) degradeCell {
		return flat[((ki*len(arms)+ai)*len(fails)+fi)*len(seeds)+si]
	}
	mean := make([][][]float64, len(kinds))
	for ki, k := range kinds {
		mean[ki] = make([][]float64, len(arms))
		for ai, resilient := range arms {
			mean[ki][ai] = make([]float64, len(fails))
			armName := "route-on "
			if !resilient {
				armName = "route-off"
			}
			for fi, f := range fails {
				var sum float64
				var detours, retries, timeouts, dead uint64
				refused := 0
				var elapsed sim.Cycles
				for si := range seeds {
					c := cellAt(ki, ai, fi, si)
					sum += c.completion
					detours += c.detours
					retries += c.retries
					timeouts += c.timeouts
					dead += c.deadLinks
					if c.bootRefused {
						refused++
					}
					elapsed += c.elapsed
				}
				mean[ki][ai][fi] = sum / float64(len(seeds))
				r.addf("%s %s %2d dead links: completion %5.3f, mean %9.3f ms, detours %3d, retries %2d, timeouts %2d, boots refused %d/%d",
					k.name, armName, f, mean[ki][ai][fi],
					elapsed.Seconds()*1e3/float64(len(seeds)),
					detours, retries, timeouts, refused, len(seeds))
			}
		}
	}

	for ki, k := range kinds {
		// An intact fabric completes everywhere, routing on or off.
		for ai, resilient := range arms {
			if mean[ki][ai][0] != 1 {
				r.Pass = false
				r.notef("%s resilient=%v: completion %.3f with zero dead links", k.name, resilient, mean[ki][ai][0])
			}
			// Completion is monotone nonincreasing in the dead-link count
			// (structural, via nested same-seed plans).
			for fi := 1; fi < len(fails); fi++ {
				if mean[ki][ai][fi] > mean[ki][ai][fi-1]+1e-9 {
					r.Pass = false
					r.notef("%s resilient=%v: completion rose %.3f -> %.3f going %d -> %d dead links",
						k.name, resilient, mean[ki][ai][fi-1], mean[ki][ai][fi], fails[fi-1], fails[fi])
				}
			}
		}
		// Fault-region routing dominates: never worse, strictly better
		// somewhere in the sweep.
		strictly := false
		for fi, f := range fails {
			if mean[ki][0][fi] < mean[ki][1][fi]-1e-9 {
				r.Pass = false
				r.notef("%s: routing on completed %.3f < off %.3f at %d dead links",
					k.name, mean[ki][0][fi], mean[ki][1][fi], f)
			}
			if mean[ki][0][fi] > mean[ki][1][fi]+1e-9 {
				strictly = true
			}
		}
		if !strictly {
			r.Pass = false
			r.notef("%s: fault-region routing never beat the static path anywhere in the sweep", k.name)
		}
		// Where routing-on survives dead wiring, the detours must be
		// observable; where routing-off loses packets, the loss must
		// surface as delivery timeouts, not hangs.
		var onDetours, offTimeouts uint64
		for fi := 1; fi < len(fails); fi++ {
			for si := range seeds {
				on, off := cellAt(ki, 0, fi, si), cellAt(ki, 1, fi, si)
				if on.completion == 1 && !on.bootRefused {
					onDetours += on.detours
				}
				if off.completion < 1 && !off.bootRefused {
					offTimeouts += off.timeouts
				}
			}
		}
		if onDetours == 0 {
			r.Pass = false
			r.notef("%s: no detour ever counted on a run that survived dead wiring", k.name)
		}
		if offTimeouts == 0 {
			r.Pass = false
			r.notef("%s: routing-off losses produced no delivery timeouts — ranks hung or never lost", k.name)
		}
	}

	// Node-death arm: a whole interface dies at cycle 1. The dead node and
	// its ring neighbors fail with typed network errors, the rest of the
	// partition completes — partial completion, no hangs.
	for _, k := range kinds {
		c, err := degradeRun(k.kind, 0, 1, true, seeds[0])
		if err != nil {
			return nil, err
		}
		r.addf("%s node_fail x1:    completion %5.3f, %12.3f ms, dead links %d, timeouts %d",
			k.name, c.completion, c.elapsed.Seconds()*1e3, c.deadLinks, c.timeouts)
		if c.bootRefused || c.completion <= 0 || c.completion >= 1 {
			r.Pass = false
			r.notef("%s node_fail: completion %.3f (refused=%v); want partial completion", k.name, c.completion, c.bootRefused)
		}
	}

	// Determinism spot check: the most degraded surviving resilient cell
	// must replay bit-identically.
	ref := cellAt(0, 0, len(fails)-1, 0)
	again, err := degradeRun(machine.KindCNK, fails[len(fails)-1], 0, true, seeds[0])
	if err != nil {
		return nil, err
	}
	if again != ref {
		r.Pass = false
		r.notef("CNK %d dead links rerun diverged (completion %.3f vs %.3f, %d vs %d cycles)",
			fails[len(fails)-1], again.completion, ref.completion, again.elapsed, ref.elapsed)
	}
	return r, nil
}
