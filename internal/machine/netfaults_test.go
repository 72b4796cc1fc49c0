package machine

import (
	"errors"
	"fmt"
	"testing"

	"bgcnk/internal/kernel"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim/replica"
	"bgcnk/internal/torus"
	"bgcnk/internal/upc"
)

// netBody is a torus-exercising rank body: a ring neighbor exchange
// (eager sends to rank+1, receives from rank-1) followed by an
// allreduce. Every network errno is surfaced as the rank's exit code, so
// hard network faults turn into observable, deterministic exit vectors
// instead of hangs.
func netBody() App {
	return func(ctx kernel.Context, env *Env) {
		if env.MPI == nil {
			return
		}
		right := (env.Rank + 1) % env.Size
		payload := make([]byte, 600)
		for round := 0; round < 3; round++ {
			tag := uint32(7000 + round)
			if errno := env.MPI.Send(ctx, right, tag, payload); errno != kernel.OK {
				ctx.Syscall(kernel.SysExit, uint64(errno))
				return
			}
			if _, _, errno := env.MPI.Recv(ctx, tag); errno != kernel.OK {
				ctx.Syscall(kernel.SysExit, uint64(errno))
				return
			}
		}
		if _, errno := env.MPI.Allreduce(ctx, float64(env.Rank)); errno != kernel.OK {
			ctx.Syscall(kernel.SysExit, uint64(errno))
			return
		}
	}
}

func netFaultRun(t *testing.T, kind KernelKind, plan ras.Plan) matrixOutcome {
	t.Helper()
	m, err := New(Config{
		Nodes: 4, Kind: kind, Seed: 11,
		Reproducible: kind == KindCNK,
		Faults:       &plan,
	})
	if err != nil {
		// A plan that disconnects the partition is refused at boot; the
		// refusal itself must be deterministic, so it participates in the
		// replay/worker-invariance comparison as an outcome.
		return matrixOutcome{codes: "boot: " + err.Error()}
	}
	defer m.Shutdown()
	if err := m.Run(netBody(), kernel.JobParams{}, 0); err != nil {
		t.Fatal(err)
	}
	return matrixOutcome{
		hash:     m.Eng.Trace().Hash(),
		now:      m.Eng.Now(),
		counters: m.MergedCounters(),
		rasHash:  m.RAS.Hash(),
		codes:    fmt.Sprint(m.ExitCodes()),
	}
}

// TestTorusFaultMatrix pins the armed-fault determinism acceptance
// property: for each hard-fault class, seed and kernel, runs replay
// cycle-exactly — and the whole matrix is bit-identical whether the
// replicas execute serially or on 2 or 8 workers (run under -race in CI).
func TestTorusFaultMatrix(t *testing.T) {
	classes := []struct {
		name string
		plan func(seed uint64) ras.Plan
	}{
		{"link_fail", func(seed uint64) ras.Plan {
			return ras.Plan{Seed: seed, LinkFails: 2}
		}},
		{"node_fail", func(seed uint64) ras.Plan {
			return ras.Plan{Seed: seed, NodeFails: 1}
		}},
	}
	type cell struct {
		kind KernelKind
		name string
		plan ras.Plan
	}
	var cells []cell
	for _, kind := range []KernelKind{KindCNK, KindFWK} {
		for _, cl := range classes {
			for seed := uint64(1); seed <= 3; seed++ {
				cells = append(cells, cell{kind, fmt.Sprintf("%v/%s/seed%d", kind, cl.name, seed), cl.plan(seed)})
			}
		}
	}
	serial := replica.Map(1, len(cells), func(i int) matrixOutcome {
		return netFaultRun(t, cells[i].kind, cells[i].plan)
	})
	again := replica.Map(1, len(cells), func(i int) matrixOutcome {
		return netFaultRun(t, cells[i].kind, cells[i].plan)
	})
	for i, c := range cells {
		if serial[i] != again[i] {
			t.Errorf("%s: same plan did not replay identically:\nhash %x vs %x, now %d vs %d, codes %s vs %s",
				c.name, serial[i].hash, again[i].hash, serial[i].now, again[i].now, serial[i].codes, again[i].codes)
		}
	}
	for _, workers := range []int{2, 8} {
		par := replica.Map(workers, len(cells), func(i int) matrixOutcome {
			return netFaultRun(t, cells[i].kind, cells[i].plan)
		})
		for i, c := range cells {
			if par[i] != serial[i] {
				t.Errorf("%s: %d-worker run diverged from serial (hash %x vs %x)",
					c.name, workers, par[i].hash, serial[i].hash)
			}
		}
	}
	// A node failure must actually surface: at least one rank of at least
	// one node_fail cell exits with EIO rather than hanging or succeeding.
	sawEIO := false
	for i, c := range cells {
		if c.plan.NodeFails > 0 && serial[i].codes != fmt.Sprint(make([]int, 4)) {
			sawEIO = true
		}
	}
	if !sawEIO {
		t.Error("no node_fail cell surfaced a nonzero exit code; deaths are not reaching the ranks")
	}
}

// TestTorusFaultsOffChangesNothing: a plan with probabilistic fault
// classes armed but zero hard network faults must leave the torus's
// hard-fault layer unarmed — the UPC counters for dead links, detours,
// retries and timeouts stay zero, no link_fail/node_fail RAS events
// exist, and runs replay bit-identically. (Byte-identity against the
// reference event stream is pinned by the fault matrix table and the
// golden experiment suite.)
func TestTorusFaultsOffChangesNothing(t *testing.T) {
	plan := ras.Plan{Seed: 11, LinkCRC: 1e-2, CIODDrop: 0.1}
	run := func() matrixOutcome {
		m, err := New(Config{Nodes: 4, Kind: KindCNK, Seed: 11, Reproducible: true, Faults: &plan})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Shutdown()
		if m.Torus.FaultsArmed() {
			t.Fatal("hard-fault layer armed without LinkFails/NodeFails")
		}
		if err := m.Run(netBody(), kernel.JobParams{}, 0); err != nil {
			t.Fatal(err)
		}
		if n := m.RAS.Count(ras.LinkFail) + m.RAS.Count(ras.NodeFail); n != 0 {
			t.Errorf("hard-fault RAS events on a net-fault-free run: %d", n)
		}
		return matrixOutcome{
			hash:     m.Eng.Trace().Hash(),
			now:      m.Eng.Now(),
			counters: m.MergedCounters(),
			rasHash:  m.RAS.Hash(),
			codes:    fmt.Sprint(m.ExitCodes()),
		}
	}
	a := run()
	b := run()
	if a != b {
		t.Errorf("net-fault-free runs diverged: hash %x vs %x, now %d vs %d", a.hash, b.hash, a.now, b.now)
	}
	for _, c := range []upc.Counter{upc.TorusRouteDetour, upc.TorusLinkDead,
		upc.TorusE2ERetry, upc.TorusE2ETimeout} {
		if n := a.counters.Total(c); n != 0 {
			t.Errorf("counter %v = %d on a run without hard network faults", c, n)
		}
	}
	for _, code := range []string{a.codes, b.codes} {
		if code != fmt.Sprint(make([]int, 4)) {
			t.Errorf("ranks failed without hard network faults: %s", code)
		}
	}
}

// TestUnroutablePartitionFailsBoot: a fault plan that cuts a node off
// from the rest of the partition must fail machine construction with the
// wiring-validation error, not boot a partition that cannot talk.
func TestUnroutablePartitionFailsBoot(t *testing.T) {
	// On the Nodes=2 ring both directed links out of node 0 are drawn dead
	// once LinkFails covers all 4 directed links.
	_, err := New(Config{Nodes: 2, Kind: KindCNK,
		Faults: &ras.Plan{Seed: 1, LinkFails: 4}})
	if err == nil {
		t.Fatal("machine booted with every torus link scheduled dead")
	}
	if !errors.Is(err, torus.ErrUnroutable) {
		t.Fatalf("boot refusal %v does not wrap torus.ErrUnroutable", err)
	}
}
