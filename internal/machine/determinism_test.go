package machine

import (
	"fmt"
	"hash/fnv"
	"testing"

	"bgcnk/internal/apps"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// The determinism property battery: every kernel × workload pair must
// produce bit-identical trace hashes, end cycles AND UPC counter
// snapshots across runs with the same seed, and must match a fixed
// reference row, so a change that moves both runs alike still fails.
// This is the paper's "cycle reproducible execution" claim stated as a
// property over the whole machine model, and it is what makes the UPC
// layer trustworthy: the same run always yields the same counts.

type detOutcome struct {
	hash     uint64
	counters upc.Snapshot
	cycles   sim.Cycles
}

// row renders an outcome in the form of the reference table below: trace
// hash, end cycle and the FNV-64a digest of the merged counter table that
// fault_matrix.txt also uses.
func (o detOutcome) row(cell string) string {
	h := fnv.New64a()
	h.Write([]byte(o.counters.Text()))
	return fmt.Sprintf("%s trace=%016x end=%d counters=%016x", cell, o.hash, uint64(o.cycles), h.Sum64())
}

// detRef pins every battery cell to its first run at seed 11, so the
// battery compares each run with a fixed reference and not only with a
// rerun of itself.
var detRef = map[string]string{
	"CNK/fwq":       "CNK/fwq trace=d40e68216b5b8f0c end=263682305 counters=8038223b09867bf5",
	"CNK/allreduce": "CNK/allreduce trace=6f3ed9c874747daf end=184554 counters=faba392181d50d7e",
	"CNK/ioffload":  "CNK/ioffload trace=b81203e3ae9f22fc end=154085 counters=ad9af55a8f4ec84e",
	"FWK/fwq":       "FWK/fwq trace=f3dee04244ba7c74 end=278785912 counters=2c523ccd2d5989d8",
	"FWK/allreduce": "FWK/allreduce trace=a67e06c89794e229 end=15113900 counters=bfe7f37a0bf286f9",
	"FWK/ioffload":  "FWK/ioffload trace=9dad9baaee88e192 end=15019096 counters=ffaead2d920be2fe",
}

// detRun boots one machine, runs the named workload, and returns the
// trace hash, merged counter snapshot, and final simulated time.
func detRun(t *testing.T, kind KernelKind, workload string) detOutcome {
	t.Helper()
	nodes := 1
	if workload == "allreduce" {
		nodes = 4
	}
	m, err := New(Config{Nodes: nodes, Kind: kind, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	var body func(ctx kernel.Context, env *Env)
	switch workload {
	case "fwq":
		cfg := apps.DefaultFWQ()
		cfg.Samples = 400
		body = func(ctx kernel.Context, env *Env) {
			apps.FWQ(ctx, m.HeapBase(ctx)+hw.VAddr(1<<20), cfg)
		}
	case "allreduce":
		body = func(ctx kernel.Context, env *Env) {
			if _, errno := apps.AllreduceBench(ctx, env.MPI, 40); errno != kernel.OK {
				t.Errorf("allreduce: %v", errno)
			}
		}
	case "ioffload":
		body = func(ctx kernel.Context, env *Env) {
			base := m.HeapBase(ctx)
			ctx.Store(base, append([]byte("/gpfs/det"), 0))
			fd, errno := ctx.Syscall(kernel.SysOpen, uint64(base), kernel.OCreat|kernel.OWronly, 0644)
			if errno != kernel.OK {
				t.Errorf("open: %v", errno)
				return
			}
			ctx.Store(base+4096, make([]byte, 512))
			for i := 0; i < 8; i++ {
				ctx.Syscall(kernel.SysWrite, fd, uint64(base+4096), 512)
			}
			ctx.Syscall(kernel.SysClose, fd)
		}
	default:
		t.Fatalf("unknown workload %q", workload)
	}
	if err := m.Run(body, kernel.JobParams{}, sim.FromSeconds(600)); err != nil {
		t.Fatal(err)
	}
	return detOutcome{
		hash:     m.Eng.Trace().Hash(),
		counters: m.MergedCounters(),
		cycles:   m.Eng.Now(),
	}
}

func TestDeterminismBattery(t *testing.T) {
	for _, kind := range []KernelKind{KindCNK, KindFWK} {
		for _, workload := range []string{"fwq", "allreduce", "ioffload"} {
			kind, workload := kind, workload
			cell := fmt.Sprintf("%v/%s", kind, workload)
			t.Run(cell, func(t *testing.T) {
				a := detRun(t, kind, workload)
				b := detRun(t, kind, workload)
				if got := a.row(cell); got != detRef[cell] {
					t.Errorf("%s differs from its reference:\n got  %s\n want %s", cell, got, detRef[cell])
				}
				if a.hash != b.hash {
					t.Errorf("trace hash differs across identical runs: %x vs %x", a.hash, b.hash)
				}
				if a.counters != b.counters {
					t.Errorf("counter snapshots differ across identical runs:\n%s\nvs\n%s",
						a.counters.Text(), b.counters.Text())
				}
				if a.cycles != b.cycles {
					t.Errorf("simulated time differs: %d vs %d", a.cycles, b.cycles)
				}
			})
		}
	}
}

// TestCNKQuietFWKNoisy is the counter-level statement of Figs 5-7: over
// the same FWQ run, CNK records zero timer ticks and zero preemptions
// (tickless, non-preemptive) while the FWK records plenty of both.
func TestCNKQuietFWKNoisy(t *testing.T) {
	cnk := detRun(t, KindCNK, "fwq").counters
	fwk := detRun(t, KindFWK, "fwq").counters
	if n := cnk.Total(upc.TimerTick); n != 0 {
		t.Errorf("CNK recorded %d timer ticks; the kernel is tickless", n)
	}
	if n := cnk.Total(upc.Preemption); n != 0 {
		t.Errorf("CNK recorded %d preemptions; the scheduler is non-preemptive", n)
	}
	if n := fwk.Total(upc.TimerTick); n == 0 {
		t.Error("FWK recorded no timer ticks; the 850k-cycle tick should fire")
	}
	if n := fwk.Total(upc.Preemption); n == 0 {
		t.Error("FWK recorded no preemptions; daemon dispatch should preempt the app")
	}
}
