package machine

import (
	"fmt"
	"hash/fnv"
	"testing"

	"bgcnk/internal/apps"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
)

// The machine-level event-queue references: a full fault-replay run —
// boot, a memory sweep that draws seeded DDR/TLB/link/CIOD faults, the
// LINPACK proxy, shutdown — and a clean CNK run must reproduce every
// externally visible bit pinned below: trace hash, final cycle, exit
// codes, merged UPC counters, and the RAS log (both its fold hash and
// its rendered table). The rows were generated when the engine still
// checked a timer wheel against a reference heap, on both, so they hold
// the event queue to that order at the scale the experiments use, not
// just on synthetic workloads.

// replay is a fault replay's outcome: the trace hash and record count,
// the final cycle, the exit codes, FNV-64a digests of the merged counter
// text and of the rendered RAS table, the RAS log's own hash and the run
// error.
type replay struct {
	kind     KernelKind
	seed     uint64
	hash     uint64
	traces   uint64
	now      sim.Cycles
	codes    string
	counters uint64
	rasHash  uint64
	rasTable uint64
	runErr   string
}

// pinnedReplays holds faultReplay on both kernels at seeds 7, 40 and
// 1009.
var pinnedReplays = []replay{
	{KindCNK, 7, 0xdc9d92ba33542bbe, 25, 5822970, "[0 0 0 0]", 0x5403f2ce7f5b80a3, 0x0d4ee9c957bdfda5, 0x71099f8e9e50063d, ""},
	{KindCNK, 40, 0x0b130b77f6e786b8, 23, 5822938, "[0 0 0 0]", 0xeab9f48819a76be5, 0xfc2d073572c3e9f5, 0x45161134196416cf, ""},
	{KindCNK, 1009, 0x4a74d27458c21c39, 22, 5822970, "[0 0 0 0]", 0x67ab9fe04102ea22, 0x06215a0e6f833540, 0xac9a0e155b15c0c4, ""},
	{KindFWK, 7, 0x8d2bf234e1e78a2b, 15, 23721890, "[0 0 0 0]", 0x42975a49b98cd174, 0x1b0fb43bfc786f19, 0x70f5378e9e3eac7b, ""},
	{KindFWK, 40, 0x83aea147ebee7e7a, 16, 23739055, "[0 0 0 0]", 0xf5cec2dc31e06ec6, 0x83204d6bfff29f82, 0x450527341955c8fe, ""},
	{KindFWK, 1009, 0x45d8a9d1d50c48de, 15, 23737895, "[0 0 0 0]", 0x78192d80cfcfefdf, 0xc3c71ac4c5164fb7, 0xacab10155b24375d, ""},
}

// fnv64 is the FNV-64a digest of s.
func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// faultReplay runs the faulty-LINPACK workload (modeled on the
// stability-under-fault experiment).
func faultReplay(t *testing.T, kind KernelKind, seed uint64) replay {
	t.Helper()
	plan := &ras.Plan{
		Seed:             seed,
		DDRCorrectable:   2e-4,
		DDRUncorrectable: 4e-5,
		TLBParity:        2e-6,
		LinkCRC:          2e-2,
		CIODDrop:         0.1,
	}
	m, err := New(Config{
		Nodes: 4, Kind: kind, Seed: seed,
		Reproducible: kind == KindCNK,
		Faults:       plan,
	})
	if err != nil {
		t.Fatalf("%v machine: %v", kind, err)
	}
	defer m.Shutdown()
	runErr := m.Run(func(ctx kernel.Context, env *Env) {
		base := m.HeapBase(ctx)
		buf := make([]byte, 128)
		for i := 0; i < 1500; i++ {
			ctx.Load(base+hw.VAddr((i*4096)%(4<<20)), buf)
		}
		apps.Linpack(ctx, env.MPI, base, apps.LinpackConfig{Panels: 12, PanelCycles: 400_000, ExchangeB: 8 << 10})
	}, kernel.JobParams{}, sim.FromSeconds(600))
	out := replay{
		kind:     kind,
		seed:     seed,
		hash:     m.Eng.Trace().Hash(),
		traces:   m.Eng.Trace().Count(),
		now:      m.Eng.Now(),
		codes:    fmt.Sprint(m.ExitCodes()),
		counters: fnv64(m.MergedCounters().Text()),
		rasHash:  m.RAS.Hash(),
		rasTable: fnv64(m.RAS.Table()),
	}
	if runErr != nil {
		out.runErr = runErr.Error()
	}
	return out
}

// TestDifferentialMachineFaultReplay is the CI gate for the event queue
// on real machine runs: both kernels, multiple fault seeds, each equal
// to its pinned row.
func TestDifferentialMachineFaultReplay(t *testing.T) {
	for _, want := range pinnedReplays {
		t.Run(fmt.Sprintf("%v/seed%d", want.kind, want.seed), func(t *testing.T) {
			t.Parallel()
			if got := faultReplay(t, want.kind, want.seed); got != want {
				t.Fatalf("fault replay %+v\npinned       %+v", got, want)
			}
		})
	}
}

// TestDifferentialMachineCleanRun covers the no-fault path: a plain
// reproducible CNK barrier/allreduce workload must reproduce its pinned
// trace hash, record count, final cycle and counter digest.
func TestDifferentialMachineCleanRun(t *testing.T) {
	const (
		wantHash     = 0x5f92c4144bc18bf5
		wantTraces   = 20
		wantNow      = 1911889
		wantCounters = 0x128b34325890af2a
	)
	m, err := New(Config{Nodes: 4, Kind: KindCNK, Reproducible: true})
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	defer m.Shutdown()
	if err := m.Run(func(ctx kernel.Context, env *Env) {
		base := m.HeapBase(ctx)
		apps.Linpack(ctx, env.MPI, base, apps.LinpackConfig{Panels: 8, PanelCycles: 200_000, ExchangeB: 4 << 10})
	}, kernel.JobParams{}, sim.FromSeconds(600)); err != nil {
		t.Fatalf("run: %v", err)
	}
	h, n, now, c := m.Eng.Trace().Hash(), m.Eng.Trace().Count(), m.Eng.Now(), fnv64(m.MergedCounters().Text())
	if h != wantHash || n != wantTraces || now != wantNow || c != wantCounters {
		t.Fatalf("clean run: hash %016x, %d records, now %d, counters %016x; pinned %016x, %d, %d, %016x",
			h, n, now, c, uint64(wantHash), wantTraces, wantNow, uint64(wantCounters))
	}
}
