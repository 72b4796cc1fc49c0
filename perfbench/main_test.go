package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// quick runs a fixed number of ops with a single set-up.
func quick(workload string, seed uint64, ops int) options {
	return options{workload: workload, seed: seed, ops: ops, setups: 1, ref: "reference.json"}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func metricNames(r *result) []string {
	var names []string
	for k := range r.Metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	return names
}

// TestWorkloadsMatchPinnedDigests runs every workload for a couple of ops
// at the default seed against reference.json, and at the held-out seed
// against the run's own first op.
func TestWorkloadsMatchPinnedDigests(t *testing.T) {
	endToEnd, _ := benchmarkNames(t)
	slices.Sort(endToEnd)
	for _, name := range workloadNames {
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				var report strings.Builder
				res, err := run(quick(name, seed, 2), &report)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted != 2 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, report.String())
				}
				if got := metricNames(res); !slices.Equal(got, endToEnd) {
					t.Fatalf("metrics %v, BENCHMARK.json declares %v", got, endToEnd)
				}
				for k, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s = %v, want > 0", k, m.Value)
					}
				}
			})
		}
	}
}

// TestEveryDrainInputMatchesPinnedDigest covers all of cnk-drain's queues,
// not only the first two.
func TestEveryDrainInputMatchesPinnedDigest(t *testing.T) {
	res, err := run(quick("cnk-drain", defaultSeed, drainQueues), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != drainQueues {
		t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
}

// TestPerturbedReferenceFailsOps proves the digest check catches a
// mismatch: with one pinned digest flipped, every op of that input fails.
func TestPerturbedReferenceFailsOps(t *testing.T) {
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	d := ref.Digests["cnk-io"]
	d[0] = flipLastHex(d[0])
	b, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "reference.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	o := quick("cnk-io", defaultSeed, 2)
	o.ref = path
	var report strings.Builder
	res, err := run(o, &report)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 2 || res.Attempted != 2 {
		t.Fatalf("correct=%v failed=%d attempted=%d, want both ops failed", res.Correct, res.Failed, res.Attempted)
	}
	if !strings.Contains(report.String(), "pinned") {
		t.Fatalf("report does not name the pinned mismatch:\n%s", report.String())
	}
}

func flipLastHex(h string) string {
	last := h[len(h)-1]
	flipped := byte('0')
	if last == '0' {
		flipped = '1'
	}
	return h[:len(h)-1] + string(flipped)
}

// TestTracedRunReportsEveryLayerMetric checks the traced run prints
// exactly the per-layer metrics BENCHMARK.json declares and that its model
// digests equal the untraced phase's.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("layer rows take a few seconds")
	}
	_, perLayer := benchmarkNames(t)
	slices.Sort(perLayer)
	o := quick("cnk-io", heldOutSeed, 1)
	o.trace = 1
	var report strings.Builder
	res, err := run(o, &report)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 2 {
		t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, report.String())
	}
	if got := metricNames(res); !slices.Equal(got, perLayer) {
		t.Fatalf("metrics %v\nBENCHMARK.json declares %v", got, perLayer)
	}
	for _, name := range []string{"machine.run_ms", "sim.events", "ciod.calls", "ion.admits", "fs.write_ns", "hw.new_chip_us"} {
		if !(res.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want > 0 on cnk-io", name, res.Metrics[name].Value)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.chansend", "bgcnk/internal/sim.(*Coro).dispatch", "bgcnk/internal/torus.(*Interface).deliver"}, "sim"},
		{[]string{"runtime.mallocgc", "bgcnk/internal/hw.newCacheArray", "bgcnk/internal/machine.New"}, "hw"},
		{[]string{"bgcnk/internal/ctrlsys/wal.(*Journal).Append", "bgcnk/internal/ctrlsys.(*ServiceNode).Drain"}, "ctrlsys"},
		{[]string{"bgcnk/internal/dcmf.(*Device).Send"}, "torus"},
		{[]string{"bgcnk/internal/barrier.(*Network).Enter"}, "collective"},
		{[]string{"bgcnk/internal/fwk.(*Kernel).tick"}, "kernel"},
		{[]string{"bgcnk/internal/apps.AllreduceBench", "bgcnk/internal/machine.(*Machine).Launch.func1"}, "other"},
		{[]string{"hash/fnv.(*sum64a).Write", "main.newIO.func1", "bgcnk/internal/machine.(*Machine).Launch.func1"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "sched"},
		{[]string{"runtime.memmove", "main.runPhase", "main.main"}, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 down to 1
	}
	v, pct, beyond := tailPercentile(xs)
	if v != 90 || pct != 90 || beyond != 10 {
		t.Fatalf("tail of 1..100 = %v (p%v, %d beyond), want 90 (p90, 10 beyond)", v, pct, beyond)
	}
	if v, _, beyond := tailPercentile([]float64{3, 1, 2}); v != 3 || beyond != 0 {
		t.Fatalf("tail of 3 samples = %v with %d beyond, want the maximum", v, beyond)
	}
}
