// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed in a closed loop (one caller issues the next op
// when the last returns), times every op from outside, checks every op's
// simulated output against a pinned digest, and prints the metrics as one
// JSON object on the last line of standard output.
//
// Every timed number is host cost: wall time, allocation or heap.
// Simulated cycles and UPC counters are model output; they are printed on
// their own report lines and serve only as the correctness check.
//
//	perfbench --workload cnk-io --seed 1 --seconds 10 --trace 0
//	perfbench --regen            # re-pin reference.json at the default seed
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced and
// a traced phase and prints the per-layer metrics (README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"
)

// options are the command line plus the fields the tests set directly.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	regen    bool
	ref      string // pinned model digests
	ops      int    // fixed op count per timed phase; 0 = run for seconds
	setups   int    // set-ups timed for setup_s; the median is reported
}

func main() {
	o := options{ref: "perfbench/reference.json", setups: 15}
	flag.StringVar(&o.workload, "workload", "", "workload to run: fwk-allreduce, cnk-drain or cnk-io")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in host seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.BoolVar(&o.regen, "regen", false, "re-pin every workload's digests at the default seed into "+o.ref+" and exit")
	flag.Parse()

	if o.regen {
		if err := regenerate(o.ref, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checker holds each op's model digest to the pinned reference (at the
// default seed) and to the first op of the run with the same input.
type checker struct {
	pinned []uint64
	first  map[int]uint64
}

func newChecker(o options, variants int) (*checker, error) {
	c := &checker{first: map[int]uint64{}}
	if o.seed != defaultSeed {
		return c, nil
	}
	ref, err := loadReference(o.ref)
	if err != nil {
		return nil, err
	}
	c.pinned, err = ref.pinned(o.workload, variants)
	return c, err
}

// check returns why digest d of input variant v is wrong, or "".
func (c *checker) check(v int, d uint64) string {
	if c.pinned != nil && d != c.pinned[v] {
		return fmt.Sprintf("model digest %016x, pinned %016x", d, c.pinned[v])
	}
	if f, ok := c.first[v]; ok && f != d {
		return fmt.Sprintf("model digest %016x, first op with this input %016x", d, f)
	}
	c.first[v] = d
	return ""
}

// heapAtOp is the op after which the timed phase pauses to measure the
// live heap. The engine keeps every finished coroutine until Shutdown, so
// a reused machine's heap grows with each op; measuring at a fixed op
// keeps live_heap_mb independent of how many ops fit into the run.
const heapAtOp = 40

// phase is one closed-loop timed phase.
type phase struct {
	opsDone, attempted, failed int
	opMS                       []float64 // host CPU ms per op
	opWallMS                   []float64
	cpu, wall                  time.Duration // excluding the heap pause
	allocBytes                 uint64
	gcs                        uint32
	heapMB                     float64   // live heap after op heapAtOp, or after the last op
	outs                       []outcome // successful ops only
	firstFailure               string
}

func runPhase(w workload, chk *checker, o options, next *int) phase {
	var p phase
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := now()
	var paused interval
	limit := time.Duration(o.seconds * float64(time.Second))
	for {
		if o.ops > 0 && p.attempted >= o.ops {
			break
		}
		if o.ops == 0 && p.attempted > 0 && time.Since(start.wall)-paused.wall() >= limit {
			break
		}
		v := *next % w.variants()
		*next++
		var iv interval
		iv.start = now()
		out, err := w.op(v)
		iv.end = now()
		p.attempted++
		p.opMS = append(p.opMS, float64(iv.cpu().Nanoseconds())/1e6)
		p.opWallMS = append(p.opWallMS, float64(iv.wall().Nanoseconds())/1e6)
		why := out.failure
		if err != nil {
			why = err.Error()
		}
		if why == "" {
			why = chk.check(v, out.digest)
		}
		if why != "" {
			p.failed++
			if p.firstFailure == "" {
				p.firstFailure = fmt.Sprintf("op %d (input %d): %s", p.attempted-1, v, why)
			}
		} else {
			p.opsDone++
			p.outs = append(p.outs, out)
		}
		if p.attempted == heapAtOp {
			paused.start = now()
			p.heapMB = liveHeapMB()
			paused.end = now()
		}
	}
	end := now()
	p.cpu = end.cpu - start.cpu - paused.cpu()
	p.wall = end.wall.Sub(start.wall) - paused.wall()
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.gcs = after.NumGC - before.NumGC
	if p.attempted < heapAtOp {
		p.heapMB = liveHeapMB()
	}
	return p
}

// opsPerS is the phase's completed ops per host CPU second.
func (p phase) opsPerS() float64 { return float64(p.opsDone) / p.cpu.Seconds() }

// liveHeapMB forces a collection and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// setupTimed builds the workload o.setups times and keeps the last one,
// returning each set-up's host CPU seconds.
func setupTimed(o options) (workload, []float64, error) {
	n := max(o.setups, 1)
	secs := make([]float64, 0, n)
	var w workload
	for i := 0; i < n; i++ {
		if w != nil {
			w.close()
		}
		t0 := now()
		var err error
		w, err = setup(o.workload, o.seed)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, (now().cpu - t0.cpu).Seconds())
	}
	return w, secs, nil
}

func run(o options, report io.Writer) (*result, error) {
	if o.trace != 0 && o.trace != 1 {
		return nil, errors.New("-trace must be 0 or 1")
	}
	w, setups, err := setupTimed(o)
	if err != nil {
		return nil, err
	}
	defer w.close()
	chk, err := newChecker(o, w.variants())
	if err != nil {
		return nil, err
	}
	if o.trace == 1 {
		return runTraced(o, w, chk, report)
	}

	heapSetup := liveHeapMB()
	next := 0
	p := runPhase(w, chk, o, &next)

	res := &result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed}
	tail, pct, beyond := tailPercentile(p.opMS)
	perOp := float64(max(p.attempted, 1))
	res.Metrics = map[string]metric{
		"ops_per_s":       {p.opsPerS(), "1/s"},
		"op_ms_p50":       {median(p.opMS), "ms"},
		"op_ms_tail":      {tail, "ms"},
		"alloc_mb_per_op": {float64(p.allocBytes) / 1e6 / perOp, "MB"},
		"live_heap_mb":    {max(heapSetup, p.heapMB), "MB"},
		"setup_s":         {median(setups), "s"},
	}
	wallTail, _, _ := tailPercentile(p.opWallMS)
	fmt.Fprintf(report, "workload %s seed %d: %d ops in %.2f s CPU (%.2f s wall), %d failed (fail_ratio %.4f)\n",
		o.workload, o.seed, p.attempted, p.cpu.Seconds(), p.wall.Seconds(), p.failed, float64(p.failed)/perOp)
	fmt.Fprintf(report, "host: op_ms_tail is p%.1f of %d ops (%d ops beyond it); setup_s is the median of %d set-ups\n",
		pct, p.attempted, beyond, len(setups))
	fmt.Fprintf(report, "host (wall clock): %.3f ops/s, op ms p50 %.3f, tail %.3f\n",
		float64(p.opsDone)/p.wall.Seconds(), median(p.opWallMS), wallTail)
	reportModel(report, o, chk, w, p)
	return res, nil
}

// reportModel prints the model output apart from the host numbers.
func reportModel(report io.Writer, o options, chk *checker, w workload, p phase) {
	ref := "first op with the same input (off the default seed)"
	if chk.pinned != nil {
		ref = "pinned reference " + o.ref
	}
	fmt.Fprintf(report, "model: digests checked against %s\n", ref)
	for v := 0; v < w.variants(); v++ {
		if d, ok := chk.first[v]; ok {
			fmt.Fprintf(report, "model: input %d digest %016x\n", v, d)
		}
	}
	if len(p.outs) > 0 {
		o0 := p.outs[0]
		fmt.Fprintf(report, "model: first op simulated %d cycles, %d events\n", o0.cycles, o0.events)
	}
	if p.firstFailure != "" {
		fmt.Fprintf(report, "FAILED: %s\n", p.firstFailure)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest percentile of xs that has at least
// ten samples beyond it, that percentile, and the count beyond it. With
// ten or fewer samples it returns the maximum.
func tailPercentile(xs []float64) (value, pct float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	idx := max(n-11, 0)
	if n <= 10 {
		idx = n - 1
	}
	return s[idx], 100 * float64(idx+1) / float64(n), n - 1 - idx
}
