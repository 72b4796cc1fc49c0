// Package obs is the structured observability layer: cycle-timestamped
// spans and a periodic delta-encoded UPC time-series, recorded from every
// layer of the stack (control system, kernels, torus, collective trees,
// CIOD, I/O-node aggregation) into one Recorder per machine.
//
// The contract matches internal/upc's: observation charges zero simulated
// cycles and stays off the hot path. Emit never sleeps, never schedules
// an event, and amortizes allocation into pooled fixed-size span blocks;
// the sampler piggybacks on the engine's clock-advance hook instead of
// scheduling events of its own (a self-rescheduling sampler event would
// keep the queue non-empty forever and perturb every run's idle
// detection). A machine built without a Recorder is bit-exact with one
// built before this package existed, and arming a Recorder changes no
// trace hash, exit code, counter or RAS log — TestObsOffChangesNothing
// and TestObsArmedInert gate both directions.
//
// Every method on Recorder is nil-receiver safe, so instrumented code
// calls r.Emit(...) unconditionally and a nil recorder means "off".
package obs

import (
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// Cat is a span category; categories map onto Chrome trace-event "cat"
// fields.
type Cat uint8

// Span categories.
const (
	CatJob     Cat = iota // control-system job lifecycle (submit/boot/run/ckpt/restart/teardown)
	CatBoot               // kernel boot sequences
	CatSyscall            // per-thread system calls (entry to return)
	CatSched              // scheduler occupancy: FWK ticks and daemon bursts, CNK IPIs
	CatMsg                // messaging: torus packets, collective-tree sends
	CatIO                 // function shipping: CIOD calls and ION daemon execution
	CatStall              // backpressure: ION ingress-credit and shared-uplink stalls
	NumCats
)

var catNames = [NumCats]string{"job", "boot", "syscall", "sched", "msg", "io", "stall"}

func (c Cat) String() string {
	if c < NumCats {
		return catNames[c]
	}
	return "cat?"
}

// Config arms a machine's (or service node's) span recorder.
type Config struct {
	// SampleEvery, when nonzero, arms the periodic UPC sampler: each time
	// the simulation clock crosses a multiple of this interval, the
	// machine-wide counter totals are snapshotted and the nonzero deltas
	// since the previous sample are recorded as one time-series point.
	SampleEvery sim.Cycles
}

// Span is one recorded interval (or instant, when Dur is zero). Node is
// the emitting location: compute nodes use their chip ID, I/O nodes use
// -(tree+1), and control-system job spans use the job ID.
type Span struct {
	Cat   Cat
	Name  string
	Node  int32
	Tid   int32
	Start sim.Cycles
	Dur   sim.Cycles
	Arg   uint64
}

// Delta is one counter's movement between consecutive samples. Value is
// signed because a checkpoint restore legitimately rolls the UPC block
// backwards.
type Delta struct {
	Counter upc.Counter
	Value   int64
}

// Sample is one delta-encoded time-series point; samples where no
// counter moved are suppressed entirely.
type Sample struct {
	At     sim.Cycles
	Deltas []Delta
}

// Trace is a recorder's complete output: spans in emission order plus
// the sampler's time-series. It is what the binary codec round-trips.
type Trace struct {
	Spans   []Span
	Samples []Sample
}

// spanBlock sizes the recorder's span pool chunks: Emit appends into
// preallocated fixed-size blocks so the hot path never reallocates a
// growing slice and allocates at most once per 1024 spans.
const spanBlock = 1024

// Totals is a machine-wide counter total vector (summed over every slot
// of every node), the sampler's input.
type Totals [upc.NumCounters]uint64

// Recorder accumulates spans and samples for one machine or service
// node. All methods are nil-receiver safe; a nil *Recorder records
// nothing and costs one branch per call site.
type Recorder struct {
	every     sim.Cycles
	pidPrefix string

	blocks  [][]Span
	nspans  int
	samples []Sample
	lastAt  sim.Cycles
	last    Totals
}

// New builds a recorder from cfg.
func New(cfg Config) *Recorder {
	return &Recorder{every: cfg.SampleEvery, pidPrefix: "node"}
}

// SetPidPrefix names non-negative span nodes in the JSON export
// ("node" by default; the control system uses "job").
func (r *Recorder) SetPidPrefix(p string) {
	if r != nil {
		r.pidPrefix = p
	}
}

// SampleEvery reports the sampler interval (zero when the sampler is
// off, or the recorder is nil).
func (r *Recorder) SampleEvery() sim.Cycles {
	if r == nil {
		return 0
	}
	return r.every
}

// Emit records one span. It charges no simulated cycles and must not be
// given an end before start (spans are emitted at their closing edge,
// with the start captured when the interval opened).
func (r *Recorder) Emit(cat Cat, name string, node, tid int, start, end sim.Cycles, arg uint64) {
	if r == nil {
		return
	}
	if len(r.blocks) == 0 || len(r.blocks[len(r.blocks)-1]) == spanBlock {
		r.blocks = append(r.blocks, make([]Span, 0, spanBlock))
	}
	i := len(r.blocks) - 1
	r.blocks[i] = append(r.blocks[i], Span{
		Cat: cat, Name: name,
		Node: int32(node), Tid: int32(tid),
		Start: start, Dur: end - start, Arg: arg,
	})
	r.nspans++
}

// TickSample drives the sampler: called from the engine's clock-advance
// hook with the new simulation time and a closure producing the current
// machine-wide counter totals. When now has crossed one or more sampling
// boundaries since the last sample, one delta point is recorded at the
// most recent boundary (intermediate empty intervals collapse, keeping
// the series compact on idle machines).
func (r *Recorder) TickSample(now sim.Cycles, totals func() Totals) {
	if r == nil || r.every == 0 || now < r.lastAt+r.every {
		return
	}
	at := now - now%r.every
	cur := totals()
	var ds []Delta
	for c := range cur {
		if cur[c] != r.last[c] {
			ds = append(ds, Delta{Counter: upc.Counter(c), Value: int64(cur[c] - r.last[c])})
		}
	}
	r.last = cur
	r.lastAt = at
	if len(ds) > 0 {
		r.samples = append(r.samples, Sample{At: at, Deltas: ds})
	}
}

// SpanCount reports the number of recorded spans.
func (r *Recorder) SpanCount() int {
	if r == nil {
		return 0
	}
	return r.nspans
}

// SampleCount reports the number of recorded time-series points.
func (r *Recorder) SampleCount() int {
	if r == nil {
		return 0
	}
	return len(r.samples)
}

// CatCounts reports recorded spans per category.
func (r *Recorder) CatCounts() (out [NumCats]int) {
	if r == nil {
		return
	}
	for _, blk := range r.blocks {
		for i := range blk {
			out[blk[i].Cat]++
		}
	}
	return
}

// Trace copies the recorder's output into one contiguous Trace.
func (r *Recorder) Trace() Trace {
	if r == nil {
		return Trace{}
	}
	t := Trace{Spans: make([]Span, 0, r.nspans)}
	for _, blk := range r.blocks {
		t.Spans = append(t.Spans, blk...)
	}
	if len(r.samples) > 0 {
		t.Samples = append([]Sample(nil), r.samples...)
	}
	return t
}

// Reset drops every recorded span and sample and rewinds the sampler,
// keeping the configuration. The machine calls this on Reboot: a
// rebooted partition starts a fresh trace, exactly as its counters and
// RNGs restart.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.blocks = nil
	r.nspans = 0
	r.samples = nil
	r.lastAt = 0
	r.last = Totals{}
}
