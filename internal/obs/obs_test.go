package obs

import (
	"bytes"
	"errors"
	"testing"

	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

func sampleTrace() Trace {
	r := New(Config{})
	r.Emit(CatBoot, "cnk:boot", 0, 0, 0, 37_000, 31_450)
	r.Emit(CatSyscall, "open", 0, 1, 40_000, 43_500, 2)
	r.Emit(CatMsg, "torus:pkt", 1, 0, 41_000, 42_000, 256)
	// Out-of-order start (closing-edge emission order), negative node.
	r.Emit(CatIO, "ciod:execute", -1, 7, 39_000, 44_000, 3)
	r.Emit(CatJob, "submit", 3, 2, 50_000, 50_000, 1)
	return r.Trace()
}

// Emit records a span of every category; CatCounts counts them per
// category.
func TestEmitMaskAndCounts(t *testing.T) {
	r := New(Config{})
	r.Emit(CatBoot, "b", 0, 0, 0, 1, 0)
	r.Emit(CatSyscall, "s", 0, 0, 0, 1, 0)
	r.Emit(CatMsg, "m", 0, 0, 2, 3, 0)
	r.Emit(CatMsg, "m", 0, 0, 4, 5, 0)
	if got := r.SpanCount(); got != 4 {
		t.Fatalf("SpanCount = %d, want 4", got)
	}
	cc := r.CatCounts()
	if cc[CatBoot] != 1 || cc[CatSyscall] != 1 || cc[CatMsg] != 2 || cc[CatIO] != 0 {
		t.Fatalf("CatCounts = %v", cc)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Emit(CatBoot, "b", 0, 0, 0, 1, 0)
	r.TickSample(100, func() Totals { return Totals{} })
	r.Reset()
	if r.SpanCount() != 0 || r.SampleCount() != 0 || r.SampleEvery() != 0 {
		t.Fatal("nil recorder reported nonzero state")
	}
	if r.ChromeJSON() != nil || r.MarshalBinary() != nil {
		t.Fatal("nil recorder exported bytes")
	}
	if tr := r.Trace(); len(tr.Spans) != 0 || len(tr.Samples) != 0 {
		t.Fatal("nil recorder produced a trace")
	}
}

func TestSpanPoolBlocks(t *testing.T) {
	r := New(Config{})
	for i := 0; i < 3*spanBlock+5; i++ {
		r.Emit(CatMsg, "m", i, 0, sim.Cycles(i), sim.Cycles(i+1), uint64(i))
	}
	if got := r.SpanCount(); got != 3*spanBlock+5 {
		t.Fatalf("SpanCount = %d", got)
	}
	tr := r.Trace()
	for i, s := range tr.Spans {
		if s.Start != sim.Cycles(i) || s.Arg != uint64(i) {
			t.Fatalf("span %d out of order: %+v", i, s)
		}
	}
}

func TestSamplerDeltas(t *testing.T) {
	r := New(Config{SampleEvery: 100})
	var tot Totals
	snap := func() Totals { return tot }

	r.TickSample(50, snap) // before the first boundary: nothing
	if r.SampleCount() != 0 {
		t.Fatal("sampled before the first boundary")
	}
	tot[upc.SyscallTotal] = 5
	r.TickSample(120, snap)
	tot[upc.SyscallTotal] = 5 // unchanged across this interval
	r.TickSample(230, snap)
	tot[upc.SyscallTotal] = 9
	tot[upc.Interrupt] = 2
	r.TickSample(460, snap) // skips boundaries 300/400 -> one point at 400

	tr := r.Trace()
	if len(tr.Samples) != 2 {
		t.Fatalf("samples = %d, want 2 (empty interval suppressed): %+v", len(tr.Samples), tr.Samples)
	}
	if tr.Samples[0].At != 100 || tr.Samples[0].Deltas[0].Value != 5 {
		t.Fatalf("first sample %+v", tr.Samples[0])
	}
	s1 := tr.Samples[1]
	if s1.At != 400 || len(s1.Deltas) != 2 {
		t.Fatalf("second sample %+v", s1)
	}
	// Deltas sorted by counter index, values are the interval movement.
	if s1.Deltas[0].Counter >= s1.Deltas[1].Counter {
		t.Fatalf("deltas not sorted: %+v", s1.Deltas)
	}
}

func TestSamplerSignedRollback(t *testing.T) {
	// A checkpoint restore rolls counters backwards; the delta must stay
	// meaningful (signed), not wrap.
	r := New(Config{SampleEvery: 100})
	tot := Totals{}
	tot[upc.SyscallTotal] = 50
	r.TickSample(100, func() Totals { return tot })
	tot[upc.SyscallTotal] = 20
	r.TickSample(200, func() Totals { return tot })
	tr := r.Trace()
	if len(tr.Samples) != 2 || tr.Samples[1].Deltas[0].Value != -30 {
		t.Fatalf("rollback delta: %+v", tr.Samples)
	}
}

func TestChromeJSONDeterministic(t *testing.T) {
	build := func() *Recorder {
		r := New(Config{SampleEvery: 100})
		r.Emit(CatBoot, "cnk:boot", 0, 0, 0, 37_000, 1)
		r.Emit(CatIO, "open", -1, 2, 40_000, 44_000, 3)
		tot := Totals{}
		tot[upc.SyscallTotal] = 4
		r.TickSample(150, func() Totals { return tot })
		return r
	}
	a, b := build().ChromeJSON(), build().ChromeJSON()
	if !bytes.Equal(a, b) {
		t.Fatal("ChromeJSON not byte-identical across identical recorders")
	}
	for _, want := range []string{`"ph":"X"`, `"ph":"C"`, `"ph":"M"`, `"name":"ion0"`, `"cat":"boot"`} {
		if !bytes.Contains(a, []byte(want)) {
			t.Fatalf("JSON missing %s:\n%s", want, a)
		}
	}
}

func TestJSONStringEscaping(t *testing.T) {
	got := string(appendJSONString(nil, "a\"b\\c\x01d"))
	if got != `a\"b\\c\u0001d` {
		t.Fatalf("escaped = %q", got)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	tr := sampleTrace()
	tr.Samples = []Sample{
		{At: 100, Deltas: []Delta{{Counter: upc.SyscallTotal, Value: 5}}},
		{At: 300, Deltas: []Delta{{Counter: upc.Interrupt, Value: -2}, {Counter: upc.SyscallTotal, Value: 9}}},
	}
	// Sample deltas must be sorted by counter index for canonical wire
	// form; fix up the hand-built fixture if the enum order disagrees.
	for _, s := range tr.Samples {
		for i := 1; i < len(s.Deltas); i++ {
			if s.Deltas[i-1].Counter >= s.Deltas[i].Counter {
				s.Deltas[i-1], s.Deltas[i] = s.Deltas[i], s.Deltas[i-1]
			}
		}
	}
	wire := tr.Marshal()
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if len(got.Spans) != len(tr.Spans) || len(got.Samples) != len(tr.Samples) {
		t.Fatalf("shape mismatch: %d/%d spans, %d/%d samples",
			len(got.Spans), len(tr.Spans), len(got.Samples), len(tr.Samples))
	}
	for i := range tr.Spans {
		if got.Spans[i] != tr.Spans[i] {
			t.Fatalf("span %d: got %+v want %+v", i, got.Spans[i], tr.Spans[i])
		}
	}
	if !bytes.Equal(got.Marshal(), wire) {
		t.Fatal("re-encode not byte-identical")
	}
}

func TestCodecRejectsTruncation(t *testing.T) {
	wire := sampleTrace().Marshal()
	for cut := 0; cut < len(wire); cut++ {
		if _, err := Unmarshal(wire[:cut]); err == nil {
			t.Fatalf("accepted truncation at %d/%d", cut, len(wire))
		}
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	wire := sampleTrace().Marshal()
	cases := map[string][]byte{
		"trailing garbage":   append(append([]byte(nil), wire...), 0),
		"bad magic":          append([]byte("XGOB"), wire[4:]...),
		"bad version":        append(append([]byte(nil), wire[:4]...), append([]byte{99}, wire[5:]...)...),
		"non-minimal varint": {'B', 'G', 'O', 'B', 1, 0x80, 0x00, 0x00},
		"huge counts":        {'B', 'G', 'O', 'B', 1, 0xff, 0xff, 0xff, 0x7f, 0x00},
	}
	for name, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !errors.Is(err, ErrTraceCorrupt) && !errors.Is(err, ErrTraceTruncated) {
			t.Errorf("%s: untyped error %v", name, err)
		}
	}
}

func TestCodecEmptyTrace(t *testing.T) {
	wire := Trace{}.Marshal()
	got, err := Unmarshal(wire)
	if err != nil || len(got.Spans) != 0 || len(got.Samples) != 0 {
		t.Fatalf("empty round-trip: %v %+v", err, got)
	}
}

func TestResetKeepsConfig(t *testing.T) {
	r := New(Config{SampleEvery: 100})
	r.Emit(CatBoot, "b", 0, 0, 0, 1, 0)
	tot := Totals{}
	tot[upc.SyscallTotal] = 1
	r.TickSample(100, func() Totals { return tot })
	r.Reset()
	if r.SpanCount() != 0 || r.SampleCount() != 0 {
		t.Fatal("Reset left data behind")
	}
	if r.SampleEvery() != 100 {
		t.Fatal("Reset dropped the sampler config")
	}
	// The sampler's baseline rewinds too: the next sample is an absolute
	// restart, as after a machine reboot.
	r.TickSample(100, func() Totals { return tot })
	if r.SampleCount() != 1 {
		t.Fatal("sampler did not rewind on Reset")
	}
}
