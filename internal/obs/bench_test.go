package obs

import (
	"testing"

	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// benchRecorder records a fixed trace shaped like a small armed machine's:
// 4 096 spans cycling through every category over 16 compute nodes and
// two I/O nodes, closing-edge out of order, and the sampler's points for
// three counters every 10 000 cycles.
func benchRecorder() *Recorder {
	names := [NumCats]string{"run", "cnk:boot", "write", "ipi", "torus:pkt", "ciod:execute", "ion:credit"}
	r := New(Config{SampleEvery: 10_000})
	var tot Totals
	for i := 0; i < 4096; i++ {
		cat := Cat(i % int(NumCats))
		node := i % 18
		if node >= 16 {
			node = 15 - node // I/O nodes -1 and -2
		}
		start := sim.Cycles(i * 250)
		end := start + sim.Cycles(100+i%900)
		if i%5 == 0 {
			start -= 200 // emitted after a span that started later
		}
		r.Emit(cat, names[cat], node, i%4, start, end, uint64(i))
		tot[upc.SyscallTotal] += uint64(i % 3)
		tot[upc.TorusPacket] += uint64(i % 7)
		tot[upc.FunctionShip]++
		r.TickSample(end, func() Totals { return tot })
	}
	return r
}

func BenchmarkTraceMarshal(b *testing.B) {
	tr := benchRecorder().Trace()
	b.ReportAllocs()
	for b.Loop() {
		tr.Marshal()
	}
}

func BenchmarkTraceUnmarshal(b *testing.B) {
	wire := benchRecorder().Trace().Marshal()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Unmarshal(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChromeJSON(b *testing.B) {
	r := benchRecorder()
	b.ReportAllocs()
	for b.Loop() {
		r.ChromeJSON()
	}
}
