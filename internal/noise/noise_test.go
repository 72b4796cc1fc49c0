package noise

import (
	"testing"
	"testing/quick"

	"bgcnk/internal/sim"
)

func TestAnalyzeBasics(t *testing.T) {
	s := Analyze([]sim.Cycles{10, 20, 30, 40})
	if s.Min != 10 || s.Max != 40 || s.Mean != 25 || s.N != 4 {
		t.Fatalf("stats: %+v", s)
	}
	if s.MaxVariationPct != 300 {
		t.Fatalf("variation = %v", s.MaxVariationPct)
	}
}

func TestAnalyzeConstantSeries(t *testing.T) {
	s := Analyze([]sim.Cycles{7, 7, 7})
	if s.StdDev != 0 || s.MaxVariationPct != 0 {
		t.Fatalf("constant series: %+v", s)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	if s := Analyze(nil); s.N != 0 {
		t.Fatal("empty analyze should be zero value")
	}
}

func TestAnalyzePropertyBounds(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]sim.Cycles, len(raw))
		for i, v := range raw {
			samples[i] = sim.Cycles(v%1000000 + 1)
		}
		s := Analyze(samples)
		if s.Min > s.Max {
			return false
		}
		if float64(s.Min) > s.Mean || s.Mean > float64(s.Max) {
			return false
		}
		if s.P99 < s.Min || s.P99 > s.Max {
			return false
		}
		return s.StdDev >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBSPAmplificationMonotoneInNodes(t *testing.T) {
	// A noisy distribution: mostly min, occasional big spike.
	var samples []sim.Cycles
	for i := 0; i < 1000; i++ {
		if i%100 == 0 {
			samples = append(samples, 1300)
		} else {
			samples = append(samples, 1000)
		}
	}
	a1 := BSPAmplification(samples, 1, 500, 42)
	a64 := BSPAmplification(samples, 64, 500, 42)
	a4096 := BSPAmplification(samples, 4096, 500, 42)
	if !(a1 <= a64 && a64 <= a4096) {
		t.Fatalf("amplification not monotone: %v %v %v", a1, a64, a4096)
	}
	if a4096 < 1.2 {
		t.Fatalf("4096-node amplification %v should approach the spike", a4096)
	}
	// Noise-free distribution amplifies to exactly 1.
	flat := make([]sim.Cycles, 100)
	for i := range flat {
		flat[i] = 500
	}
	if amp := BSPAmplification(flat, 10000, 100, 1); amp != 1 {
		t.Fatalf("flat distribution amplified: %v", amp)
	}
}

func TestBSPAmplificationDeterministic(t *testing.T) {
	samples := []sim.Cycles{100, 110, 120, 130}
	if BSPAmplification(samples, 16, 100, 9) != BSPAmplification(samples, 16, 100, 9) {
		t.Fatal("same seed must reproduce")
	}
}

func TestStatsString(t *testing.T) {
	s := Analyze([]sim.Cycles{100, 200})
	if str := s.String(); len(str) == 0 {
		t.Fatal("empty string form")
	}
}
