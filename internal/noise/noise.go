// Package noise implements the FWQ (Fixed Work Quanta) methodology of
// paper Section V-A and the statistics the paper reports: per-iteration
// cycle counts, maximum variation percentages, standard deviations, and a
// Petrini-style bulk-synchronous amplification estimate showing how
// per-node jitter compounds at scale.
package noise

import (
	"fmt"
	"math"
	"sort"

	"bgcnk/internal/sim"
)

// Stats summarizes one core's FWQ samples.
type Stats struct {
	N      int
	Min    sim.Cycles
	Max    sim.Cycles
	Mean   float64
	StdDev float64
	// MaxVariationPct is (Max-Min)/Min * 100 — the paper's headline
	// metric ("The maximum variation is less than 0.006%").
	MaxVariationPct float64
	// P99 is the 99th percentile sample.
	P99 sim.Cycles
}

// Analyze computes Stats over samples.
func Analyze(samples []sim.Cycles) Stats {
	if len(samples) == 0 {
		return Stats{}
	}
	s := Stats{N: len(samples), Min: samples[0], Max: samples[0]}
	var sum float64
	for _, v := range samples {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		sum += float64(v)
	}
	s.Mean = sum / float64(len(samples))
	var ss float64
	for _, v := range samples {
		d := float64(v) - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(len(samples)))
	s.MaxVariationPct = float64(s.Max-s.Min) / float64(s.Min) * 100
	sorted := append([]sim.Cycles(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s.P99 = sorted[len(sorted)*99/100]
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("n=%d min=%d max=%d mean=%.1f stddev=%.1f maxvar=%.4f%%",
		s.N, uint64(s.Min), uint64(s.Max), s.Mean, s.StdDev, s.MaxVariationPct)
}

// BSPAmplification estimates the slowdown a bulk-synchronous application
// would see on `nodes` nodes whose per-step compute time is distributed
// like samples: each step takes the MAXIMUM across nodes (everyone waits
// for the slowest — paper Section V-A, citing Petrini's ASCI Q analysis).
// Sampling is deterministic given the seed. The result is
// E[step]/min(sample): 1.0 means noise-free.
func BSPAmplification(samples []sim.Cycles, nodes int, steps int, seed uint64) float64 {
	if len(samples) == 0 || nodes <= 0 || steps <= 0 {
		return 1
	}
	st := Analyze(samples)
	rng := sim.NewRNG(seed)
	var total float64
	for s := 0; s < steps; s++ {
		var worst sim.Cycles
		for n := 0; n < nodes; n++ {
			v := samples[rng.Intn(len(samples))]
			if v > worst {
				worst = v
			}
		}
		total += float64(worst)
	}
	return total / float64(steps) / float64(st.Min)
}
