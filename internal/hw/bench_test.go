package hw

import (
	"testing"

	"bgcnk/internal/sim"
)

func BenchmarkNewChip(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		NewChip(ChipConfig{})
	}
}

// BenchmarkChipReset resets a chip whose DDR is in self-refresh, as the
// reproducible-reset path does, so the reset keeps DDR contents.
func BenchmarkChipReset(b *testing.B) {
	ch := NewChip(ChipConfig{})
	ch.Mem.EnterSelfRefresh()
	b.ReportAllocs()
	for b.Loop() {
		ch.Reset()
	}
}

// BenchmarkCacheAccess drives CacheSim.Access with a seeded mix of 8-byte
// loads and one-in-eight stores from all four cores over 8 MB, so every
// level of the hierarchy is hit.
func BenchmarkCacheAccess(b *testing.B) {
	cs := NewCacheSim(CoresPerChip)
	rng := sim.NewRNG(2)
	addrs := make([]PAddr, 4096)
	for i := range addrs {
		addrs[i] = PAddr(rng.Intn(8<<20)) &^ 7
	}
	var now sim.Cycles
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		d, _ := cs.Access(i&3, addrs[i&4095], 8, i&7 == 0, now)
		now += d
		i++
	}
}
