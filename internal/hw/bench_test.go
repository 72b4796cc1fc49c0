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
// reproducible-reset path does, so the reset keeps DDR contents. One line
// per core and one DDR word are touched first, so the chip holds the L1
// tag page, an L3 tag page and a DDR chunk, and every reset clears kept
// tag pages.
func BenchmarkChipReset(b *testing.B) {
	ch := NewChip(ChipConfig{})
	for c := range ch.Cores {
		ch.Cache.Access(c, PAddr(c)*L3LineSize, 8, false, 0)
	}
	ch.Mem.WriteU64(4096, 1)
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

// BenchmarkTLBLookup translates through a chip core's TLB, hitting a
// pinned 1 MB entry as every CNK access does: the lookup counts the hit
// in the chip's UPC unit and probes the (unarmed) parity fault source.
func BenchmarkTLBLookup(b *testing.B) {
	t := &NewChip(ChipConfig{}).Cores[0].TLB
	t.InsertPinned(TLBEntry{PID: 1, VBase: 0x100000, PBase: 0x400000, Size: Page1M, Perms: PermRW})
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, _, ok := t.Lookup(1, VAddr(0x100000+(i&0xfff)*8)); !ok {
			b.Fatal("pinned entry missed")
		}
		i++
	}
}
