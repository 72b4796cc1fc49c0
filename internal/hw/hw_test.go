package hw

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"testing"
	"testing/quick"

	"bgcnk/internal/sim"
)

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := NewMemory(1 << 20)
	src := []byte("the quick brown fox")
	m.Write(100, src)
	dst := make([]byte, len(src))
	m.Read(100, dst)
	if !bytes.Equal(src, dst) {
		t.Fatalf("round trip: got %q", dst)
	}
}

func TestMemoryCrossesChunkBoundary(t *testing.T) {
	m := NewMemory(1 << 20)
	src := make([]byte, 1000)
	for i := range src {
		src[i] = byte(i)
	}
	pa := PAddr(memChunk - 500)
	m.Write(pa, src)
	dst := make([]byte, len(src))
	m.Read(pa, dst)
	if !bytes.Equal(src, dst) {
		t.Fatal("chunk-spanning round trip failed")
	}
}

func TestMemoryZeroFill(t *testing.T) {
	m := NewMemory(1 << 20)
	dst := []byte{1, 2, 3, 4}
	m.Read(5000, dst)
	for _, b := range dst {
		if b != 0 {
			t.Fatal("unwritten memory should read as zero")
		}
	}
}

func TestMemoryOutOfRangePanics(t *testing.T) {
	m := NewMemory(1024)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range access")
		}
	}()
	m.Write(1020, []byte{1, 2, 3, 4, 5})
}

func TestMemoryU64BigEndian(t *testing.T) {
	m := NewMemory(1 << 16)
	m.WriteU64(64, 0x0102030405060708)
	var b [8]byte
	m.Read(64, b[:])
	if b[0] != 1 || b[7] != 8 {
		t.Fatalf("not big-endian: % x", b)
	}
	if v := m.ReadU64(64); v != 0x0102030405060708 {
		t.Fatalf("ReadU64 = %#x", v)
	}
}

func TestMemoryU64PropertyRoundTrip(t *testing.T) {
	m := NewMemory(1 << 16)
	f := func(v uint64, off uint16) bool {
		pa := PAddr(off % 60000)
		m.WriteU64(pa, v)
		return m.ReadU64(pa) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelfRefreshPreservesAcrossReset(t *testing.T) {
	ch := NewChip(ChipConfig{ID: 0})
	ch.Mem.Write(4096, []byte("persistent"))
	ch.Mem.EnterSelfRefresh()
	ch.Reset()
	got := make([]byte, 10)
	ch.Mem.Read(4096, got)
	if string(got) != "persistent" {
		t.Fatalf("self-refresh lost data: %q", got)
	}
}

func TestResetWithoutSelfRefreshLosesDDR(t *testing.T) {
	ch := NewChip(ChipConfig{ID: 0})
	ch.Mem.Write(4096, []byte("volatile"))
	ch.Reset()
	got := make([]byte, 8)
	ch.Mem.Read(4096, got)
	for _, b := range got {
		if b != 0 {
			t.Fatal("reset without self-refresh should scramble DDR")
		}
	}
}

func TestTLBStaticMapNoMisses(t *testing.T) {
	var tlb TLB
	tlb.InsertPinned(TLBEntry{PID: 1, VBase: 0, PBase: 0x1000000, Size: Page16M, Perms: PermRWX})
	for va := VAddr(0); va < VAddr(Page16M); va += 123457 {
		pa, perm, ok := tlb.Lookup(1, va)
		if !ok {
			t.Fatalf("miss at %#x under static map", uint64(va))
		}
		if pa != 0x1000000+PAddr(va) {
			t.Fatalf("bad translation %#x -> %#x", uint64(va), uint64(pa))
		}
		if !perm.Has(PermRW) {
			t.Fatal("perms lost")
		}
	}
	if tlb.Misses != 0 {
		t.Fatalf("misses = %d, want 0", tlb.Misses)
	}
}

func TestTLBMissAndDynamicFill(t *testing.T) {
	var tlb TLB
	if _, _, ok := tlb.Lookup(1, 0x5000); ok {
		t.Fatal("empty TLB must miss")
	}
	tlb.Insert(TLBEntry{PID: 1, VBase: 0x5000, PBase: 0x9000, Size: Page4K, Perms: PermRW})
	if pa, _, ok := tlb.Lookup(1, 0x5FFF); !ok || pa != 0x9FFF {
		t.Fatalf("fill failed: pa=%#x ok=%v", uint64(pa), ok)
	}
}

func TestTLBASIDIsolation(t *testing.T) {
	var tlb TLB
	tlb.Insert(TLBEntry{PID: 1, VBase: 0, PBase: 0, Size: Page1M, Perms: PermRW})
	if _, _, ok := tlb.Lookup(2, 100); ok {
		t.Fatal("translation leaked across address spaces")
	}
	tlb.InvalidateASID(1)
	if _, _, ok := tlb.Lookup(1, 100); ok {
		t.Fatal("InvalidateASID left entry")
	}
}

func TestTLBRoundRobinEvictionSparesPinned(t *testing.T) {
	var tlb TLB
	tlb.InsertPinned(TLBEntry{PID: 9, VBase: 0xF0000000, PBase: 0, Size: Page1M, Perms: PermRW})
	// Overfill with dynamic entries.
	for i := 0; i < TLBSize*2; i++ {
		tlb.Insert(TLBEntry{PID: 1, VBase: VAddr(i) * VAddr(Page4K), PBase: 0, Size: Page4K, Perms: PermRW})
	}
	if _, _, ok := tlb.Lookup(9, 0xF0000000); !ok {
		t.Fatal("pinned entry evicted")
	}
	if tlb.ValidCount() != TLBSize {
		t.Fatalf("valid = %d, want %d", tlb.ValidCount(), TLBSize)
	}
}

func TestTLBAllPinnedInsertPanics(t *testing.T) {
	var tlb TLB
	for i := 0; i < TLBSize; i++ {
		tlb.InsertPinned(TLBEntry{PID: 1, VBase: VAddr(i) << 20, PBase: 0, Size: Page1M, Perms: PermRW})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic inserting into fully pinned TLB")
		}
	}()
	tlb.Insert(TLBEntry{PID: 1, VBase: 0xFF000000, Size: Page4K, Perms: PermRW})
}

func TestCacheL1HitAfterWarmup(t *testing.T) {
	cs := NewCacheSim(4)
	c0, _ := cs.Access(0, 0x1000, 2048, false, 0)
	if c0 == 0 {
		t.Fatal("cold access should cost cycles")
	}
	c1, _ := cs.Access(0, 0x1000, 2048, false, 1000)
	if c1 != 0 {
		t.Fatalf("warm L1 access cost %d, want 0", c1)
	}
	if cs.L1Misses[0] == 0 || cs.L1Hits[0] == 0 {
		t.Fatal("counters not updated")
	}
}

func TestCachePrivateL1SharedL3(t *testing.T) {
	cs := NewCacheSim(4)
	cs.Access(0, 0x2000, 64, false, 0) // cold: misses to DDR
	cost1, _ := cs.Access(1, 0x2000, 64, false, 100)
	// Core 1 misses its private L1 but hits shared L3.
	if cost1 == 0 {
		t.Fatal("core 1 should miss its own L1")
	}
	if cost1 >= CostDDR {
		t.Fatalf("core 1 cost %d should be an L3 hit (<%d)", cost1, CostDDR)
	}
}

// cacheStream drives a seeded CacheSim and digests each (cost, event)
// result it sees, plus every counter when asked.
type cacheStream struct {
	cs  *CacheSim
	rng *sim.RNG
	h   hash.Hash64
	buf []byte
	now sim.Cycles
}

func newCacheStream(m L3Mapping, seed uint64) *cacheStream {
	s := &cacheStream{cs: NewCacheSim(CoresPerChip), rng: sim.NewRNG(seed), h: fnv.New64a()}
	s.cs.SetL3Mapping(m)
	return s
}

func (s *cacheStream) put(vs ...uint64) {
	s.buf = s.buf[:0]
	for _, v := range vs {
		s.buf = binary.LittleEndian.AppendUint64(s.buf, v)
	}
	s.h.Write(s.buf)
}

func (s *cacheStream) counters() {
	cs := s.cs
	for c := range cs.L1Hits {
		s.put(cs.L1Hits[c], cs.L1Misses[c], cs.StoreMisses[c])
	}
	s.put(cs.L3Hits, cs.L3Misses, cs.RefreshStalls, uint64(cs.RefreshStallCycles))
}

var streamSizes = [...]uint32{0, 1, 8, 64, 100}

// access touches pa from core with a random size, one time in 97 first
// arming parity on a random core.
func (s *cacheStream) access(core int, pa PAddr, write bool) {
	if s.rng.Intn(97) == 0 {
		s.cs.ArmL1Parity(s.rng.Intn(CoresPerChip))
	}
	size := streamSizes[s.rng.Intn(len(streamSizes))]
	cost, ev := s.cs.Access(core, pa, size, write, s.now)
	s.put(uint64(cost), uint64(ev))
	s.now += cost + sim.Cycles(1+s.rng.Intn(64))
}

// lines returns the addresses of n L3 lines that keep accepts, scanning
// up from a random line.
func (s *cacheStream) lines(n int, keep func(l3line uint64) bool) []uint64 {
	var lines []uint64
	for l := uint64(s.rng.Intn(1 << 16)); len(lines) < n; l++ {
		if keep(l) {
			lines = append(lines, l*L3LineSize)
		}
	}
	return lines
}

// mix makes n accesses to random members of lines from random cores, one
// in four a store.
func (s *cacheStream) mix(n int, lines []uint64) {
	for i := 0; i < n; i++ {
		s.access(s.rng.Intn(CoresPerChip), PAddr(lines[s.rng.Intn(len(lines))]), s.rng.Intn(4) == 0)
	}
}

// hammer has core touch lines rounds times over in order, so when they
// share a set its round-robin victim wraps, then as many times again in
// random order, so lines also hit in every way.
func (s *cacheStream) hammer(core int, lines []uint64, rounds int) {
	for r := 0; r < rounds; r++ {
		for _, pa := range lines {
			s.access(core, PAddr(pa), s.rng.Intn(8) == 0)
		}
	}
	for i := 0; i < rounds*len(lines); i++ {
		s.access(core, PAddr(lines[s.rng.Intn(len(lines))]), s.rng.Intn(8) == 0)
	}
}

// cacheStreamDigest drives a seeded CacheSim through an access stream
// that exercises every path of the model and digests each (cost, event)
// result plus every counter. The stream mixes random lines over 16 MB (L3
// capacity misses), L1-set and L3-set conflict runs deeper than the 16
// ways (round-robin eviction wraps), line-spanning sizes, stores, armed
// parity, and a FlushAll and a reset mid-stream.
func cacheStreamDigest(m L3Mapping, seed uint64) uint64 {
	s := newCacheStream(m, seed)
	random := func(n int) {
		for i := 0; i < n; i++ {
			s.access(s.rng.Intn(CoresPerChip), PAddr(s.rng.Intn(16<<20)), s.rng.Intn(4) == 0)
		}
	}
	// conflict has one core hammer depth lines that share one L1 set (or
	// one L3 set).
	conflict := func(l3 bool, depth, rounds int) {
		core := s.rng.Intn(CoresPerChip)
		var lines []uint64
		if l3 {
			target := uint64(s.rng.Intn(L3Sets))
			lines = s.lines(depth, func(l uint64) bool { return s.cs.l3index(l) == target })
		} else {
			base := uint64(s.rng.Intn(L1Sets)) * L1LineSize
			for i := 0; i < depth; i++ {
				lines = append(lines, base+uint64(i)*L1Sets*L1LineSize)
			}
		}
		s.hammer(core, lines, rounds)
	}
	for phase := 0; phase < 3; phase++ {
		random(4000)
		conflict(false, L1Ways+5, 4)
		conflict(true, L3Ways+7, 4)
		random(2000)
		switch phase {
		case 0:
			s.cs.FlushAll()
		case 1:
			s.counters()
			s.cs.reset()
		}
	}
	s.counters()
	return s.h.Sum64()
}

// sparseStreamDigest digests a seeded stream confined to three of the
// L3's sixteen tag pages, none adjacent to another. A store-only run
// into the cold cache from one core comes first: store misses install no
// L1 line, so that core's loads of the same lines that follow miss L1 and
// hit L3. After a FlushAll the stream fills a second page nothing has
// touched, including a conflict run deeper than the ways in one of its
// sets, and after a reset a third, with the first page mixed in again.
// Every line sits where a line-spanning access stays in its own page.
func sparseStreamDigest(m L3Mapping, seed uint64) uint64 {
	s := newCacheStream(m, seed)
	page := func(l uint64) uint64 { return s.cs.l3index(l) / tagPageSets }
	var pages []uint64
	for len(pages) < 3 {
		pg, near := uint64(s.rng.Intn(L3Sets/tagPageSets)), false
		for _, q := range pages {
			near = near || (pg-q+1)%(L3Sets/tagPageSets) <= 2
		}
		if !near {
			pages = append(pages, pg)
		}
	}
	inPage := func(pg uint64) func(uint64) bool {
		return func(l uint64) bool { return page(l) == pg && page(l+1) == pg }
	}
	// absent panics if the stream's next fills would not be the first
	// into tag page pg of arr.
	absent := func(arr *cacheArray, pg uint64) {
		if arr.pages[pg] != nil {
			panic(fmt.Sprintf("sparse stream: tag page %d exists before its first fill", pg))
		}
	}
	a := s.lines(48, inPage(pages[0]))
	core := s.rng.Intn(CoresPerChip)
	for _, pa := range a {
		s.access(core, PAddr(pa), true)
	}
	absent(&s.cs.l1, 0)
	for _, pa := range a {
		s.access(core, PAddr(pa), false)
	}
	s.mix(500, a)
	s.counters()
	s.cs.FlushAll()

	absent(&s.cs.l3, pages[1])
	b := s.lines(64, inPage(pages[1]))
	s.mix(1000, b)
	target := pages[1]*tagPageSets + uint64(s.rng.Intn(tagPageSets))
	s.hammer(s.rng.Intn(CoresPerChip), s.lines(L3Ways+7, func(l uint64) bool {
		return s.cs.l3index(l) == target && page(l+1) == pages[1]
	}), 4)
	s.counters()
	s.cs.reset()

	absent(&s.cs.l3, pages[2])
	s.mix(1000, append(s.lines(64, inPage(pages[2])), a...))
	s.counters()
	return s.h.Sum64()
}

// TestCacheDeterministicCosts pins the cache model to fixed reference
// digests, so a change that shifts every run equally still fails here.
// Only an intended change to the model's hits, victims or costs may
// regenerate them.
func TestCacheDeterministicCosts(t *testing.T) {
	for _, tc := range []struct {
		sparse bool
		m      L3Mapping
		seed   uint64
		want   uint64
	}{
		{false, L3ModuloMap, 1, 0x94fae5abe5388cdc},
		{false, L3ModuloMap, 2, 0x199373728271c6df},
		{false, L3ModuloMap, 3, 0xd3a3bffbc0738a1d},
		{false, L3XorFoldMap, 1, 0x6b8ebaf69f03ac73},
		{false, L3XorFoldMap, 2, 0xb464c9e016ee4b79},
		{false, L3XorFoldMap, 3, 0x7ff39172cbcfdb97},
		{true, L3ModuloMap, 1, 0x123b99c919e84fe7},
		{true, L3ModuloMap, 2, 0x09e57f30af4c2faa},
		{true, L3XorFoldMap, 1, 0xdbb2c545d8f6e0e6},
		{true, L3XorFoldMap, 2, 0x8942d8efd6126fde},
	} {
		name, digest := fmt.Sprintf("map%d/seed%d", tc.m, tc.seed), cacheStreamDigest
		if tc.sparse {
			name, digest = "sparse/"+name, sparseStreamDigest
		}
		t.Run(name, func(t *testing.T) {
			if got := digest(tc.m, tc.seed); got != tc.want {
				t.Fatalf("digest = %#016x, want %#016x", got, tc.want)
			}
		})
	}
}

func TestCacheTagRangeLimit(t *testing.T) {
	cs := NewCacheSim(1)
	last := PAddr(MaxMemSize - L1LineSize)
	if cost, _ := cs.Access(0, last, L1LineSize, false, RefreshLen); cost != CostDDR {
		t.Fatalf("last in-range line cost %d, want a DDR fill (%d)", cost, CostDDR)
	}
	if cost, _ := cs.Access(0, last, 8, false, RefreshLen); cost != 0 {
		t.Fatalf("last in-range line cost %d on reuse, want an L1 hit", cost)
	}
	for _, a := range []struct {
		pa   PAddr
		size uint32
	}{{PAddr(MaxMemSize), 0}, {last, L1LineSize + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Access(%#x, %d) beyond the tag range did not panic", uint64(a.pa), a.size)
				}
			}()
			cs.Access(0, a.pa, a.size, false, 0)
		}()
	}
}

func TestCacheRefreshWindowStalls(t *testing.T) {
	cs := NewCacheSim(1)
	// An access inside the refresh window costs more than one outside.
	inWin, _ := cs.Access(0, 0x100000, 4, false, 0) // phase 0 < RefreshLen
	cs2 := NewCacheSim(1)
	outWin, _ := cs2.Access(0, 0x100000, 4, false, RefreshLen+10)
	if inWin <= outWin {
		t.Fatalf("refresh stall missing: in=%d out=%d", inWin, outWin)
	}
	if cs.RefreshStalls != 1 {
		t.Fatalf("RefreshStalls = %d", cs.RefreshStalls)
	}
}

func TestCacheParityInjection(t *testing.T) {
	cs := NewCacheSim(2)
	cs.ArmL1Parity(1)
	_, ev := cs.Access(0, 0, 4, false, 0)
	if ev != EvNone {
		t.Fatal("parity delivered to wrong core")
	}
	_, ev = cs.Access(1, 0, 4, false, 0)
	if ev != EvL1Parity {
		t.Fatal("armed parity not delivered")
	}
	_, ev = cs.Access(1, 0, 4, false, 0)
	if ev != EvNone {
		t.Fatal("parity should fire once")
	}
}

func TestCacheFlushAllColdAfter(t *testing.T) {
	cs := NewCacheSim(1)
	cs.Access(0, 0x3000, 64, false, 0)
	cs.FlushAll()
	cost, _ := cs.Access(0, 0x3000, 64, false, RefreshLen+1)
	if cost < CostDDR {
		t.Fatalf("post-flush access cost %d, want DDR miss", cost)
	}
}

// allocBytesPerRun returns the mean bytes f allocates per call over runs
// calls, after one warm-up call, at GOMAXPROCS 1 as AllocsPerRun measures.
func allocBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestNewChipAllocs guards demand-allocated chip state. A chip builds in
// a few dozen allocations and at most 64 KiB, because no cache level holds
// a tag page before its first fill and DDR holds no chunk before its first
// write. A chip that touched one line per core and one DDR word touches
// them again after a Reset without allocating, whether DDR kept its
// contents in self-refresh or lost them.
func TestNewChipAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { NewChip(ChipConfig{}) }); n > 32 {
		t.Errorf("NewChip made %v allocations, want <= 32", n)
	}
	if n := allocBytesPerRun(10, func() { NewChip(ChipConfig{}) }); n > 64<<10 {
		t.Errorf("NewChip allocated %d B, want <= %d", n, 64<<10)
	}
	for _, selfRefresh := range []bool{true, false} {
		ch := NewChip(ChipConfig{})
		touch := func() {
			for c := range ch.Cores {
				ch.Cache.Access(c, PAddr(c)*L3LineSize, 8, false, 0)
			}
			ch.Mem.WriteU64(4096, 1)
		}
		touch()
		if selfRefresh {
			ch.Mem.EnterSelfRefresh()
		}
		if n := testing.AllocsPerRun(10, func() { ch.Reset(); touch() }); n != 0 {
			t.Errorf("Chip.Reset and a retouch with self-refresh %v made %v allocations, want 0", selfRefresh, n)
		}
	}
}

func TestChipUnits(t *testing.T) {
	ch := NewChip(ChipConfig{ID: 3})
	for _, u := range AllUnits() {
		if !ch.UnitEnabled(u) {
			t.Fatalf("unit %v should default enabled", u)
		}
	}
	ch.SetUnitEnabled(UnitTorus, false)
	if ch.UnitEnabled(UnitTorus) {
		t.Fatal("disable failed")
	}
	ch.Reset()
	if ch.UnitEnabled(UnitTorus) {
		t.Fatal("unit fuses must survive reset (they model broken hardware)")
	}
}

func TestChipDACGuard(t *testing.T) {
	ch := NewChip(ChipConfig{})
	core := ch.Cores[2]
	core.DAC[0] = DACRange{Enabled: true, PID: 7, Lo: 0x10000, Hi: 0x11000}
	if !core.CheckDAC(7, 0x10800) {
		t.Fatal("store in guard range must trip DAC")
	}
	if core.CheckDAC(7, 0x11000) {
		t.Fatal("Hi bound is exclusive")
	}
	if core.CheckDAC(8, 0x10800) {
		t.Fatal("DAC must be PID-qualified")
	}
}

func TestChipScanIsDestructive(t *testing.T) {
	ch := NewChip(ChipConfig{})
	h1 := ch.Scan()
	if !ch.Scanned {
		t.Fatal("scan must mark chip")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("use after scan must panic")
			}
		}()
		ch.MustBeUsable()
	}()
	ch.Reset()
	ch.MustBeUsable()
	h2 := ch.Scan()
	if h1 != h2 {
		// After reset both chips are in the pristine state, so the scans
		// should agree (counters cleared).
		t.Fatalf("pristine scans differ: %x vs %x", h1, h2)
	}
}

func TestChipStateHashReflectsActivity(t *testing.T) {
	a := NewChip(ChipConfig{})
	b := NewChip(ChipConfig{})
	if a.StateHash() != b.StateHash() {
		t.Fatal("identical pristine chips must hash equal")
	}
	a.Cores[0].Interrupts++
	if a.StateHash() == b.StateHash() {
		t.Fatal("state change must alter hash")
	}
}

func TestAlignHelpers(t *testing.T) {
	if AlignDown(0x12345, 0x1000) != 0x12000 {
		t.Fatal("AlignDown")
	}
	if AlignUp(0x12345, 0x1000) != 0x13000 {
		t.Fatal("AlignUp")
	}
	if AlignUp(0x12000, 0x1000) != 0x12000 {
		t.Fatal("AlignUp exact")
	}
}

func TestPageSizeValidity(t *testing.T) {
	for _, s := range PageSizes {
		if !s.Valid() {
			t.Fatalf("%v should be valid", s)
		}
	}
	if PageSize(12345).Valid() {
		t.Fatal("arbitrary size should be invalid")
	}
	if Page1M.String() != "1MB" || Page1G.String() != "1GB" || Page4K.String() != "4KB" {
		t.Fatal("String forms")
	}
}

func TestPermString(t *testing.T) {
	if PermRWX.String() != "rwx" || PermRX.String() != "r-x" || Perm(0).String() != "---" {
		t.Fatal("perm strings")
	}
	if !PermRWX.Has(PermRead) || PermRead.Has(PermWrite) {
		t.Fatal("Has")
	}
}
