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
	"bgcnk/internal/upc"
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

// cacheStream drives a seeded CacheSim, with a UPC unit attached as a
// chip attaches its own, and digests each (cost, event) result it sees,
// plus every counter when asked.
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
	s.cs.upc = new(upc.Set)
	return s
}

func (s *cacheStream) put(vs ...uint64) {
	s.buf = s.buf[:0]
	for _, v := range vs {
		s.buf = binary.LittleEndian.AppendUint64(s.buf, v)
	}
	s.h.Write(s.buf)
}

// counters digests the hit and miss counters the cache keeps and the
// store-miss and refresh-stall counts its UPC unit keeps.
func (s *cacheStream) counters() {
	cs := s.cs
	for c := range cs.L1Hits {
		s.put(cs.L1Hits[c], cs.L1Misses[c], cs.upc.Get(c, upc.StoreMiss))
	}
	s.put(cs.L3Hits, cs.L3Misses, cs.upc.Get(upc.ChipScope, upc.RefreshStall))
}

// reset resets the cache and its UPC unit together, as Chip.Reset does.
func (s *cacheStream) reset() {
	s.cs.reset()
	s.cs.upc.Reset()
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
			s.reset()
		}
	}
	s.counters()
	return s.h.Sum64()
}

// sparseRegionSets is the size of the set regions the sparse stream
// confines itself to. It is the stream's own constant, not the tag page
// size: the stream, and so its pinned digests, must not change with how
// many sets a page holds.
const sparseRegionSets = 256

// sparseStreamDigest digests a seeded stream confined to three of the
// L3's sixteen 256-set regions, none adjacent to another. A store-only
// run into the cold cache from one core comes first: store misses install
// no L1 line, so that core's loads of the same lines that follow miss L1
// and hit L3. After a FlushAll the stream fills a second region nothing
// has touched, including a conflict run deeper than the ways in one of
// its sets, and after a reset a third, with the first region mixed in
// again. Every line sits where a line-spanning access stays in its own
// region.
func sparseStreamDigest(m L3Mapping, seed uint64) uint64 {
	s := newCacheStream(m, seed)
	region := func(l uint64) uint64 { return s.cs.l3index(l) / sparseRegionSets }
	var regions []uint64
	for len(regions) < 3 {
		rg, near := uint64(s.rng.Intn(L3Sets/sparseRegionSets)), false
		for _, q := range regions {
			near = near || (rg-q+1)%(L3Sets/sparseRegionSets) <= 2
		}
		if !near {
			regions = append(regions, rg)
		}
	}
	inRegion := func(rg uint64) func(uint64) bool {
		return func(l uint64) bool { return region(l) == rg && region(l+1) == rg }
	}
	// absent panics if the stream's next fills would not be the first
	// into any tag page of region rg of arr.
	absent := func(arr *cacheArray, rg uint64) {
		for pg := rg * sparseRegionSets / tagPageSets; pg < (rg+1)*sparseRegionSets/tagPageSets; pg++ {
			if arr.pages[pg] != nil {
				panic(fmt.Sprintf("sparse stream: tag page %d of region %d exists before its first fill", pg, rg))
			}
		}
	}
	a := s.lines(48, inRegion(regions[0]))
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

	absent(&s.cs.l3, regions[1])
	b := s.lines(64, inRegion(regions[1]))
	s.mix(1000, b)
	target := regions[1]*sparseRegionSets + uint64(s.rng.Intn(sparseRegionSets))
	s.hammer(s.rng.Intn(CoresPerChip), s.lines(L3Ways+7, func(l uint64) bool {
		return s.cs.l3index(l) == target && region(l+1) == regions[1]
	}), 4)
	s.counters()
	s.reset()

	absent(&s.cs.l3, regions[2])
	s.mix(1000, append(s.lines(64, inRegion(regions[2])), a...))
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
		{false, L3ModuloMap, 1, 0x0a261dd64a85de96},
		{false, L3ModuloMap, 2, 0xdc8314e69c3a0252},
		{false, L3ModuloMap, 3, 0xe609e893f9583790},
		{false, L3XorFoldMap, 1, 0xa492eed890d6541d},
		{false, L3XorFoldMap, 2, 0x09f1d0eababc178f},
		{false, L3XorFoldMap, 3, 0x8903bf9b94766b21},
		{true, L3ModuloMap, 1, 0x75795d68872e2871},
		{true, L3ModuloMap, 2, 0x56be6881285eb397},
		{true, L3XorFoldMap, 1, 0x23a104716fc9fd13},
		{true, L3XorFoldMap, 2, 0x130ffd446530385b},
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
	cs.upc = new(upc.Set)
	// An access inside the refresh window costs more than one outside.
	inWin, _ := cs.Access(0, 0x100000, 4, false, 0) // phase 0 < RefreshLen
	cs2 := NewCacheSim(1)
	outWin, _ := cs2.Access(0, 0x100000, 4, false, RefreshLen+10)
	if inWin <= outWin {
		t.Fatalf("refresh stall missing: in=%d out=%d", inWin, outWin)
	}
	if n := cs.upc.Get(upc.ChipScope, upc.RefreshStall); n != 1 {
		t.Fatalf("UPC RefreshStall = %d, want 1", n)
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
