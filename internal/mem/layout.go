// Package mem implements CNK's memory-management substrate: the static
// partitioning algorithm that tiles a process's four contiguous address
// ranges (text, data, heap+stack, shared memory — paper Fig 3) onto
// hardware pages of 1MB/16MB/256MB/1GB, the mmap range tracker, brk, and
// the named persistent-memory registry (paper Section IV-D).
package mem

import (
	"fmt"

	"bgcnk/internal/hw"
)

// Virtual-address map constants (paper Fig 3: text, then data, then heap
// growing up towards a stack growing down, with shared memory on top).
const (
	VTextBase = hw.VAddr(16 << 20)   // 0x0100_0000
	VShmBase  = hw.VAddr(0xE0000000) // node-wide shared region, same VA in all procs
	VAddrTop  = hw.VAddr(1) << 32    // nearly the full 4GB is mappable (paper VII-A)
)

// KernelPhysReserve is the physical memory CNK itself occupies. CNK
// allocates all of its structures statically (paper Section VI-B).
const KernelPhysReserve = uint64(16 << 20)

// Tile is one hardware page mapping.
type Tile struct {
	V    hw.VAddr
	P    hw.PAddr
	Size hw.PageSize
}

// Region is a contiguous virtual range backed by contiguous physical
// memory, covered by Tiles. Covered may exceed Req: large-page tiling
// wastes physical memory (paper Section VII-B).
type Region struct {
	Name    string
	VBase   hw.VAddr
	PBase   hw.PAddr
	Req     uint64 // bytes requested
	Covered uint64 // bytes actually mapped (multiple of the tile sizes)
	Perms   hw.Perm
	Tiles   []Tile
}

// Contains reports whether va falls inside the mapped region.
func (r *Region) Contains(va hw.VAddr) bool {
	return va >= r.VBase && uint64(va-r.VBase) < r.Covered
}

// Translate maps va (which must be inside the region) to its physical
// address.
func (r *Region) Translate(va hw.VAddr) hw.PAddr {
	return r.PBase + hw.PAddr(va-r.VBase)
}

// Waste returns physical bytes mapped but not requested.
func (r *Region) Waste() uint64 { return r.Covered - r.Req }

// ProcLayout is the static map of one process.
type ProcLayout struct {
	Index     int // process slot on the node (0..ProcsPerNode-1)
	Text      Region
	Data      Region
	HeapStack Region
	Shm       *Region // shared with the other procs on the node

	HeapBase hw.VAddr // heap grows up from here
	StackTop hw.VAddr // main stack grows down from here (top of HeapStack)
}

// Regions returns the process's regions including the shared one.
func (p *ProcLayout) Regions() []*Region {
	return []*Region{&p.Text, &p.Data, &p.HeapStack, p.Shm}
}

// Translate resolves va through the static map.
func (p *ProcLayout) Translate(va hw.VAddr) (hw.PAddr, hw.Perm, bool) {
	for _, r := range p.Regions() {
		if r.Contains(va) {
			return r.Translate(va), r.Perms, true
		}
	}
	return 0, 0, false
}

// PhysRanges resolves [va, va+size) to physically contiguous ranges. Under
// the static map any buffer within one region is a single range — the
// property DCMF's DMA relies on (paper Section V-C).
func (p *ProcLayout) PhysRanges(va hw.VAddr, size uint64) ([]PhysRange, bool) {
	var out []PhysRange
	for size > 0 {
		found := false
		for _, r := range p.Regions() {
			if !r.Contains(va) {
				continue
			}
			avail := r.Covered - uint64(va-r.VBase)
			n := size
			if n > avail {
				n = avail
			}
			out = append(out, PhysRange{PA: r.Translate(va), Len: n})
			va += hw.VAddr(n)
			size -= n
			found = true
			break
		}
		if !found {
			return nil, false
		}
	}
	// Merge physically adjacent ranges.
	merged := out[:0]
	for _, pr := range out {
		if len(merged) > 0 && merged[len(merged)-1].PA+hw.PAddr(merged[len(merged)-1].Len) == pr.PA {
			merged[len(merged)-1].Len += pr.Len
		} else {
			merged = append(merged, pr)
		}
	}
	return merged, true
}

// PhysRange mirrors kernel.PhysRange without importing it (mem sits below
// kernel in the package graph).
type PhysRange struct {
	PA  hw.PAddr
	Len uint64
}

// TLBEntries renders the layout as pinned TLB entries for address space
// pid, in one slice of the entry count.
func (p *ProcLayout) TLBEntries(pid uint32) []hw.TLBEntry {
	n := 0
	for _, r := range p.Regions() {
		n += len(r.Tiles)
	}
	es := make([]hw.TLBEntry, 0, n)
	for _, r := range p.Regions() {
		for _, t := range r.Tiles {
			es = append(es, hw.TLBEntry{
				PID: pid, VBase: t.V, PBase: t.P, Size: t.Size, Perms: r.Perms,
			})
		}
	}
	return es
}

// NodeLayout is the whole node's static partition.
type NodeLayout struct {
	Config PartitionConfig
	Procs  []ProcLayout
	Shm    Region
	// MinPage is the smallest page size the tiler needed to stay within
	// the TLB budget.
	MinPage hw.PageSize
}

// TotalWaste sums physical bytes tiled but not requested across the node.
func (n *NodeLayout) TotalWaste() uint64 {
	w := n.Shm.Waste()
	for i := range n.Procs {
		p := &n.Procs[i]
		w += p.Text.Waste() + p.Data.Waste() + p.HeapStack.Waste()
	}
	return w
}

// EntriesPerProc returns the pinned-TLB-entry count for one process.
func (n *NodeLayout) EntriesPerProc() int {
	if len(n.Procs) == 0 {
		return 0
	}
	p := &n.Procs[0]
	return len(p.Text.Tiles) + len(p.Data.Tiles) + len(p.HeapStack.Tiles) + len(n.Shm.Tiles)
}

// PartitionConfig is the partitioner input: what the ELF header and the
// job launch parameters provide (paper Section IV-C: "This information is
// passed into a partitioning algorithm, which tiles the virtual and
// physical memory").
type PartitionConfig struct {
	DDRBytes      uint64
	Procs         int    // 1, 2 or 4
	TextBytes     uint64 // .text + .rodata
	DataBytes     uint64 // .data + .bss
	ShmBytes      uint64 // user-specified, up-front
	MaxTLBEntries int    // static-map budget per core (default 60 of 64)
}

// Partition computes the node's static memory map, choosing hardware page
// sizes that respect alignment constraints and fit the TLB entry budget.
// Memory not consumed by text/data/shm is divided evenly among the
// processes as heap+stack (paper Section VII-B: "CNK divides memory on a
// node evenly among the tasks").
func Partition(cfg PartitionConfig) (*NodeLayout, error) {
	if cfg.Procs != 1 && cfg.Procs != 2 && cfg.Procs != 4 {
		return nil, fmt.Errorf("mem: procs per node must be 1, 2 or 4 (got %d)", cfg.Procs)
	}
	if cfg.MaxTLBEntries == 0 {
		cfg.MaxTLBEntries = 60
	}
	if cfg.TextBytes == 0 || cfg.DDRBytes == 0 {
		return nil, fmt.Errorf("mem: text size and DDR size are required")
	}

	for _, minPage := range hw.LargePageSizes {
		nl, err := partitionWith(cfg, minPage)
		if err != nil {
			return nil, err
		}
		if nl.EntriesPerProc() <= cfg.MaxTLBEntries {
			nl.MinPage = minPage
			return nl, nil
		}
	}
	return nil, fmt.Errorf("mem: cannot fit static map into %d TLB entries", cfg.MaxTLBEntries)
}

// coAlign picks the virtual base for a region: the smallest address >= vmin
// that is congruent to the region's physical base modulo the largest page
// size the region could use. Virtual address space is plentiful; spending
// it on alignment lets the tiler promote to large pages at every level
// without wasting physical memory beyond minPage granularity.
func coAlign(vmin, phys, covered, mp uint64) uint64 {
	align := mp
	for _, ps := range hw.LargePageSizes {
		if uint64(ps) <= covered {
			align = uint64(ps)
		}
	}
	vmin = hw.AlignUp(vmin, mp)
	delta := (phys%align + align - vmin%align) % align
	return vmin + delta
}

func partitionWith(cfg PartitionConfig, minPage hw.PageSize) (*NodeLayout, error) {
	mp := uint64(minPage)
	phys := hw.AlignUp(KernelPhysReserve, mp) // running physical cursor

	physAlloc := func(name string, req uint64) (uint64, uint64, error) {
		if req == 0 {
			req = 1
		}
		covered := hw.AlignUp(req, mp)
		base := phys
		if base+covered > cfg.DDRBytes {
			return 0, 0, fmt.Errorf("mem: out of physical memory tiling %s (need %d at %#x of %d)", name, covered, base, cfg.DDRBytes)
		}
		phys = base + covered
		return base, covered, nil
	}
	mkRegion := func(name string, vmin uint64, pbase, covered, req uint64, perms hw.Perm) Region {
		v := coAlign(vmin, pbase, covered, mp)
		r := Region{Name: name, VBase: hw.VAddr(v), PBase: hw.PAddr(pbase), Req: req, Covered: covered, Perms: perms}
		r.Tiles = tileRange(v, pbase, covered, minPage)
		return r
	}

	nl := &NodeLayout{Config: cfg}

	// Physical allocation order: shm, then each process's text and data,
	// then (with the remainder divided evenly) each process's heap+stack.
	shmReq := maxU64(cfg.ShmBytes, 1)
	shmPhys, shmCovered, err := physAlloc("shm", shmReq)
	if err != nil {
		return nil, err
	}

	type fixed struct{ textP, textC, dataP, dataC uint64 }
	fixeds := make([]fixed, cfg.Procs)
	for i := range fixeds {
		if fixeds[i].textP, fixeds[i].textC, err = physAlloc(fmt.Sprintf("text.%d", i), cfg.TextBytes); err != nil {
			return nil, err
		}
		if fixeds[i].dataP, fixeds[i].dataC, err = physAlloc(fmt.Sprintf("data.%d", i), maxU64(cfg.DataBytes, 1)); err != nil {
			return nil, err
		}
	}

	remaining := cfg.DDRBytes - phys
	perHeap := hw.AlignDown(remaining/uint64(cfg.Procs), mp)
	if perHeap == 0 {
		return nil, fmt.Errorf("mem: no physical memory left for heaps")
	}

	var maxHeapEnd uint64
	for i := 0; i < cfg.Procs; i++ {
		var p ProcLayout
		p.Index = i
		f := fixeds[i]
		p.Text = mkRegion(fmt.Sprintf("text.%d", i), uint64(VTextBase), f.textP, f.textC, cfg.TextBytes, hw.PermRX)
		p.Data = mkRegion(fmt.Sprintf("data.%d", i), uint64(p.Text.VBase)+p.Text.Covered, f.dataP, f.dataC, maxU64(cfg.DataBytes, 1), hw.PermRW)
		heapP, heapC, err := physAlloc(fmt.Sprintf("heap.%d", i), perHeap)
		if err != nil {
			return nil, err
		}
		p.HeapStack = mkRegion(fmt.Sprintf("heap.%d", i), uint64(p.Data.VBase)+p.Data.Covered, heapP, heapC, perHeap, hw.PermRW)
		p.HeapBase = p.HeapStack.VBase
		p.StackTop = p.HeapStack.VBase + hw.VAddr(p.HeapStack.Covered)
		if end := uint64(p.StackTop); end > maxHeapEnd {
			maxHeapEnd = end
		}
		nl.Procs = append(nl.Procs, p)
	}

	// Shared memory sits above every heap, at (or above) the canonical
	// VShmBase, identical in every process.
	shmVMin := maxU64(uint64(VShmBase), maxHeapEnd)
	nl.Shm = mkRegion("shm", shmVMin, shmPhys, shmCovered, shmReq, hw.PermRW)
	for i := range nl.Procs {
		nl.Procs[i].Shm = &nl.Shm
	}
	return nl, nil
}

// tileRange greedily covers [v, v+size) with the largest hardware pages
// whose alignment constraints (virtual AND physical) are satisfied, never
// using a page smaller than minPage. size must be a multiple of minPage
// and v, p must be minPage-aligned.
func tileRange(v, p, size uint64, minPage hw.PageSize) []Tile {
	var tiles []Tile
	off := uint64(0)
	for off < size {
		remaining := size - off
		var pick hw.PageSize
		for i := len(hw.LargePageSizes) - 1; i >= 0; i-- {
			ps := hw.LargePageSizes[i]
			if ps < minPage {
				break
			}
			u := uint64(ps)
			if u <= remaining && (v+off)%u == 0 && (p+off)%u == 0 {
				pick = ps
				break
			}
		}
		if pick == 0 {
			pick = minPage
		}
		tiles = append(tiles, Tile{V: hw.VAddr(v + off), P: hw.PAddr(p + off), Size: pick})
		off += uint64(pick)
	}
	return tiles
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
