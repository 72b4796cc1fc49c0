package cnk

import (
	"bgcnk/internal/ckpt"
	"bgcnk/internal/hw"
	"bgcnk/internal/sim"
)

// Checkpoint cost model (cycles). CNK's static map is what makes the
// snapshot cheap (paper V-B): the kernel knows every extent of the
// process a priori — no page-table walk, no dirty tracking, no page
// cache to flush, no daemons to park — so a checkpoint is a fixed setup
// plus a single streaming pass over a few large contiguous extents.
const (
	ckptSetupCost  = sim.Cycles(2_000)
	ckptRegionCost = sim.Cycles(150)
	ckptBytesPer   = 128 // bytes captured per cycle (streaming DMA rate)
	// restore streams the same bytes back plus TLB reinstate work.
	restoreBytesPer = 96

	// ckptHeapFloor is the minimum heap extent captured even when brk
	// never moved: the model's applications store into the low heap
	// directly, so the snapshot always covers the first chunk.
	ckptHeapFloor = uint64(64 << 10)
	// ckptStackSlice is the live stack extent captured below StackTop.
	ckptStackSlice = uint64(64 << 10)
)

// CheckpointRegions returns the extents a checkpoint of pid captures,
// sorted by virtual base, plus the total byte count. Because the map is
// static the answer is exact: text and data at their requested sizes, the
// heap from its base to the brk high-water mark (floored — see
// ckptHeapFloor), a slice of live stack, and shared memory if present.
func (k *Kernel) CheckpointRegions(pid uint32) ([]ckpt.Region, uint64) {
	p := k.procs[pid]
	if p == nil || p.Layout == nil {
		return nil, 0
	}
	l := p.Layout
	var out []ckpt.Region
	add := func(name string, vbase hw.VAddr, size uint64) {
		if size == 0 {
			return
		}
		out = append(out, ckpt.Region{
			VBase:  uint64(vbase),
			Size:   size,
			Digest: ckpt.RegionDigest(name, uint64(vbase), size),
		})
	}
	add(l.Text.Name, l.Text.VBase, l.Text.Req)
	add(l.Data.Name, l.Data.VBase, l.Data.Req)

	heapEnd := uint64(p.Brk.Cur)
	if floor := uint64(l.HeapBase) + ckptHeapFloor; heapEnd < floor {
		heapEnd = floor
	}
	stackBase := uint64(l.StackTop) - ckptStackSlice
	if heapEnd > stackBase {
		heapEnd = stackBase // heap ran into the stack slice; merge boundary
	}
	add("heap", l.HeapBase, heapEnd-uint64(l.HeapBase))
	add("stack", hw.VAddr(stackBase), ckptStackSlice)
	if l.Shm != nil {
		add(l.Shm.Name, l.Shm.VBase, l.Shm.Req)
	}
	total := uint64(0)
	for _, r := range out {
		total += r.Size
	}
	return out, total
}

// CheckpointCost models taking the snapshot at a quiesce point: fixed
// setup, a descriptor per region, one streaming pass over the bytes.
func (k *Kernel) CheckpointCost(pid uint32) sim.Cycles {
	regions, bytes := k.CheckpointRegions(pid)
	return ckptSetupCost +
		ckptRegionCost*sim.Cycles(len(regions)) +
		sim.Cycles(bytes/ckptBytesPer)
}

// RestoreCost models streaming the image back over the (already
// installed) static map after a restart boot.
func (k *Kernel) RestoreCost(pid uint32) sim.Cycles {
	regions, bytes := k.CheckpointRegions(pid)
	return ckptSetupCost +
		ckptRegionCost*sim.Cycles(len(regions)) +
		sim.Cycles(bytes/restoreBytesPer)
}
