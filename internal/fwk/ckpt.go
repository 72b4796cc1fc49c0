package fwk

import (
	"sort"

	"bgcnk/internal/ckpt"
	"bgcnk/internal/fs"
	"bgcnk/internal/sim"
)

// Checkpoint cost model (cycles). A full-weight kernel pays for
// everything CNK's static map avoids: it must walk the page table to
// discover what is resident, flush the page cache, and park every daemon
// before the memory image is stable enough to capture — and the image
// itself is a pile of scattered 4 KB pages rather than a few large
// extents (paper V-B / Table II).
const (
	ckptFlushCost   = sim.Cycles(60_000) // page-cache flush + writeback barrier
	ckptDaemonCost  = sim.Cycles(6_000)  // quiesce/park one daemon
	ckptPageCost    = sim.Cycles(520)    // walk + capture one resident 4KB page
	restorePageCost = sim.Cycles(640)    // re-fault + fill one 4KB page
)

// CheckpointRegions walks pid's resident set and coalesces it into
// maximal runs of contiguous resident pages, sorted by virtual base, plus
// the resident byte count. Where CNK reports a handful of large extents,
// the FWK answer is typically dozens of short runs — the image format
// itself records the contiguity difference of Table II.
func (k *Kernel) CheckpointRegions(pid uint32) ([]ckpt.Region, uint64) {
	p := k.procs[pid]
	if p == nil {
		return nil, 0
	}
	vps := make([]uint64, 0, len(p.pages))
	for vp := range p.pages {
		vps = append(vps, vp)
	}
	sort.Slice(vps, func(i, j int) bool { return vps[i] < vps[j] })
	var out []ckpt.Region
	for _, vp := range vps {
		va := vp * pageSize
		if n := len(out); n > 0 && out[n-1].VBase+out[n-1].Size == va {
			out[n-1].Size += pageSize
			continue
		}
		out = append(out, ckpt.Region{VBase: va, Size: pageSize})
	}
	total := uint64(0)
	for i := range out {
		out[i].Digest = ckpt.RegionDigest("fwk", out[i].VBase, out[i].Size)
		total += out[i].Size
	}
	return out, total
}

// RestoreImage rebuilds pid's resident set to exactly the image's page
// set: every current frame is freed, then each image page is repopulated
// through the frame allocator. Deliberately silent to the UPC block and
// fault statistics — the restore is kernel work below the counters, and
// the counter state itself is reloaded from the image afterwards.
func (k *Kernel) RestoreImage(pid uint32, regions []ckpt.Region) {
	p := k.procs[pid]
	if p == nil {
		return
	}
	vps := make([]uint64, 0, len(p.pages))
	for vp := range p.pages {
		vps = append(vps, vp)
	}
	sort.Slice(vps, func(i, j int) bool { return vps[i] < vps[j] })
	for _, vp := range vps {
		k.freeFrame(p.pages[vp])
		delete(p.pages, vp)
	}
	for _, c := range k.cpus {
		c.core.TLB.InvalidateASID(pid)
	}
	for _, r := range regions {
		for off := uint64(0); off < r.Size; off += pageSize {
			f, ok := k.allocFrame()
			if !ok {
				return // image larger than memory cannot happen for own images
			}
			p.pages[(r.VBase+off)/pageSize] = f
		}
	}
}

// CheckpointCost models the snapshot: flush the page cache, quiesce the
// daemon population, then capture each resident page individually.
func (k *Kernel) CheckpointCost(pid uint32) sim.Cycles {
	_, bytes := k.CheckpointRegions(pid)
	return ckptFlushCost +
		ckptDaemonCost*sim.Cycles(len(k.cfg.Daemons)) +
		ckptPageCost*sim.Cycles(bytes/pageSize)
}

// RestoreCost models faulting the image's pages back in one at a time
// after a restart boot.
func (k *Kernel) RestoreCost(pid uint32) sim.Cycles {
	_, bytes := k.CheckpointRegions(pid)
	return ckptFlushCost/2 +
		restorePageCost*sim.Cycles(bytes/pageSize)
}

// OpenFiles returns the process's descriptor table for a checkpoint. The
// FWK keeps its file state locally (it mounts the ION filesystem itself)
// rather than in a CIOD ioproxy, so the harvest comes from the process.
func (p *Proc) OpenFiles() []fs.OpenFileState { return p.fsc.OpenFiles() }

// RestoreFiles rebuilds the process's descriptor table from a checkpoint.
func (p *Proc) RestoreFiles(files []fs.OpenFileState) { p.fsc.RestoreFiles(files) }
