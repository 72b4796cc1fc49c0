// Package ckpt defines the checkpoint image: the versioned, strictly
// validated wire format a job's state is serialized into at a barrier
// quiesce point and restored from after an uncorrectable fault.
//
// The paper's reliability story (Section V-B) leans on exactly this
// artifact: the 2007 Gordon Bell sustained-petaflop run survived hardware
// faults by restarting from checkpoints, and CNK's deterministic,
// statically mapped processes are what made the snapshot cheap — the
// kernel knows every region of a process a priori, so a checkpoint is a
// single pass over a handful of large contiguous extents. An FWK has to
// walk scattered 4 KB pages, flush its page cache and quiesce daemons
// first; the cost difference is measured by the "mtbf" experiment.
//
// An image records, per node: the process's memory regions (descriptors
// plus digests — the simulation models the traffic, not the bytes), the
// thread register state, the node's full UPC counter block, and the open
// CIOD file table mirrored by the node's ioproxy. Its fields go through
// internal/wire, the codec the boot personality and the service node's
// journal share. Decoding is strict: bad magic or version, truncation,
// hostile length prefixes, unsorted or overlapping regions, and trailing
// garbage are all rejected, and any accepted input re-marshals to itself
// (the canonical property FuzzCheckpointImage enforces).
package ckpt

import (
	"fmt"
	"hash/fnv"

	"bgcnk/internal/upc"
	"bgcnk/internal/wire"
)

// Wire-format constants. Caps bound what a hostile length prefix can make
// the decoder allocate.
const (
	imageMagic   = 0x4247434b // "BGCK"
	imageVersion = 1

	// MaxNodes bounds the per-image node count.
	MaxNodes = 4096
	// MaxRegions bounds the per-node region count.
	MaxRegions = 4096
	// MaxThreads bounds the per-node thread count.
	MaxThreads = 4096
	// MaxFiles bounds the per-node open-file count (mirrors fs.MaxFDs).
	MaxFiles = 256
	// MaxPath bounds an open file's recorded path length.
	MaxPath = 4096
)

// Image is one whole-job checkpoint: the state of every node of the
// partition at one barrier quiesce point.
type Image struct {
	JobID int32
	Epoch uint32 // exchange rounds completed when the snapshot was taken
	Kind  uint8  // kernel kind (machine.KernelKind)
	Nodes []NodeState
}

// NodeState is one node's contribution to the image.
type NodeState struct {
	Node     int32
	Regions  []Region   // sorted by VBase, non-overlapping
	Threads  []RegState // sorted by TID
	Counters upc.Snapshot
	Files    []FileState // sorted by FD
}

// Region describes one checkpointed memory extent. Under CNK these are
// the few large statically mapped regions; under an FWK they are runs of
// contiguous resident 4 KB pages (typically many, typically short — the
// contiguity story of Table II, visible in the image itself).
type Region struct {
	VBase  uint64
	Size   uint64
	Digest uint64
}

// RegState is one thread's saved register state. The simulation does not
// execute real instructions, so PC stands in for the resume point (the
// epoch) and SP for the stack anchor.
type RegState struct {
	TID uint32
	PC  uint64
	SP  uint64
}

// FileState is one entry of the open CIOD file table: enough to reopen
// the file and seek back to the mirrored offset on restart.
type FileState struct {
	FD     int32
	Offset uint64
	Flags  uint64
	Path   string
}

// RegionDigest is the digest recorded for a region's (modelled) contents.
func RegionDigest(name string, vbase, size uint64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%#x|%d", name, vbase, size)
	return h.Sum64()
}

// Marshal encodes the image.
func (img *Image) Marshal() []byte {
	var e wire.Encoder
	e.U32(imageMagic)
	e.U8(imageVersion)
	e.I32(img.JobID)
	e.U32(img.Epoch)
	e.U8(img.Kind)
	// Counter-block dimensions are part of the format: an image written
	// by a kernel with a different UPC layout must not decode silently.
	e.U8(upc.NumSlots)
	e.U8(uint8(upc.NumCounters))
	e.U8(upc.MaxSyscalls)
	e.U32(uint32(len(img.Nodes)))
	for i := range img.Nodes {
		n := &img.Nodes[i]
		e.I32(n.Node)
		e.U32(uint32(len(n.Regions)))
		for _, r := range n.Regions {
			e.U64(r.VBase)
			e.U64(r.Size)
			e.U64(r.Digest)
		}
		e.U32(uint32(len(n.Threads)))
		for _, t := range n.Threads {
			e.U32(t.TID)
			e.U64(t.PC)
			e.U64(t.SP)
		}
		EncodeCounters(&e, &n.Counters)
		e.U32(uint32(len(n.Files)))
		for _, f := range n.Files {
			e.I32(f.FD)
			e.U64(f.Offset)
			e.U64(f.Flags)
			e.Str(f.Path[:min(len(f.Path), MaxPath)])
		}
	}
	return e.Bytes()
}

// Minimum wire sizes, against which Unmarshal checks each table's count
// before allocating it.
const (
	regionBytes       = 24
	threadBytes       = 20
	fileBytes         = 24 // with an empty path
	counterBlockBytes = upc.NumSlots * (int(upc.NumCounters) + upc.MaxSyscalls) * 8
	nodeBytes         = 16 + counterBlockBytes // with empty tables
)

// Unmarshal decodes and validates a checkpoint image. It rejects bad
// magic, unknown versions, mismatched counter dimensions, every form of
// truncation and length-prefix abuse, unsorted or overlapping regions,
// unsorted threads or files, and trailing bytes. Any accepted input
// re-marshals to the identical byte string.
func Unmarshal(b []byte) (*Image, error) {
	d := wire.NewDecoder("ckpt: image", b)
	if m := d.U32(); d.Err() == nil && m != imageMagic {
		return nil, fmt.Errorf("ckpt: bad image magic %#x", m)
	}
	if v := d.U8(); d.Err() == nil && v != imageVersion {
		return nil, fmt.Errorf("ckpt: unsupported image version %d", v)
	}
	img := &Image{JobID: d.I32(), Epoch: d.U32(), Kind: d.U8()}
	slots, counters, syscalls := d.U8(), d.U8(), d.U8()
	if d.Err() == nil && (slots != upc.NumSlots || counters != uint8(upc.NumCounters) || syscalls != upc.MaxSyscalls) {
		return nil, fmt.Errorf("ckpt: counter dimensions %d/%d/%d do not match this kernel (%d/%d/%d)",
			slots, counters, syscalls, upc.NumSlots, upc.NumCounters, upc.MaxSyscalls)
	}
	nodes := d.Count(nodeBytes)
	if nodes > MaxNodes {
		return nil, fmt.Errorf("ckpt: image claims %d nodes (max %d)", nodes, MaxNodes)
	}
	img.Nodes = make([]NodeState, nodes)
	for i := range img.Nodes {
		n := &img.Nodes[i]
		if err := decodeNode(d, n); err != nil {
			return nil, err
		}
		if i > 0 && n.Node <= img.Nodes[i-1].Node {
			return nil, fmt.Errorf("ckpt: node %d out of order after node %d", n.Node, img.Nodes[i-1].Node)
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return img, nil
}

// decodeNode decodes one node into n. Count has checked that a region or
// thread table fits before it is read, so only a file's path or the
// counter block can run out of bytes.
func decodeNode(d *wire.Decoder, n *NodeState) error {
	n.Node = d.I32()
	regions := d.Count(regionBytes)
	if regions > MaxRegions {
		return fmt.Errorf("ckpt: node %d claims %d regions (max %d)", n.Node, regions, MaxRegions)
	}
	n.Regions = make([]Region, regions)
	for r := range n.Regions {
		reg := Region{VBase: d.U64(), Size: d.U64(), Digest: d.U64()}
		if reg.Size == 0 {
			return fmt.Errorf("ckpt: node %d region %d has zero size", n.Node, r)
		}
		if reg.VBase+reg.Size < reg.VBase {
			return fmt.Errorf("ckpt: node %d region %d wraps the address space", n.Node, r)
		}
		if r > 0 {
			prev := n.Regions[r-1]
			if reg.VBase < prev.VBase+prev.Size {
				return fmt.Errorf("ckpt: node %d region %d overlaps or precedes region %d", n.Node, r, r-1)
			}
		}
		n.Regions[r] = reg
	}
	threads := d.Count(threadBytes)
	if threads > MaxThreads {
		return fmt.Errorf("ckpt: node %d claims %d threads (max %d)", n.Node, threads, MaxThreads)
	}
	n.Threads = make([]RegState, threads)
	for t := range n.Threads {
		ts := RegState{TID: d.U32(), PC: d.U64(), SP: d.U64()}
		if t > 0 && ts.TID <= n.Threads[t-1].TID {
			return fmt.Errorf("ckpt: node %d thread %d out of order", n.Node, t)
		}
		n.Threads[t] = ts
	}
	DecodeCounters(d, &n.Counters)
	files := d.Count(fileBytes)
	if files > MaxFiles {
		return fmt.Errorf("ckpt: node %d claims %d open files (max %d)", n.Node, files, MaxFiles)
	}
	n.Files = make([]FileState, files)
	for f := range n.Files {
		fe := FileState{FD: d.I32(), Offset: d.U64(), Flags: d.U64(), Path: d.Str()}
		if err := d.Err(); err != nil {
			return err
		}
		if fe.FD < 0 {
			return fmt.Errorf("ckpt: node %d file %d has negative descriptor", n.Node, f)
		}
		if f > 0 && fe.FD <= n.Files[f-1].FD {
			return fmt.Errorf("ckpt: node %d file %d out of order", n.Node, f)
		}
		if len(fe.Path) > MaxPath {
			return fmt.Errorf("ckpt: node %d file %d path of %d bytes (max %d)", n.Node, f, len(fe.Path), MaxPath)
		}
		n.Files[f] = fe
	}
	return d.Err()
}

// EncodeCounters appends a UPC counter block: for each slot, its
// counters and then its per-number syscall counts, each a u64. The
// checkpoint image and the service node's journal both carry it.
func EncodeCounters(e *wire.Encoder, s *upc.Snapshot) {
	for sl := range s.Vals {
		for c := range s.Vals[sl] {
			e.U64(s.Vals[sl][c])
		}
		for n := range s.Sys[sl] {
			e.U64(s.Sys[sl][n])
		}
	}
}

// DecodeCounters reads a counter block written by EncodeCounters into s.
func DecodeCounters(d *wire.Decoder, s *upc.Snapshot) {
	for sl := range s.Vals {
		for c := range s.Vals[sl] {
			s.Vals[sl][c] = d.U64()
		}
		for n := range s.Sys[sl] {
			s.Sys[sl][n] = d.U64()
		}
	}
}

// WorkSignature digests the counters that are a pure function of the
// application's logical execution: per-number syscall counts, function
// ships, network packets and bytes, DMA descriptors, combining-tree
// operations, futex traffic, and page faults. Counters that legitimately
// differ across a checkpoint/restart cycle — cache hits and misses, TLB
// refills, refresh stalls, timer ticks, daemon runs, retries and RAS
// reactions, all of which depend on microarchitectural state or absolute
// time that a restart does not preserve — are excluded. A job that
// restarts N times must WorkSignature-equal its fault-free run; that is
// the restart-determinism property the resilience tests gate.
func WorkSignature(s upc.Snapshot) uint64 {
	h := fnv.New64a()
	for _, c := range workCounters {
		for sl := 0; sl < upc.NumSlots; sl++ {
			fmt.Fprintf(h, "%d|%d|%d;", c, sl, s.Vals[sl][c])
		}
	}
	for sl := 0; sl < upc.NumSlots; sl++ {
		for n := 0; n < upc.MaxSyscalls; n++ {
			fmt.Fprintf(h, "s%d|%d|%d;", sl, n, s.Sys[sl][n])
		}
	}
	return h.Sum64()
}

var workCounters = []upc.Counter{
	upc.PageFault, upc.SyscallTotal, upc.FunctionShip,
	upc.DMADescriptor, upc.TorusPacket, upc.TorusBytes,
	upc.CollPacket, upc.CollBytes, upc.CombineOp,
	upc.FutexWait, upc.FutexWake,
}
