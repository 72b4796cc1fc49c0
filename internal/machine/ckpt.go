package machine

import (
	"fmt"
	"maps"
	"slices"

	"bgcnk/internal/ckpt"
	"bgcnk/internal/fs"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/sim"
)

// CkptDir is where checkpoint images land on the ION filesystem.
const CkptDir = "/gpfs/ckpt"

// CkptPath names the checkpoint image file for a job.
func CkptPath(jobID int) string { return fmt.Sprintf("%s/job%06d.img", CkptDir, jobID) }

// ckptState is the machine's checkpoint bookkeeping. The simulation's
// event engine is single-threaded, so captures from different ranks
// never race; pending accumulates per-node states between a barrier
// capture and the rank-0 seal, which marshals them from there. pending
// and captured are indexed by node and allocated once, when checkpoints
// are armed.
type ckptState struct {
	armed    bool
	jobID    int
	epoch    uint32
	pending  []ckpt.NodeState
	captured []bool
}

// ArmCheckpoints enables checkpointing for jobID and prepares the
// checkpoint directory on every ION filesystem. The application decides
// when to capture: CaptureNode takes the epoch it has reached.
func (m *Machine) ArmCheckpoints(jobID int) {
	m.ck = ckptState{armed: true, jobID: jobID,
		pending: make([]ckpt.NodeState, len(m.Chips)), captured: make([]bool, len(m.Chips))}
	for _, fsys := range m.IONFS {
		fsys.MustMkdirAll(CkptDir)
	}
}

// CaptureNode snapshots the calling rank's node — memory-region
// descriptors, thread register state, the full UPC block, the mirrored
// CIOD file table — into the pending image. It must be called at a
// quiesce point (immediately after a barrier, before any further work) so
// every node's state sits at the same logical epoch. The capture itself
// is free; the caller charges CheckpointCost separately, which is where
// the CNK-vs-FWK snapshot asymmetry lives.
func (m *Machine) CaptureNode(ctx kernel.Context, epoch uint32) {
	if !m.ck.armed {
		return
	}
	node := m.nodeOf(ctx)
	pid := ctx.PID()
	ns := &m.ck.pending[node]
	*ns = ckpt.NodeState{Node: int32(node), Counters: m.Chips[node].UPC.Snapshot()}
	switch m.Cfg.Kind {
	case KindCNK:
		k := m.CNKs[node]
		ns.Regions, _ = k.CheckpointRegions(pid)
		if p := k.Proc(pid); p != nil {
			ns.Threads = threadRegs(p.Threads, p.Layout.StackTop, epoch)
		}
		// CNK keeps no local file state: the table lives in the node's
		// ioproxy on the I/O node (paper IV-A), so the image captures the
		// mirror.
		srv := m.Servers[node/m.Cfg.CNsPerION]
		ns.Files = toFileStates(srv.FileTable(node, pid))
	case KindFWK:
		k := m.FWKs[node]
		ns.Regions, _ = k.CheckpointRegions(pid)
		if p := k.Proc(pid); p != nil {
			ns.Threads = threadRegs(p.Threads, p.StackTop, epoch)
			ns.Files = toFileStates(p.OpenFiles())
		}
	}
	m.ck.captured[node] = true
	m.ck.epoch = epoch
}

// threadRegs synthesizes a process's per-thread register state for a
// checkpoint, sorted by TID: PC stands in for the resume epoch and SP
// anchors at the stack top.
func threadRegs(threads map[uint32]*kernel.Thread, stackTop hw.VAddr, epoch uint32) []ckpt.RegState {
	out := make([]ckpt.RegState, 0, len(threads))
	for _, tid := range slices.Sorted(maps.Keys(threads)) {
		out = append(out, ckpt.RegState{TID: tid, PC: uint64(epoch), SP: uint64(stackTop)})
	}
	return out
}

// SealCheckpoint marshals the pending node captures into a complete
// image, nodes in node order, straight from the node-indexed capture
// buffer, and clears the buffer; it returns nil when no checkpoint
// schedule is armed. Rank 0 calls this after the post-capture barrier,
// when every node's capture is guaranteed present, and writes the bytes
// out.
func (m *Machine) SealCheckpoint() []byte {
	if !m.ck.armed {
		return nil
	}
	// Barrier quiesce is a flush trigger: with the ION cache armed, every
	// dirty block the job wrote before the capture barrier must reach the
	// backing fs before the image seals, or a post-checkpoint ION crash
	// would roll file contents behind the image's file-table mirror.
	for _, n := range m.IONs {
		n.Cache().FlushAll(nil)
	}
	blob := ckpt.MarshalNodes(int32(m.ck.jobID), m.ck.epoch, uint8(m.Cfg.Kind), m.ck.pending, m.ck.captured)
	m.ck.clearPending()
	return blob
}

// clearPending drops every pending capture and keeps the buffers.
func (ck *ckptState) clearPending() {
	clear(ck.pending)
	clear(ck.captured)
}

// RestoreNode rolls the calling rank's node back to its state in img:
// the UPC block is reloaded from the image (the restored run continues
// the interrupted run's counter history), the FWK's resident set is
// rebuilt to exactly the image's page set, and the CIOD file table is
// reconstructed so open files resume at their mirrored offsets. The
// caller charges RestoreCost separately.
func (m *Machine) RestoreNode(ctx kernel.Context, img *ckpt.Image) error {
	node := m.nodeOf(ctx)
	pid := ctx.PID()
	var ns *ckpt.NodeState
	for i := range img.Nodes {
		if img.Nodes[i].Node == int32(node) {
			ns = &img.Nodes[i]
			break
		}
	}
	if ns == nil {
		return fmt.Errorf("machine: image has no state for node %d", node)
	}
	if img.Kind != uint8(m.Cfg.Kind) {
		return fmt.Errorf("machine: image kind %d does not match machine kind %d", img.Kind, m.Cfg.Kind)
	}
	switch m.Cfg.Kind {
	case KindCNK:
		k := m.CNKs[node]
		p := k.Proc(pid)
		if p == nil {
			return fmt.Errorf("machine: restore node %d: no process %d", node, pid)
		}
		srv := m.Servers[node/m.Cfg.CNsPerION]
		if errno := srv.RestoreFiles(node, pid, p.UID, p.GID, fromFileStates(ns.Files)); errno != kernel.OK {
			return fmt.Errorf("machine: restore node %d file table: errno %d", node, errno)
		}
	case KindFWK:
		k := m.FWKs[node]
		k.RestoreImage(pid, ns.Regions)
		if p := k.Proc(pid); p != nil {
			p.RestoreFiles(fromFileStates(ns.Files))
		}
	}
	m.Chips[node].UPC.Load(ns.Counters)
	m.ck.epoch = img.Epoch
	return nil
}

// CheckpointCost returns the modelled cycles the calling rank's node
// spends taking its part of a snapshot. CNK: one streaming pass over a
// few statically known extents. FWK: page-cache flush, daemon quiesce,
// then a per-page walk of the resident set — the cost the mtbf
// experiment compares.
func (m *Machine) CheckpointCost(ctx kernel.Context) sim.Cycles {
	node := m.nodeOf(ctx)
	if m.Cfg.Kind == KindCNK {
		return m.CNKs[node].CheckpointCost(ctx.PID())
	}
	return m.FWKs[node].CheckpointCost(ctx.PID())
}

// RestoreCost returns the modelled cycles the calling rank's node spends
// streaming its image back in after a restart boot.
func (m *Machine) RestoreCost(ctx kernel.Context) sim.Cycles {
	node := m.nodeOf(ctx)
	if m.Cfg.Kind == KindCNK {
		return m.CNKs[node].RestoreCost(ctx.PID())
	}
	return m.FWKs[node].RestoreCost(ctx.PID())
}

// clearCkptJobState drops per-job checkpoint residue — pending capture
// buffers and the epoch — while keeping the armed schedule itself,
// mirroring ClearJobs semantics (job state goes, machine configuration
// stays).
func (m *Machine) clearCkptJobState() {
	m.ck.clearPending()
	m.ck.epoch = 0
}

// disarmCheckpoints forgets the checkpoint schedule entirely (Reboot
// semantics: the partition comes back as a fresh machine).
func (m *Machine) disarmCheckpoints() {
	m.ck = ckptState{}
}

func toFileStates(in []fs.OpenFileState) []ckpt.FileState {
	out := make([]ckpt.FileState, 0, len(in))
	for _, f := range in {
		out = append(out, ckpt.FileState{
			FD: int32(f.FD), Offset: f.Offset, Flags: f.Flags, Path: f.Path,
		})
	}
	return out
}

func fromFileStates(in []ckpt.FileState) []fs.OpenFileState {
	out := make([]fs.OpenFileState, 0, len(in))
	for _, f := range in {
		out = append(out, fs.OpenFileState{
			FD: int(f.FD), Offset: f.Offset, Flags: f.Flags, Path: f.Path,
		})
	}
	return out
}
