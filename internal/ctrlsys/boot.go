package ctrlsys

import (
	"math/bits"
	"sync"

	"bgcnk/internal/cnk"
	"bgcnk/internal/collective"
	"bgcnk/internal/fwk"
	"bgcnk/internal/hw"
	"bgcnk/internal/machine"
	"bgcnk/internal/sim"
)

// Boot-protocol cost model. The asymmetry the paper hangs its boot story
// on (Section III: a 72-rack machine boots CNK "in minutes") is
// structural, not a tuning constant:
//
//   - CNK's image is tiny and IDENTICAL on every node, so the service
//     node serializes it ONCE into the collective network and the tree
//     broadcasts it; cost grows only with tree depth (log N) plus the
//     per-midplane personality writes, which run in parallel across
//     midplanes. Node-local init is the ~37k-instruction CNK boot.
//
//   - An FWK image is orders of magnitude larger and must be fed to each
//     node separately (ramdisk push / NFS root pull over the service
//     node's few Ethernet streams), then each node runs a full init and
//     starts its daemons, then mounts its filesystems against the same
//     service node — a per-node serialized term at every stage, linear
//     in N.
const (
	cnkImageBytes         = 1 << 20            // CNK boot image (small static kernel)
	fwkImageBytes         = 24 << 20           // full FWK image + initrd
	ctrlLinkCyclesPerByte = 8                  // service-node control Ethernet, ~100 MB/s
	fwkServiceStreams     = 4                  // parallel image-serving streams
	fwkMountCost          = sim.Cycles(25_000) // per-node NFS mount, serialized at the server
	fwkDaemonStartCost    = sim.Cycles(120_000)
)

// BootConfig parameterizes one partition boot.
type BootConfig struct {
	Kind             machine.KernelKind
	Nodes            int
	NodesPerMidplane int
}

// BootResult is the modelled cost of bringing one partition up, broken
// into the protocol's phases.
type BootResult struct {
	Kind       machine.KernelKind
	Nodes      int
	ImageBytes uint64
	// Waves is the protocol's serial depth: collective-tree depth for the
	// CNK broadcast, image-load waves (ceil(N/streams)) for an FWK.
	Waves int
	// ImagePhase is image delivery: one broadcast (CNK) or N staggered
	// loads over the service streams (FWK).
	ImagePhase sim.Cycles
	// PerNodePhase is the remaining control-network traffic: personality
	// writes per midplane (CNK, parallel across midplanes) or the NFS
	// mount storm (FWK, serialized at the service node).
	PerNodePhase sim.Cycles
	// InitPhase is node-local kernel initialization (runs in parallel on
	// all nodes): the kernel's own boot instructions, plus daemon start
	// on an FWK.
	InitPhase sim.Cycles
	Total     sim.Cycles
}

// SimulateBoot runs the boot-protocol model for one partition.
func SimulateBoot(cfg BootConfig) BootResult {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.NodesPerMidplane <= 0 {
		cfg.NodesPerMidplane = cfg.Nodes
	}
	r := BootResult{Kind: cfg.Kind, Nodes: cfg.Nodes}
	tree := collective.DefaultConfig()
	if cfg.Kind == machine.KindCNK {
		r.ImageBytes = cnkImageBytes
		// Serialize the image once at the tree root; packets pipeline
		// down the tree, so depth adds latency, not bandwidth.
		packets := (cnkImageBytes + collective.PacketBytes - 1) / collective.PacketBytes
		serialize := sim.Cycles(float64(cnkImageBytes)*tree.CyclesPerByte) +
			sim.Cycles(packets)*tree.PerPacket
		depth := bits.Len(uint(cfg.Nodes - 1)) // ceil(log2 N); 0 for N=1
		r.Waves = depth
		r.ImagePhase = serialize + sim.Cycles(depth)*tree.Latency
		// Personalities go over the per-midplane control links, all
		// midplanes in parallel; within a midplane the writes serialize.
		perMidplane := cfg.Nodes
		if cfg.NodesPerMidplane < cfg.Nodes {
			perMidplane = cfg.NodesPerMidplane
		}
		r.PerNodePhase = sim.Cycles(perMidplane * personalityWireBytes() * ctrlLinkCyclesPerByte)
		r.InitPhase = sim.Cycles(cnkBootInstr())
	} else {
		r.ImageBytes = fwkImageBytes
		perLoad := sim.Cycles(r.ImageBytes * ctrlLinkCyclesPerByte)
		waves := (cfg.Nodes + fwkServiceStreams - 1) / fwkServiceStreams
		r.Waves = waves
		r.ImagePhase = sim.Cycles(waves) * perLoad
		r.PerNodePhase = sim.Cycles(cfg.Nodes) * fwkMountCost
		r.InitPhase = sim.Cycles(fwkBootInstr()) + fwkDaemonStartCost
	}
	r.Total = r.ImagePhase + r.PerNodePhase + r.InitPhase
	return r
}

// cnkBootInstr and fwkBootInstr ask the kernel models themselves what
// node-local boot costs, so the protocol model can never drift from the
// kernels it boots. The answer depends only on the kernel kind, so each
// probe runs once per process.
var (
	cnkBootInstr = sync.OnceValue(func() uint64 { return probeBootInstr(machine.KindCNK) })
	fwkBootInstr = sync.OnceValue(func() uint64 { return probeBootInstr(machine.KindFWK) })
)

// probeBootInstr boots a kernel of kind on a fresh chip and returns the
// instructions its node-local boot took.
func probeBootInstr(kind machine.KernelKind) uint64 {
	eng := sim.NewEngine()
	chip := hw.NewChip(hw.ChipConfig{ID: 0})
	if kind == machine.KindCNK {
		k := cnk.New(eng, chip, cnk.Config{})
		if err := k.Boot(); err != nil {
			panic(err)
		}
		return k.BootInstr
	}
	// No daemon specs: this probe must not start coroutines it cannot
	// reclaim. Daemon start is charged separately by the caller.
	k := fwk.New(eng, chip, fwk.Config{Daemons: []fwk.DaemonSpec{}})
	if err := k.Boot(); err != nil {
		panic(err)
	}
	return k.BootInstr
}
