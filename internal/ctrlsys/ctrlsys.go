// Package ctrlsys models the Blue Gene control system: the service node
// that owns the rack/midplane/node hierarchy, allocates electrically
// isolated partitions, boots them (CNK by broadcasting a small image over
// the collective network, an FWK by staggered per-node image loads),
// drains a job queue across partitions with teardown/reboot between jobs,
// and tears everything down again. The paper's CNK story is inseparable
// from this layer: "CNK boots a 72-rack machine in minutes" is a
// control-system property as much as a kernel one (Section III), and job
// launch/teardown at scale is what the lightweight kernel's tiny state
// makes cheap.
//
// Every partition is backed by its own machine.Machine — its own event
// engine, RNG streams forked from the service seed by job ID, and its own
// RAS log — so partitions are fully isolated simulations. That isolation
// is what makes a job's result a pure function of its job spec,
// independent of which midplanes it lands on or which worker simulates
// it, which in turn is what lets Drain run partitions in parallel on a
// bounded worker pool and still merge bit-identical results: every drain
// commits through one serial pipeline in job-ID order (deterministic
// parallelism in the spirit of Ford & Cox's deterministic spaces:
// parallelize first, then commit in a fixed order).
package ctrlsys

import (
	"fmt"

	"bgcnk/internal/ion"
	"bgcnk/internal/machine"
	"bgcnk/internal/obs"
	"bgcnk/internal/ras"
)

// Topology is the machine's physical hierarchy as the service node sees
// it. Partitions are allocated in whole midplanes (the real machine's
// allocation granularity for electrical isolation); a block of contiguous
// midplanes becomes one isolated partition.
type Topology struct {
	Racks            int
	MidplanesPerRack int
	NodesPerMidplane int
}

// DefaultTopology is a small two-rack system, big enough to exercise
// fragmentation and backfill while keeping partition simulations quick.
func DefaultTopology() Topology {
	return Topology{Racks: 2, MidplanesPerRack: 2, NodesPerMidplane: 4}
}

func (t Topology) normalized() Topology {
	if t.Racks <= 0 {
		t.Racks = 2
	}
	if t.MidplanesPerRack <= 0 {
		t.MidplanesPerRack = 2
	}
	if t.NodesPerMidplane <= 0 {
		t.NodesPerMidplane = 4
	}
	return t
}

// Midplanes returns the total midplane count.
func (t Topology) Midplanes() int { return t.Racks * t.MidplanesPerRack }

// Nodes returns the total compute-node count.
func (t Topology) Nodes() int { return t.Midplanes() * t.NodesPerMidplane }

// BlockName names a midplane in control-system notation ("R01-M2").
func (t Topology) BlockName(midplane int) string {
	return fmt.Sprintf("R%02d-M%d", midplane/t.MidplanesPerRack, midplane%t.MidplanesPerRack)
}

// Config describes the service node.
type Config struct {
	Topology Topology
	Kind     machine.KernelKind
	// Seed determines everything: the job stream, each partition
	// machine's kernel seed, and each job's fault schedule. Partition
	// seeds are forked per job ID, never per placement, so a job's
	// simulation is placement-independent.
	Seed uint64
	// Workers bounds how many partition simulations run concurrently in
	// Drain; 0 or 1 is serial. Results are identical at any width.
	Workers int
	// Faults, when non-nil and enabled, arms each partition's fault
	// injector with a per-job fork of the plan's seed.
	Faults *ras.Plan
	// CNsPerION sets each partition's compute-to-I/O-node ratio (0 = one
	// ION per partition).
	CNsPerION int
	// ION, when non-nil, arms the I/O-node aggregation subsystem (shared
	// uplink, ingress backpressure, write-back cache) on every partition.
	ION *ion.Config
	// Ckpt arms checkpoint/restart: jobs snapshot at exchange-round
	// boundaries and fault-killed jobs restart from their last image.
	Ckpt CkptConfig
	// Journal arms the write-ahead journal: every scheduler state
	// transition is made durable on the control store before it is
	// applied, and a crashed service node recovers by replay (crash-only
	// operation). Off, the drain runs the same commit pipeline, but its
	// records only advance a virtual LSN and the service node is the
	// single point of failure it always was.
	Journal JournalConfig
	// Crashes, when non-nil and enabled, arms deterministic service-node
	// crash injection: seeded deaths keyed to journal LSNs. With Journal
	// on, Drain recovers and completes bit-identically to a crash-free
	// drain; with Journal off, crash-aborted jobs surface
	// ErrServiceNodeCrash in DrainResult.Errs.
	Crashes *ras.CrashPlan
	// Obs, when non-nil, arms the service node's span recorder: Drain
	// emits each job's lifecycle (submit/boot/run/restart/teardown) as
	// control-time spans, serially in job-ID order after the merge, so
	// the trace is byte-identical at every worker count.
	Obs *obs.Config
}

// ServiceNode is the control system's brain: it owns the midplane map and
// hands out partitions.
type ServiceNode struct {
	cfg  Config
	topo Topology

	// owner maps each midplane to the partition ID occupying it, or -1.
	owner   []int
	nextPID int

	// w is the crash-survivable world (control store, journal, crash
	// injector, drain state). Every node has one: with the journal off
	// its records only advance a virtual LSN.
	w *world

	// obs is the job-lifecycle span recorder; nil unless Config.Obs is
	// armed.
	obs *obs.Recorder
}

// New builds a service node over the configured topology.
func New(cfg Config) *ServiceNode {
	topo := cfg.Topology.normalized()
	s := &ServiceNode{cfg: cfg, topo: topo, owner: make([]int, topo.Midplanes()), w: newWorld(cfg)}
	for i := range s.owner {
		s.owner[i] = -1
	}
	if cfg.Obs != nil {
		s.obs = obs.New(*cfg.Obs)
		s.obs.SetPidPrefix("job")
	}
	return s
}

// Topology returns the (normalized) machine topology.
func (s *ServiceNode) Topology() Topology { return s.topo }

// FreeMidplanes counts currently unallocated midplanes.
func (s *ServiceNode) FreeMidplanes() int {
	n := 0
	for _, o := range s.owner {
		if o == -1 {
			n++
		}
	}
	return n
}

// Partition is one isolated block of midplanes. Between Allocate and
// Release it owns its midplanes exclusively; after BootPartition it is
// backed by a live machine.Machine with its own engine and RAS log.
type Partition struct {
	ID        int
	Base      int // first midplane index
	Midplanes int
	Nodes     int
	Block     string // control-system name, e.g. "R00-M1" or "R00-M1+2"
	Kind      machine.KernelKind
	Seed      uint64 // the partition machine's kernel seed

	// Boot is the modelled boot-protocol cost (set by BootPartition).
	Boot BootResult
	// M is the backing machine (set by BootPartition, nil after Destroy).
	M *machine.Machine
}

// Allocate reserves a contiguous block of midplanes (first fit, the real
// control system's electrical-isolation constraint) and returns the
// partition descriptor. The partition is not yet booted.
func (s *ServiceNode) Allocate(midplanes int) (*Partition, error) {
	if midplanes <= 0 {
		midplanes = 1
	}
	if midplanes > s.topo.Midplanes() {
		return nil, fmt.Errorf("ctrlsys: partition of %d midplanes exceeds machine (%d)",
			midplanes, s.topo.Midplanes())
	}
	base, ok := s.firstFit(midplanes)
	if !ok {
		return nil, fmt.Errorf("ctrlsys: no contiguous block of %d midplanes free", midplanes)
	}
	p := &Partition{
		ID:        s.nextPID,
		Base:      base,
		Midplanes: midplanes,
		Nodes:     midplanes * s.topo.NodesPerMidplane,
		Block:     s.blockName(base, midplanes),
		Kind:      s.cfg.Kind,
	}
	// Write-ahead: the allocation is durable before the midplane map
	// changes, so a crash here loses nothing recovery has to undo.
	if err := s.appendRec(recPartAlloc, tripleBody(p.ID, base, midplanes), ras.SiteAppend); err != nil {
		return nil, err
	}
	s.nextPID++
	for i := base; i < base+midplanes; i++ {
		s.owner[i] = p.ID
	}
	return p, nil
}

func (s *ServiceNode) firstFit(span int) (int, bool) {
	run := 0
	for i, o := range s.owner {
		if o != -1 {
			run = 0
			continue
		}
		run++
		if run == span {
			return i - span + 1, true
		}
	}
	return 0, false
}

func (s *ServiceNode) blockName(base, span int) string {
	name := s.topo.BlockName(base)
	if span > 1 {
		name = fmt.Sprintf("%s+%d", name, span)
	}
	return name
}

// Release returns the partition's midplanes to the free pool and shuts
// down its backing machine if one is still up.
func (s *ServiceNode) Release(p *Partition) {
	p.Destroy()
	if p.Base >= 0 {
		// A crash on this append leaves the allocation durable; the free
		// happens anyway in memory, and recovery re-frees it from the
		// journal — releasing twice is idempotent.
		_ = s.appendRec(recPartFree, idBody(p.ID), ras.SiteAppend)
	}
	for i := p.Base; i < p.Base+p.Midplanes; i++ {
		if i >= 0 && i < len(s.owner) && s.owner[i] == p.ID {
			s.owner[i] = -1
		}
	}
}

// BootPartition runs the boot protocol for the partition and stands up
// its backing machine. jobSeed parameterizes the partition's kernels and
// faults; it must be derived from the job, not the placement, for
// placement-independent results.
func (s *ServiceNode) BootPartition(p *Partition, jobSeed uint64) error {
	// Journal real (allocated) partition boots only: drain-simulation
	// partitions (Base -1) are booted inside parallel workers and get
	// their virtual boot records from the serial commit pipeline instead.
	if p.Base >= 0 {
		if err := s.appendRec(recPartBoot, bootBody(p.ID, jobSeed), ras.SiteBoot); err != nil {
			return err
		}
	}
	p.Seed = jobSeed
	p.Boot = SimulateBoot(BootConfig{
		Kind:             s.cfg.Kind,
		Nodes:            p.Nodes,
		NodesPerMidplane: s.topo.NodesPerMidplane,
	})
	mcfg := machine.Config{
		Nodes:     p.Nodes,
		Kind:      s.cfg.Kind,
		Seed:      jobSeed,
		CNsPerION: s.cfg.CNsPerION,
		ION:       s.cfg.ION,
	}
	if s.cfg.Faults.Enabled() {
		// Fold the job seed into the plan's own seed: the fault schedule
		// must differ per job (so two jobs don't see the same faults) AND
		// per fault seed (so the user's -faults knob matters), while
		// staying a pure function of (plan, job) for replay.
		plan := *s.cfg.Faults
		plan.Seed = plan.Seed ^ jobSeed ^ 0xfa171e55
		mcfg.Faults = &plan
	}
	m, err := machine.New(mcfg)
	if err != nil {
		return fmt.Errorf("ctrlsys: boot partition %s: %v", p.Block, err)
	}
	p.M = m
	return nil
}

// Personalities returns the per-node personality records the boot
// protocol delivers alongside the image: each node's identity, geometry
// and seed. The marshalled size of these records is what the boot model
// charges per node on the control network.
func (p *Partition) Personalities() []Personality {
	out := make([]Personality, p.Nodes)
	for n := 0; n < p.Nodes; n++ {
		out[n] = Personality{
			Rank:      int32(n),
			Nodes:     int32(p.Nodes),
			X:         int32(n), // machines are built as an X-line torus
			Partition: int32(p.ID),
			Base:      int32(p.Base),
			Block:     p.Block,
			Kind:      uint8(p.Kind),
			Seed:      p.Seed,
			MemBytes:  256 << 20,
		}
	}
	return out
}

// Destroy shuts the backing machine down (partition teardown). The
// midplanes stay reserved until Release.
func (p *Partition) Destroy() {
	if p.M != nil {
		p.M.Shutdown()
		p.M = nil
	}
}
