// Package bluegene is the public face of the CNK reproduction: a
// deterministic simulation of a Blue Gene/P-class machine on which the
// paper's lightweight Compute Node Kernel and a Linux-like full-weight
// kernel run the same applications, so every comparison in "Experiences
// with a Lightweight Supercomputer Kernel" (SC 2010) can be re-run.
//
// Quick start:
//
//	m, err := bluegene.NewMachine(bluegene.MachineConfig{Nodes: 2, Kernel: bluegene.CNK})
//	...
//	err = m.Run(func(ctx bluegene.Context, env *bluegene.Env) {
//	    ctx.Compute(1_000_000) // burn a millisecond of 850MHz cycles
//	}, bluegene.JobParams{}, 0)
//
// Experiments (the paper's tables and figures) are run via Experiment /
// AllExperiments; see EXPERIMENTS.md for the recorded results.
package bluegene

import (
	"fmt"

	"bgcnk/internal/ckpt"
	"bgcnk/internal/ctrlsys"
	"bgcnk/internal/experiments"
	"bgcnk/internal/fs"
	"bgcnk/internal/ion"
	"bgcnk/internal/kernel"
	"bgcnk/internal/machine"
	"bgcnk/internal/obs"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/torus"
	"bgcnk/internal/upc"
)

// KernelKind selects the compute-node kernel.
type KernelKind = machine.KernelKind

// Kernel kinds.
const (
	CNK = machine.KindCNK
	FWK = machine.KindFWK
)

// Context is a thread's view of its kernel (compute, syscalls, memory).
type Context = kernel.Context

// Env is a rank's machine-level environment (its MPI communicator, DCMF
// device and node identity).
type Env = machine.Env

// JobParams are the job launch parameters (processes per node, shared
// memory size, guard size).
type JobParams = kernel.JobParams

// Cycles counts 850 MHz processor cycles.
type Cycles = sim.Cycles

// MachineConfig describes the machine to simulate.
type MachineConfig struct {
	Nodes  int
	Kernel KernelKind
	// Dims, when nonzero, shapes the torus as a full multi-dimensional
	// torus (e.g. {4, 4, 1}) instead of the default {Nodes,1,1} ring;
	// Nodes is then derived from the product of the dimensions.
	Dims TorusCoord
	// Seed drives the FWK's daemon phases (CNK ignores it: CNK runs are
	// reproducible under any seed).
	Seed uint64
	// Reproducible boots CNK in cycle-reproducible (bringup) mode.
	Reproducible bool
	// MaxThreadsPerCore is CNK's fixed thread budget (default 1; BG/P
	// later allowed 3).
	MaxThreadsPerCore int
	// MemBytes is per-node DDR (default 256MB).
	MemBytes uint64
	// Faults, when non-nil with any non-zero rate, arms the seeded RAS
	// fault injector: the plan's seed fully determines the fault
	// schedule, so fault-injected runs stay bit-reproducible. The
	// machine's RAS field then holds the event log.
	Faults *FaultPlan
	// CNsPerION sets the compute-to-I/O-node ratio (0 = every compute
	// node shares one ION).
	CNsPerION int
	// ION, when non-nil, arms the I/O-node aggregation subsystem: shared
	// collective uplink, bounded ingress queue with backpressure, request
	// coalescing and the write-back buffer cache. The zero IONConfig takes
	// all defaults.
	ION *IONConfig
	// Obs, when non-nil, arms the cycle-timestamped span recorder
	// (Machine.Obs): every layer emits spans, and a nonzero SampleEvery
	// adds the periodic UPC time-series. Recording charges zero simulated
	// cycles. The zero ObsConfig records all categories, sampler off.
	Obs *ObsConfig
}

// IONConfig sizes one I/O node's aggregation machinery (MachineConfig.ION,
// ControlConfig.ION); zero fields take package defaults.
type IONConfig = ion.Config

// IONStat is one I/O node's aggregation summary (Machine.IONStats).
type IONStat = ion.Stats

// FaultPlan is a seeded fault-injection plan: per-opportunity rates for
// DDR ECC errors, TLB parity flips, link CRC corruption, and CIOD reply
// loss / daemon crashes. The zero plan injects nothing.
type FaultPlan = ras.Plan

// RASLog is the machine-wide reliability event log (Machine.RAS; nil on
// machines built without a fault plan). A nil log is safe to call: it
// records nothing, and its counts, hashes and table read as empty.
type RASLog = ras.Log

// DefaultFaultPlan returns a moderate all-classes plan seeded with seed.
func DefaultFaultPlan(seed uint64) *FaultPlan { return ras.DefaultPlan(seed) }

// ---- Network resilience ----
//
// A fault plan with LinkFails/NodeFails schedules hard torus faults:
// directed links and whole node interfaces die at seeded cycles. By
// default the network routes around the fault region (detours counted in
// the UPC) and retransmits in-flight losses end to end; with
// FaultPlan.NetResilienceOff the routing stays static and losses surface
// as typed DeliveryErrors. A plan whose deaths would disconnect the
// surviving partition is refused at NewMachine (boot-time partition
// wiring validation).

// TorusCoord is a 3-D torus coordinate (MachineConfig.Dims).
type TorusCoord = torus.Coord

// DeliveryError is the typed end-to-end delivery failure surfaced by
// network operations on a machine with hard torus faults armed; test
// with errors.As. Its Unwrap yields ErrUnroutable when no route
// survives.
type DeliveryError = torus.DeliveryError

// ErrUnroutable reports that no route survives the current fault set;
// test with errors.Is.
var ErrUnroutable = torus.ErrUnroutable

// Machine is a simulated Blue Gene/P system.
type Machine struct {
	*machine.Machine
}

// NewMachine builds and boots a machine.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	m, err := machine.New(machine.Config{
		Nodes:             cfg.Nodes,
		Dims:              cfg.Dims,
		Kind:              cfg.Kernel,
		Seed:              cfg.Seed,
		Reproducible:      cfg.Reproducible,
		MaxThreadsPerCore: cfg.MaxThreadsPerCore,
		MemSize:           cfg.MemBytes,
		Faults:            cfg.Faults,
		CNsPerION:         cfg.CNsPerION,
		ION:               cfg.ION,
		Obs:               cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	return &Machine{Machine: m}, nil
}

// App is a per-rank application entry point.
type App = machine.App

// CounterSnapshot is a point-in-time copy of one node's (or a merged
// machine's) UPC performance counters; subtract two with CounterDelta to
// attribute counts to a region of a run.
type CounterSnapshot = upc.Snapshot

// ---- Observability ----
//
// The span layer (internal/obs) records cycle-timestamped spans from
// every layer — kernel boots, syscalls, scheduler ticks and daemon
// bursts, torus packets, collective sends, CIOD function shipping, ION
// backpressure stalls, control-system job lifecycles — plus a periodic
// delta-encoded UPC time-series. Recording charges zero simulated
// cycles: arming it changes no trace hash, exit code, counter or RAS
// log, and the exported bytes are deterministic given the seed.

// ObsConfig arms the span recorder (MachineConfig.Obs, ControlConfig.Obs);
// the zero value records every category with the sampler off.
type ObsConfig = obs.Config

// ObsRecorder accumulates spans and samples (Machine.Obs,
// ServiceNode.Obs); export with Machine.TraceJSON / TraceBinary.
type ObsRecorder = obs.Recorder

// ObsTrace is a recorder's complete output (spans + samples), the unit
// the binary trace codec round-trips.
type ObsTrace = obs.Trace

// ObsSpan is one recorded cycle-timestamped interval.
type ObsSpan = obs.Span

// UnmarshalTrace decodes a binary trace (Machine.TraceBinary), rejecting
// truncated, corrupt or non-canonical input.
func UnmarshalTrace(b []byte) (ObsTrace, error) { return obs.Unmarshal(b) }

// CounterDelta returns after minus before, elementwise.
func CounterDelta(before, after CounterSnapshot) CounterSnapshot {
	return upc.Delta(before, after)
}

// MergeCounters sums snapshots elementwise (e.g. across nodes).
func MergeCounters(snaps ...CounterSnapshot) CounterSnapshot {
	return upc.Merge(snaps...)
}

// ExperimentResult is one regenerated paper artifact.
type ExperimentResult = experiments.Result

// ExperimentOptions scales experiment sizes and bounds the replica
// worker pool the runners fan independent simulations across. Renders
// are bit-identical at every worker count.
type ExperimentOptions = experiments.Options

// ExperimentIDs lists the paper artifacts, in paper order.
func ExperimentIDs() []string { return append([]string(nil), experiments.Order...) }

// ExperimentOpt regenerates one paper artifact ("fig5-7", "table1",
// "fig8", "linpack", "allreduce", "table2", "table3", "boot", "repro",
// ...) with explicit options.
func ExperimentOpt(id string, opt ExperimentOptions) (*ExperimentResult, error) {
	r, ok := experiments.Registry[id]
	if !ok {
		return nil, fmt.Errorf("bluegene: unknown experiment %q (have %v)", id, experiments.Order)
	}
	return r(opt)
}

// Experiment regenerates one paper artifact. quick shrinks sample
// counts for fast runs.
func Experiment(id string, quick bool) (*ExperimentResult, error) {
	return ExperimentOpt(id, ExperimentOptions{Quick: quick})
}

// AllExperimentsOpt regenerates every table and figure with explicit
// options.
func AllExperimentsOpt(opt ExperimentOptions) ([]*ExperimentResult, error) {
	return experiments.RunAll(opt)
}

// AllExperiments regenerates every table and figure.
func AllExperiments(quick bool) ([]*ExperimentResult, error) {
	return AllExperimentsOpt(ExperimentOptions{Quick: quick})
}

// ---- Control system ----
//
// The control system models the service node that owns the machine's
// rack/midplane hierarchy: it allocates isolated partitions, boots them
// (CNK by collective-network broadcast, FWK by staggered per-node image
// loads), and drains a job queue across partitions — in parallel on a
// worker pool, with results bit-identical to a serial drain.

// Topology is the machine hierarchy the service node manages.
type Topology = ctrlsys.Topology

// ControlConfig configures a service node.
type ControlConfig = ctrlsys.Config

// ServiceNode allocates, boots and drains partitions.
type ServiceNode = ctrlsys.ServiceNode

// ControlPartition is one isolated block of midplanes.
type ControlPartition = ctrlsys.Partition

// Personality is the per-node boot record delivered with the kernel image.
type Personality = ctrlsys.Personality

// ControlJob is one queued job submission.
type ControlJob = ctrlsys.Job

// ControlJobResult is one drained job's outcome.
type ControlJobResult = ctrlsys.JobResult

// DrainResult is a fully drained job queue with its schedule and merged
// counters/RAS streams.
type DrainResult = ctrlsys.DrainResult

// BootConfig parameterizes one partition boot-protocol simulation.
type BootConfig = ctrlsys.BootConfig

// BootResult is the modelled boot-protocol cost, by phase.
type BootResult = ctrlsys.BootResult

// DefaultTopology is a small two-rack system.
func DefaultTopology() Topology { return ctrlsys.DefaultTopology() }

// NewServiceNode builds a service node over cfg's topology.
func NewServiceNode(cfg ControlConfig) *ServiceNode { return ctrlsys.New(cfg) }

// GenerateControlJobs draws a seeded stream of n job submissions.
func GenerateControlJobs(seed uint64, n, maxMidplanes int) []ControlJob {
	return ctrlsys.GenerateJobs(seed, n, maxMidplanes)
}

// SimulateBoot runs the boot-protocol model for one partition.
func SimulateBoot(cfg BootConfig) BootResult { return ctrlsys.SimulateBoot(cfg) }

// ---- Resilience ----
//
// Checkpoint/restart rides the control system: with ControlConfig.Ckpt
// enabled, drained jobs snapshot periodically through CIOD to the ION
// filesystem and a job killed by an uncorrectable RAS event is restarted
// from its last checkpoint, with bounded attempts and exponential backoff
// at the service node. Everything stays bit-reproducible.

// CkptConfig arms checkpoint/restart for drained jobs
// (ControlConfig.Ckpt).
type CkptConfig = ctrlsys.CkptConfig

// RestartAttempt records one incarnation of a job under the resilience
// layer (ControlJobResult.Attempts).
type RestartAttempt = ctrlsys.Attempt

// CheckpointImage is the versioned checkpoint wire image (process memory
// regions, register state, UPC counters, open CIOD descriptors).
type CheckpointImage = ckpt.Image

// ErrRestartBudgetExhausted is wrapped into DrainResult.Errs when a job
// fails its initial run and every restart the budget allows; test with
// errors.Is.
var ErrRestartBudgetExhausted = ctrlsys.ErrRestartBudgetExhausted

// UnmarshalCheckpoint decodes a checkpoint image from its wire bytes,
// rejecting truncated, corrupt or non-canonical input.
func UnmarshalCheckpoint(b []byte) (*CheckpointImage, error) { return ckpt.Unmarshal(b) }

// WorkSignature digests the application work a run performed (syscalls,
// page faults, network traffic) while excluding counters a legitimate
// restart perturbs (cache misses, timer ticks, RAS reactions, retries).
// A job that completes after checkpoint/restart signature-matches its
// fault-free run.
func WorkSignature(s CounterSnapshot) uint64 { return ckpt.WorkSignature(s) }

// Crash-only service node: with ControlConfig.Journal enabled, every
// scheduler state transition is made durable in a write-ahead journal on
// the control store before it is applied, and a service node killed at
// any point — even mid-recovery — is rebuilt by replaying the journal
// and reconciling against the live machine (orphaned partitions killed,
// interrupted jobs resumed from their last durable checkpoint). Crashes
// themselves are injected deterministically (ControlConfig.Crashes),
// keyed to journal sequence numbers, so every crash-and-recover drain is
// replayable and must finish bit-identical to a crash-free drain.

// JournalConfig arms the write-ahead journal (ControlConfig.Journal).
type JournalConfig = ctrlsys.JournalConfig

// CrashPlan arms deterministic service-node crash injection
// (ControlConfig.Crashes).
type CrashPlan = ras.CrashPlan

// CrashClass is one injected service-node death mode.
type CrashClass = ras.CrashClass

// Crash classes.
const (
	CrashPreAppend      = ras.CrashPreAppend      // dies before the record is durable
	CrashPostAppend     = ras.CrashPostAppend     // record durable, dies before applying
	CrashMidBoot        = ras.CrashMidBoot        // dies while booting a partition
	CrashMidCkptCommit  = ras.CrashMidCkptCommit  // tears the checkpoint-commit record
	CrashDuringRecovery = ras.CrashDuringRecovery // dies inside its own recovery
)

// CrashStats accounts injected crashes and recoveries
// (DrainResult.Crash).
type CrashStats = ctrlsys.CrashStats

// JournalStats accounts the journal a drain wrote (DrainResult.Journal).
type JournalStats = ctrlsys.JournalStats

// RecoveryReport describes one journal replay + reconciliation pass.
type RecoveryReport = ctrlsys.RecoveryReport

// ControlStore is the service node's durable store (ServiceNode.Store);
// it survives the node and is what RecoverServiceNode replays from.
type ControlStore = fs.FS

// ErrServiceNodeCrash is wrapped into DrainResult.Errs for jobs lost to
// a service-node crash with journaling off; test with errors.Is.
var ErrServiceNodeCrash = ctrlsys.ErrServiceNodeCrash

// RecoverServiceNode rebuilds a service node from a dead node's control
// store by journal replay, reconciling against any still-live partitions
// (scanned read-only, then destroyed and freed). The recovered node
// finishes a re-drained queue bit-identically to the original.
func RecoverServiceNode(cfg ControlConfig, store *ControlStore, live []*ControlPartition) (*ServiceNode, *RecoveryReport, error) {
	return ctrlsys.Recover(cfg, store, live)
}
