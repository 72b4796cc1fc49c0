// Package machine assembles a whole Blue Gene/P-like system: compute
// chips on a 3-D torus with a global barrier network, I/O nodes running
// CIOD over collective trees, and a kernel (CNK or the Linux-like FWK) on
// every compute node. It launches coordinated jobs across the machine and
// wires each rank's MPI communicator.
package machine

import (
	"fmt"

	"bgcnk/internal/barrier"
	"bgcnk/internal/ciod"
	"bgcnk/internal/cnk"
	"bgcnk/internal/collective"
	"bgcnk/internal/dcmf"
	"bgcnk/internal/fs"
	"bgcnk/internal/fwk"
	"bgcnk/internal/hw"
	"bgcnk/internal/ion"
	"bgcnk/internal/kernel"
	"bgcnk/internal/obs"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/torus"
	"bgcnk/internal/upc"
)

// KernelKind selects the compute-node kernel.
type KernelKind int

// Kernel kinds.
const (
	KindCNK KernelKind = iota
	KindFWK
)

func (k KernelKind) String() string {
	if k == KindCNK {
		return "CNK"
	}
	return "FWK"
}

// Config describes the machine to build.
type Config struct {
	Nodes   int
	Kind    KernelKind
	MemSize uint64 // DDR per node; default 256MB

	// Dims, when nonzero, shapes the torus as a full multi-dimensional
	// torus instead of the default {Nodes,1,1} ring; Nodes is then derived
	// from the product of the dimensions. Ranks map to coordinates in
	// torus.EnumCoords order.
	Dims torus.Coord

	// CNK options.
	MaxThreadsPerCore int
	Reproducible      bool

	// FWK options.
	Seed      uint64
	Daemons   []fwk.DaemonSpec // nil = defaults
	FSLatency sim.Cycles

	// CNsPerION sets the I/O ratio (default: all CNs share one ION).
	CNsPerION int

	// ION, when non-nil, arms the I/O-node aggregation subsystem on every
	// I/O node: the shared collective-tree uplink with its mux header, the
	// bounded ingress queue with credit backpressure, request coalescing
	// in the daemon, and the write-back buffer cache. Nil builds unarmed
	// I/O nodes on the same serve path: calls are admitted at once, with
	// no coalescing, no cache, a private uplink per compute node and no
	// mux header.
	ION *ion.Config

	// Faults, when non-nil and enabled, arms the machine-wide seeded
	// fault injector: DDR ECC, TLB parity, link CRC, and CIOD failures
	// all draw from per-node streams derived from Faults.Seed, so a
	// given plan yields a bit-identical fault schedule on every run.
	Faults *ras.Plan

	// Obs, when non-nil, arms the span recorder: every layer (kernels,
	// torus, collective trees, CIOD, ION aggregation) emits
	// cycle-timestamped spans into Machine.Obs, and a nonzero SampleEvery
	// adds the periodic UPC time-series. Recording charges zero simulated
	// cycles: an armed machine's trace hash, exit codes, counters and RAS
	// log are bit-identical to an unarmed one's
	// (TestObsOffChangesNothing).
	Obs *obs.Config
}

// Machine is the assembled system.
type Machine struct {
	Eng    *sim.Engine
	Cfg    Config
	Chips  []*hw.Chip
	Torus  *torus.Network
	Bar    *barrier.Network
	Coords []torus.Coord
	Devs   []*dcmf.Device

	Trees   []*collective.Tree
	IONFS   []*fs.FS
	Servers []*ciod.Server

	// IONs holds one aggregation node per tree when Cfg.ION is armed
	// (empty otherwise).
	IONs []*ion.Node

	CNKs []*cnk.Kernel
	FWKs []*fwk.Kernel

	// Comb is the collective network's combine route, a rendezvous like
	// Bar with the tree's longer latency (CNK machines only).
	Comb *barrier.Network

	// RAS is the machine-wide reliability event log; nil (records
	// nothing, reads zero) unless Cfg.Faults is armed.
	RAS *ras.Log

	// Obs is the machine-wide span recorder; nil unless Cfg.Obs is armed.
	Obs *obs.Recorder

	inj  *ras.Injector
	jobs []launched
	ck   ckptState
}

// New builds and boots the machine.
func New(cfg Config) (*Machine, error) {
	if cfg.MemSize > hw.MaxMemSize {
		return nil, fmt.Errorf("machine: MemSize %d exceeds the cache model's limit of %d bytes", cfg.MemSize, uint64(hw.MaxMemSize))
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	dims := torus.Coord{cfg.Nodes, 1, 1}
	if cfg.Dims != (torus.Coord{}) {
		dims = cfg.Dims
	}
	coords := torus.EnumCoords(dims)
	cfg.Nodes = len(coords)
	if cfg.CNsPerION <= 0 {
		cfg.CNsPerION = cfg.Nodes
	}
	m := &Machine{Eng: sim.NewEngine(), Cfg: cfg}
	if cfg.Obs != nil {
		m.Obs = obs.New(*cfg.Obs)
		if m.Obs.SampleEvery() > 0 {
			// The sampler rides the engine's clock-advance hook: it only
			// reads counters, so the event schedule (and the run's trace
			// hash) is untouched.
			m.Eng.SetAdvanceHook(func(prev, now sim.Cycles) {
				m.Obs.TickSample(now, m.counterTotals)
			})
		}
	}
	if cfg.Faults.Enabled() {
		m.RAS = ras.NewLog()
		m.RAS.AttachTrace(m.Eng.Trace())
		m.inj = ras.NewInjector(m.Eng, m.RAS, *cfg.Faults)
	}
	m.Torus = torus.New(m.Eng, torus.DefaultConfig(dims))
	m.Torus.AttachObs(m.Obs)
	m.Bar = barrier.New(m.Eng, cfg.Nodes)
	if cfg.Kind == KindCNK {
		// The combining tree is driven from user space under CNK only.
		m.Comb = barrier.NewCombine(m.Eng, cfg.Nodes)
	}

	for n := 0; n < cfg.Nodes; n++ {
		chip := hw.NewChip(hw.ChipConfig{ID: n, MemSize: cfg.MemSize, Coord: [3]int(coords[n])})
		chip.AttachFaults(m.inj.Node(n))
		m.Chips = append(m.Chips, chip)
		if m.Comb != nil {
			m.Comb.AttachUPC(n, chip.UPC)
		}
		coord := coords[n]
		m.Coords = append(m.Coords, coord)
		ifc := m.Torus.Attach(chip, coord)
		n := n
		m.Devs = append(m.Devs, dcmf.NewDevice(ifc, n, func(rank int) torus.Coord {
			return m.Coords[rank]
		}))
	}

	if cfg.Faults.NetEnabled() {
		// Hard network faults: draw the link/node death schedule from the
		// plan's dedicated machine-wide stream (no per-node stream is
		// perturbed) and arm the torus's fault layer. A node death kills
		// the job partition-wide: the barrier and combining tree release
		// their waiters with errors, and the RAS log gets the JobKill the
		// control system's localization scan keys on.
		nodeAt := make(map[torus.Coord]int, len(coords))
		for i, c := range coords {
			nodeAt[c] = i
		}
		plan := torus.DrawFaultPlan(sim.NewRNG(cfg.Faults.NetSeed()), dims,
			cfg.Faults.LinkFails, cfg.Faults.NodeFails, cfg.Faults.NetWindow())
		m.Torus.ArmFaults(plan, !cfg.Faults.NetResilienceOff, func(c torus.Coord) {
			node := nodeAt[c]
			m.Bar.MarkDead(node)
			if m.Comb != nil {
				m.Comb.MarkDead(node)
			}
			m.Chips[node].Faults.Report(ras.JobKill, "torus",
				"node failure: job killed partition-wide")
		})
		// Boot-time partition wiring validation: the seeded death schedule
		// is part of the partition's configuration, so a topology it will
		// disconnect must fail fast here instead of stranding the job
		// mid-run.
		if err := m.Torus.ValidatePlanRoutable(plan); err != nil {
			return nil, fmt.Errorf("machine: %w", err)
		}
	}

	// One ION (filesystem + CIOD) per CNsPerION compute nodes; nodes holds
	// each tree's ion.Node, nil where unarmed.
	var nodes []*ion.Node
	for base := 0; base < cfg.Nodes; base += cfg.CNsPerION {
		var ids []int
		for n := base; n < base+cfg.CNsPerION && n < cfg.Nodes; n++ {
			ids = append(ids, n)
		}
		tree := collective.NewTree(m.Eng, collective.DefaultConfig(), ids)
		tree.AttachObs(m.Obs)
		for _, id := range ids {
			tree.CN(id).AttachUPC(m.Chips[id].UPC)
			tree.CN(id).AttachFaults(m.inj.Node(id))
		}
		ionFS := fs.New()
		ionFS.MustMkdirAll("/gpfs")
		ionFS.MustMkdirAll("/lib")
		m.Trees = append(m.Trees, tree)
		m.IONFS = append(m.IONFS, ionFS)
		srv := ciod.NewServer(m.Eng, tree.ION(), ionFS)
		srv.AttachObs(m.Obs, -1-len(m.Servers))
		// I/O nodes get their own fault streams, keyed below the
		// compute-node ID space.
		ionF := m.inj.Node(-1 - len(m.Servers))
		tree.ION().AttachFaults(ionF)
		srv.SetFaults(ionF, ionF.RestartDelay())
		var node *ion.Node
		if cfg.ION != nil {
			// Aggregation armed: this tree's CN→ION traffic serializes on
			// the one shared uplink, and the daemon serves through the
			// ingress credit gate and buffer cache.
			tree.ShareUplink()
			icfg := cfg.ION.WithDefaults()
			node = ion.NewNode(icfg, ion.NewCache(ionFS, icfg.CacheBlocks))
			m.IONs = append(m.IONs, node)
		}
		srv.AttachION(node)
		nodes = append(nodes, node)
		m.Servers = append(m.Servers, srv)
	}

	for n := 0; n < cfg.Nodes; n++ {
		chip := m.Chips[n]
		treeIdx := n / cfg.CNsPerION
		switch cfg.Kind {
		case KindCNK:
			io := ciod.NewClient(m.Trees[treeIdx].CN(n))
			io.AttachUPC(chip.UPC)
			io.AttachObs(m.Obs, n)
			io.AttachION(nodes[treeIdx])
			// A fault source arms timeouts and bounded retries: with a
			// fallible I/O path the blocking protocol would hang forever
			// on one lost reply. A perfect machine's nodes have none.
			io.AttachFaults(m.inj.Node(n))
			k := cnk.New(m.Eng, chip, cnk.Config{
				MaxThreadsPerCore: cfg.MaxThreadsPerCore,
				Reproducible:      cfg.Reproducible,
				IO:                io,
			})
			k.AttachObs(m.Obs)
			if err := k.Boot(); err != nil {
				return nil, fmt.Errorf("machine: node %d: %v", n, err)
			}
			m.CNKs = append(m.CNKs, k)
		case KindFWK:
			fcfg := fwk.Config{
				Seed:      cfg.Seed + uint64(n)*7919,
				Daemons:   cfg.Daemons,
				FS:        m.IONFS[treeIdx], // NFS-mounted shared fs
				FSLatency: cfg.FSLatency,
			}
			if cfg.ION != nil {
				// NFS data operations contend for the same shared uplink the
				// CNK machines ship every call over; metadata stays in the
				// client's attribute cache (the CNK-vs-FWK asymmetry).
				fcfg.Uplink = m.Trees[treeIdx].UplinkTransfer
			}
			k := fwk.New(m.Eng, chip, fcfg)
			k.AttachObs(m.Obs)
			if err := k.Boot(); err != nil {
				return nil, fmt.Errorf("machine: node %d: %v", n, err)
			}
			m.FWKs = append(m.FWKs, k)
		}
	}
	return m, nil
}

// KernelName reports which kernel runs on the compute nodes.
func (m *Machine) KernelName() string { return m.Cfg.Kind.String() }

// CounterSnapshot returns node's UPC counters at the current instant.
func (m *Machine) CounterSnapshot(node int) upc.Snapshot {
	return m.Chips[node].UPC.Snapshot()
}

// MergedCounters returns the machine-wide counter sum.
func (m *Machine) MergedCounters() upc.Snapshot {
	var sum upc.Snapshot
	for _, ch := range m.Chips {
		ch.UPC.AddTo(&sum)
	}
	return sum
}

// IONStats returns each I/O node's aggregation summary, indexed by tree;
// empty when the ION subsystem is not armed.
func (m *Machine) IONStats() []ion.Stats {
	out := make([]ion.Stats, 0, len(m.IONs))
	for _, n := range m.IONs {
		out = append(out, n.Stats())
	}
	return out
}

// Env is what a running application rank sees besides its kernel Context.
type Env struct {
	Rank int
	Size int
	Node int
	MPI  *dcmf.Comm
	Dev  *dcmf.Device
	M    *Machine
}

// App is a machine-level application: one instance per rank.
type App func(ctx kernel.Context, env *Env)

// launched is a job either kernel launched (a *cnk.Job or a *fwk.Job).
type launched interface {
	Done() bool
	ExitCode() int
}

// Launch starts app as one process per node (SMP mode: rank == node)
// without driving the simulation; callers that need to stop at an exact
// cycle (the bringup scan harness) drive the engine themselves.
func (m *Machine) Launch(app App, params kernel.JobParams) error {
	for n := 0; n < m.Cfg.Nodes; n++ {
		n := n
		main := func(ctx kernel.Context, local int) {
			env := &Env{
				Rank: n, Size: m.Cfg.Nodes, Node: n,
				Dev: m.Devs[n], M: m,
			}
			if local == 0 {
				env.MPI = dcmf.NewComm(m.Devs[n], m.Cfg.Nodes, m.Bar)
				env.MPI.Comb = m.Comb
			} else {
				env.Rank = -1 // extra local ranks are not MPI-visible
			}
			app(ctx, env)
		}
		spec := kernel.JobSpec{Params: params, Main: main}
		var job launched
		var err error
		if m.Cfg.Kind == KindCNK {
			job, err = m.CNKs[n].Launch(spec)
		} else {
			job, err = m.FWKs[n].Launch(spec)
		}
		if err != nil {
			return err
		}
		m.jobs = append(m.jobs, job)
	}
	return nil
}

// Run launches app and drives the simulation until every rank exits (or
// the cycle limit).
func (m *Machine) Run(app App, params kernel.JobParams, limit sim.Cycles) error {
	if err := m.Launch(app, params); err != nil {
		return err
	}
	if limit == 0 {
		limit = sim.FromSeconds(300)
	}
	deadline := m.Eng.Now() + limit
	for m.Eng.Pending() > 0 && m.Eng.Now() < deadline {
		m.Eng.Run(deadline)
		all := true
		for _, j := range m.jobs {
			if !j.Done() {
				all = false
			}
		}
		if all {
			break
		}
	}
	for i, j := range m.jobs {
		if !j.Done() {
			return fmt.Errorf("machine: node %d job did not finish within %v", i, limit)
		}
	}
	return nil
}

// ResetFaults rewinds every node's fault streams to the start of the
// seeded schedule, part of the reproducible-reset protocol: a recovery
// reboot must face the identical fault sequence the failed run did.
func (m *Machine) ResetFaults() { m.inj.Reset() }

// ClearJobs forgets finished (or killed) jobs AND the per-job state they
// left in the kernels and CIOD — process tables, PID/TID counters, futex
// queues, run queues, ioproxies with their I/O nodes' credits and cache,
// undelivered tree messages — so a reused machine's next job is
// numbered, placed and served exactly like a fresh machine's first.
// (Before this reset, a second job saw job 1's PID counters and stale
// proxies, so back-to-back runs were not comparable.)
func (m *Machine) ClearJobs() {
	m.jobs = nil
	m.clearCkptJobState()
	for _, k := range m.CNKs {
		k.ResetJobState()
	}
	for _, k := range m.FWKs {
		k.ResetJobState()
	}
	for _, s := range m.Servers {
		s.DropProxies()
	}
	for i, tree := range m.Trees {
		tree.ION().Drain()
		base := i * m.Cfg.CNsPerION
		for n := base; n < base+m.Cfg.CNsPerION && n < m.Cfg.Nodes; n++ {
			tree.CN(n).Drain()
		}
	}
}

// Reboot tears the partition down and brings it back up, as the control
// system does between queued jobs: trailing events drain, every chip is
// reset (losing TLBs, DACs, caches, counters and DDR contents), the DDR
// refresh phase is restamped to the reboot instant, fault streams rewind
// to the top of their seeded schedule, each I/O node gets a fresh
// filesystem and a new CIOD incarnation, and the kernels re-run their boot
// sequences. Because every kernel anchors its dynamics to its boot instant
// and every RNG restarts from its seed, the rebooted machine's next job is
// a pure time-shift of a fresh machine's first (see TestRebootedMachine...
// in reuse_test.go for the byte-identity proof).
func (m *Machine) Reboot() error {
	m.Eng.RunUntilIdle()
	m.ClearJobs()
	m.disarmCheckpoints() // a rebooted partition forgets its schedule too
	m.ResetFaults()
	// A rebooted partition starts a fresh trace (the recorder itself is
	// configuration and survives, like the fault plan). ClearJobs keeps
	// the spans: a reused machine's trace spans several jobs.
	m.Obs.Reset()
	now := m.Eng.Now()
	for i := range m.Servers {
		ionFS := fs.New()
		ionFS.MustMkdirAll("/gpfs")
		ionFS.MustMkdirAll("/lib")
		m.IONFS[i] = ionFS
		m.Servers[i].Reset(ionFS)
	}
	for _, ch := range m.Chips {
		ch.Reset()
		ch.Cache.ResetRefreshPhase(now)
	}
	for n, k := range m.CNKs {
		if err := k.Reboot(); err != nil {
			return fmt.Errorf("machine: reboot node %d: %v", n, err)
		}
	}
	for n, k := range m.FWKs {
		if err := k.Reboot(m.IONFS[n/m.Cfg.CNsPerION]); err != nil {
			return fmt.Errorf("machine: reboot node %d: %v", n, err)
		}
	}
	return nil
}

// ExitCodes returns the exit code of each launched job's first process,
// in launch order; unfinished jobs report -1.
func (m *Machine) ExitCodes() []int {
	out := make([]int, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.ExitCode())
	}
	return out
}

// JobsDone reports whether every launched job has exited.
func (m *Machine) JobsDone() bool {
	for _, j := range m.jobs {
		if !j.Done() {
			return false
		}
	}
	return true
}

// Shutdown tears down the simulation's coroutines.
func (m *Machine) Shutdown() { m.Eng.Shutdown() }

// HeapBase returns a usable scratch virtual address for rank's process
// (above the guard page and libc scratch area).
func (m *Machine) HeapBase(ctx kernel.Context) hw.VAddr {
	switch m.Cfg.Kind {
	case KindCNK:
		p := m.CNKs[m.nodeOf(ctx)].Proc(ctx.PID())
		return p.Layout.HeapBase + hw.VAddr(64<<10)
	default:
		p := m.FWKs[m.nodeOf(ctx)].Proc(ctx.PID())
		return p.HeapBase + hw.VAddr(64<<10)
	}
}

func (m *Machine) nodeOf(ctx kernel.Context) int {
	// Context threads know their core; cores know their chip.
	type hasCore interface{ HWCore() *hw.Core }
	return ctx.(hasCore).HWCore().Chip.ID
}
