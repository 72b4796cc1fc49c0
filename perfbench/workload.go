package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"time"

	"bgcnk/internal/apps"
	"bgcnk/internal/ctrlsys"
	"bgcnk/internal/ion"
	"bgcnk/internal/kernel"
	"bgcnk/internal/machine"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// Workload sizes. The op costs quoted in README.md were measured with
// these values; changing one changes every pinned digest.
const (
	allreduceNodes = 4
	allreduceIters = 2000

	drainQueues    = 8  // distinct queues per run; op i drains queue i mod drainQueues
	drainJobs      = 8  // jobs per queue
	drainMidplanes = 13 // total midplanes every queue requests (the GenerateJobs mean)

	ioNodes    = 32
	ioChunk    = 1024 // bytes per write and per read
	ioWrites   = 32   // writes per rank per op
	ioStatEach = 12   // an fstat after every 12th write; see newIO
	ioQueue    = 16   // ION ingress credits, as in the ioscale experiment
	ioCacheBlk = 512  // ION buffer-cache blocks, as in the ioscale experiment

	// runLimit bounds one job in simulated time; every workload's job ends
	// far inside it.
	runLimit = sim.Cycles(60 * sim.ClockHz)
)

// outcome is everything one op produced. digest is the model output the
// reference pins; the rest feeds the per-layer report.
type outcome struct {
	digest  uint64
	failure string // non-empty when an app check failed

	cycles   uint64 // simulated cycles the op covers
	events   uint64 // sum of Engine.Run returns
	counters upc.Snapshot
	ion      ion.Stats
	jrecs    int // journal records appended (cnk-drain)
	jbytes   int // journal bytes appended (cnk-drain)

	// Host time of the benchmark's calls into each layer.
	run, reboot, drain interval
}

// workload is one set up system plus its op.
type workload interface {
	// variants is how many distinct inputs the ops cycle through.
	variants() int
	// built is the host CPU time set-up spent building the machine.
	built() time.Duration
	// op runs one operation on input variant v. A returned error, like a
	// non-empty outcome.failure, makes the op count as failed.
	op(v int) (outcome, error)
	close()
}

var workloadNames = []string{"fwk-allreduce", "cnk-drain", "cnk-io"}

// setup builds the named workload's system from seed.
func setup(name string, seed uint64) (workload, error) {
	switch name {
	case "fwk-allreduce":
		return newAllreduce(seed)
	case "cnk-drain":
		return newDrain(seed)
	case "cnk-io":
		return newIO(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// digest is an FNV-1a hash over a fixed little-endian encoding.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d digest) snapshot(s upc.Snapshot) {
	for sl := range s.Vals {
		for _, v := range s.Vals[sl] {
			d.u64(v)
		}
		for _, v := range s.Sys[sl] {
			d.u64(v)
		}
	}
}

func (d digest) ionStats(s ion.Stats) {
	d.u64(s.Admitted, s.Coalesced, s.CacheHits, s.CacheMisses, s.Writebacks, s.Flushes,
		uint64(s.MaxDepth), uint64(s.Depth))
}

func (d digest) sum() uint64 { return d.h.Sum64() }

// machineWorkload drives one job per op on a machine built in setup, then
// reboots it, so every op starts from the same boot state.
type machineWorkload struct {
	m      *machine.Machine
	newCPU time.Duration // host CPU time machine.New took
	bootAt sim.Cycles
	app    machine.App
	// results digests the app's per-rank results after a run and clears
	// them; it reports a failed app check as a non-empty string.
	results func() (uint64, string)
}

func (w *machineWorkload) variants() int { return 1 }

func (w *machineWorkload) built() time.Duration { return w.newCPU }

func (w *machineWorkload) close() { w.m.Shutdown() }

func (w *machineWorkload) op(int) (outcome, error) {
	m := w.m
	var out outcome

	// Machine.Run's loop, spelled out so the events it dispatches are
	// counted.
	out.run.start = now()
	if err := m.Launch(w.app, kernel.JobParams{}); err != nil {
		return out, fmt.Errorf("launch: %w", err)
	}
	deadline := m.Eng.Now() + runLimit
	for m.Eng.Pending() > 0 && m.Eng.Now() < deadline {
		out.events += uint64(m.Eng.Run(deadline))
		if m.JobsDone() {
			break
		}
	}
	out.run.end = now()
	if !m.JobsDone() {
		return out, fmt.Errorf("job did not finish within %v", runLimit)
	}

	out.cycles = uint64(m.Eng.Now() - w.bootAt)
	out.counters = m.MergedCounters()
	ions := m.IONStats() // Reboot zeroes them for the next op
	out.ion = sumIONStats(ions)
	appDigest, failure := w.results()
	d := newDigest()
	d.u64(out.cycles)
	for _, c := range m.ExitCodes() {
		d.u64(uint64(int64(c)))
		if c != 0 && failure == "" {
			failure = fmt.Sprintf("exit code %d", c)
		}
	}
	d.snapshot(out.counters)
	for _, s := range ions {
		d.ionStats(s)
	}
	d.u64(appDigest)
	out.digest = d.sum()
	out.failure = failure

	out.reboot.start = now()
	err := m.Reboot()
	out.reboot.end = now()
	if err != nil {
		return out, fmt.Errorf("reboot: %w", err)
	}
	w.bootAt = m.Eng.Now()
	return out, nil
}

// sumIONStats totals the machine's ION counters for the per-layer
// report; MaxDepth is the deepest any ION's queue got.
func sumIONStats(ss []ion.Stats) ion.Stats {
	var t ion.Stats
	for _, s := range ss {
		t.Admitted += s.Admitted
		t.Coalesced += s.Coalesced
		t.CacheHits += s.CacheHits
		t.CacheMisses += s.CacheMisses
		t.Writebacks += s.Writebacks
		t.Flushes += s.Flushes
		t.MaxDepth = max(t.MaxDepth, s.MaxDepth)
		t.Depth += s.Depth
	}
	return t
}

// newAllreduce builds the fwk-allreduce workload: a 4-node FWK machine
// with seed-derived daemon phases and 25 us NFS latency, as in the
// allreduce experiment. Each op is one mpiBench-style allreduce job plus a
// checked allreduce whose sum is known in closed form.
func newAllreduce(seed uint64) (workload, error) {
	t0 := now()
	m, err := machine.New(machine.Config{
		Nodes: allreduceNodes, Kind: machine.KindFWK, Seed: seed,
		FSLatency: sim.FromMicros(25),
	})
	if err != nil {
		return nil, err
	}
	type rank struct {
		samples uint64 // digest of the per-iteration cycle counts
		sum     float64
		errno   kernel.Errno
		ran     bool
	}
	ranks := make([]rank, allreduceNodes)
	w := &machineWorkload{m: m, newCPU: now().cpu - t0.cpu, bootAt: m.Eng.Now()}
	w.app = func(ctx kernel.Context, env *machine.Env) {
		if env.MPI == nil {
			return
		}
		r := &ranks[env.Rank]
		r.ran = true
		times, errno := apps.AllreduceBench(ctx, env.MPI, allreduceIters)
		if errno != kernel.OK {
			r.errno = errno
			return
		}
		d := newDigest()
		for _, t := range times {
			d.u64(uint64(t))
		}
		r.samples = d.sum()
		r.sum, r.errno = env.MPI.Allreduce(ctx, float64(env.Rank+1))
	}
	want := float64(allreduceNodes*(allreduceNodes+1)) / 2
	w.results = func() (uint64, string) {
		d := newDigest()
		failure := ""
		for i := range ranks {
			r := ranks[i]
			d.u64(r.samples, math.Float64bits(r.sum), uint64(r.errno))
			switch {
			case !r.ran && failure == "":
				failure = fmt.Sprintf("rank %d did not run", i)
			case r.errno != kernel.OK && failure == "":
				failure = fmt.Sprintf("rank %d: allreduce errno %v", i, r.errno)
			case r.sum != want && failure == "":
				failure = fmt.Sprintf("rank %d: allreduce sum %v, want %v", i, r.sum, want)
			}
			ranks[i] = rank{}
		}
		return d.sum(), failure
	}
	return w, nil
}

// newIO builds the cnk-io workload: 32 CNK nodes sharing one ION with the
// aggregation subsystem armed. Each op has every rank write a private
// file, fsync it, read it back and close it. The seed sets the file bytes.
//
// A shipped fstat flushes the file's dirty blocks from the ION cache. An
// fstat every 12th 1 KiB write finds three adjacent dirty 4 KiB blocks
// to merge into one write-back, and fsync finds the last two; an fstat
// every fourth write would flush each block alone as it fills.
func newIO(seed uint64) (workload, error) {
	t0 := now()
	m, err := machine.New(machine.Config{
		Nodes: ioNodes, Kind: machine.KindCNK, CNsPerION: ioNodes,
		ION: &ion.Config{QueueDepth: ioQueue, CacheBlocks: ioCacheBlk},
	})
	if err != nil {
		return nil, err
	}
	data := make([][]byte, ioNodes)
	for n := range data {
		rng := sim.NewRNG(seed).Fork(uint64(n))
		data[n] = make([]byte, ioChunk*ioWrites)
		for i := range data[n] {
			data[n][i] = byte(rng.Uint64())
		}
	}
	type rank struct {
		read    uint64 // digest of the bytes read back
		failure string
		ran     bool
	}
	ranks := make([]rank, ioNodes)
	w := &machineWorkload{m: m, newCPU: now().cpu - t0.cpu, bootAt: m.Eng.Now()}
	w.app = func(ctx kernel.Context, env *machine.Env) {
		r := &ranks[env.Node]
		r.ran = true
		fail := func(format string, args ...any) {
			r.failure = fmt.Sprintf("rank %d: ", env.Node) + fmt.Sprintf(format, args...)
			ctx.Syscall(kernel.SysExit, 1)
		}
		// One 1 KiB user buffer each way: the app stages every chunk in
		// it before the write and checks every chunk read back out of it.
		base := m.HeapBase(ctx)
		pathVA, statVA, writeVA, readVA := base, base+4096, base+8192, base+12288
		ctx.Store(pathVA, append([]byte(fmt.Sprintf("/gpfs/rank%03d", env.Node)), 0))
		fd, errno := ctx.Syscall(kernel.SysOpen, uint64(pathVA), kernel.OCreat|kernel.ORdwr, 0644)
		if errno != kernel.OK {
			fail("open: %v", errno)
			return
		}
		want := data[env.Node]
		for i := 0; i < ioWrites; i++ {
			ctx.Store(writeVA, want[i*ioChunk:(i+1)*ioChunk])
			n, errno := ctx.Syscall(kernel.SysWrite, fd, uint64(writeVA), ioChunk)
			if errno != kernel.OK || n != ioChunk {
				fail("write %d: n=%d errno=%v", i, n, errno)
				return
			}
			if i%ioStatEach == ioStatEach-1 {
				if _, errno := ctx.Syscall(kernel.SysFstat, fd, uint64(statVA)); errno != kernel.OK {
					fail("fstat: %v", errno)
					return
				}
			}
		}
		if _, errno := ctx.Syscall(kernel.SysFsync, fd); errno != kernel.OK {
			fail("fsync: %v", errno)
			return
		}
		if _, errno := ctx.Syscall(kernel.SysLseek, fd, 0, kernel.SeekSet); errno != kernel.OK {
			fail("lseek: %v", errno)
			return
		}
		d := newDigest()
		chunk := make([]byte, ioChunk)
		for i := 0; i < ioWrites; i++ {
			n, errno := ctx.Syscall(kernel.SysRead, fd, uint64(readVA), ioChunk)
			if errno != kernel.OK || n != ioChunk {
				fail("read %d: n=%d errno=%v", i, n, errno)
				return
			}
			ctx.Load(readVA, chunk)
			if string(chunk) != string(want[i*ioChunk:(i+1)*ioChunk]) {
				fail("chunk %d read back differs from the bytes written", i)
				return
			}
			d.h.Write(chunk)
		}
		if _, errno := ctx.Syscall(kernel.SysClose, fd); errno != kernel.OK {
			fail("close: %v", errno)
			return
		}
		r.read = d.sum()
	}
	w.results = func() (uint64, string) {
		d := newDigest()
		failure := ""
		for i := range ranks {
			r := ranks[i]
			d.u64(r.read)
			switch {
			case !r.ran && failure == "":
				failure = fmt.Sprintf("rank %d did not run", i)
			case r.failure != "" && failure == "":
				failure = r.failure
			}
			ranks[i] = rank{}
		}
		return d.sum(), failure
	}
	return w, nil
}

// drainWorkload drains one queue per op on a fresh CNK service node with
// checkpointing and the journal armed.
type drainWorkload struct {
	cfg     ctrlsys.Config
	queues  [][]ctrlsys.Job
	bootCPU time.Duration // host CPU time the set-up BootPartition took
}

// drainQueuesFor draws the run's queues from GenerateJobs streams forked
// from seed, keeping only queues whose jobs request drainMidplanes
// midplanes in total. Every op thus asks for the same partition area, and
// seeds differ in job mix, work and output sizes rather than in op size.
func drainQueuesFor(seed uint64, maxMidplanes int) [][]ctrlsys.Job {
	rng := sim.NewRNG(seed ^ 0xd7a1_9bec)
	var queues [][]ctrlsys.Job
	for len(queues) < drainQueues {
		jobs := ctrlsys.GenerateJobs(rng.Uint64(), drainJobs, maxMidplanes)
		total := 0
		for _, j := range jobs {
			total += j.Midplanes
		}
		if total == drainMidplanes {
			queues = append(queues, jobs)
		}
	}
	return queues
}

// newDrain builds the cnk-drain workload: it generates the queues and
// boot-checks the whole machine once through a service node, the way the
// control system brings a block up before accepting jobs.
func newDrain(seed uint64) (workload, error) {
	// 1 rack x 4 midplanes x 4 nodes, checkpointing and the WAL journal
	// armed, faults off, one worker.
	cfg := ctrlsys.Config{
		Topology: ctrlsys.Topology{Racks: 1, MidplanesPerRack: 4, NodesPerMidplane: 4},
		Kind:     machine.KindCNK,
		Seed:     seed,
		Workers:  1,
		Ckpt:     ctrlsys.CkptConfig{Enabled: true},
		Journal:  ctrlsys.JournalConfig{Enabled: true},
	}
	sn := ctrlsys.New(cfg)
	topo := sn.Topology()
	p, err := sn.Allocate(topo.Midplanes())
	if err != nil {
		return nil, err
	}
	t0 := now()
	if err := sn.BootPartition(p, seed); err != nil {
		return nil, err
	}
	bootCPU := now().cpu - t0.cpu
	sn.Release(p)
	return &drainWorkload{cfg: cfg, queues: drainQueuesFor(seed, topo.Midplanes()), bootCPU: bootCPU}, nil
}

func (w *drainWorkload) variants() int { return len(w.queues) }

func (w *drainWorkload) built() time.Duration { return w.bootCPU }

func (w *drainWorkload) close() {}

func (w *drainWorkload) op(v int) (outcome, error) {
	var out outcome
	sn := ctrlsys.New(w.cfg)
	out.drain.start = now()
	res, err := sn.Drain(w.queues[v])
	out.drain.end = now()
	if err != nil {
		return out, fmt.Errorf("drain: %w", err)
	}
	switch {
	case res.Failures != 0:
		out.failure = fmt.Sprintf("%d failed jobs", res.Failures)
	case len(res.Errs) != 0:
		out.failure = fmt.Sprintf("drain errors: %v", res.Errs)
	}
	out.cycles = uint64(res.Sched.Makespan)
	out.counters = res.Merged
	out.jrecs, out.jbytes = res.Journal.Records, res.Journal.Bytes
	d := newDigest()
	d.u64(res.Signature(), uint64(out.jrecs), uint64(out.jbytes))
	out.digest = d.sum()
	return out, nil
}
