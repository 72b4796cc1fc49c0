package ctrlsys

import (
	"errors"
	"fmt"

	"bgcnk/internal/apps"
	"bgcnk/internal/ckpt"
	"bgcnk/internal/fs"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/machine"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
)

// ErrRestartBudgetExhausted is surfaced (wrapped, with the job named) in
// DrainResult.Errs when a job fails on its initial run and on every
// restart the service node's budget allows. It is the typed face of "the
// machine could not carry this job to completion" — distinguishable with
// errors.Is from ordinary nonzero exits.
var ErrRestartBudgetExhausted = errors.New("ctrlsys: restart budget exhausted")

// CkptConfig arms checkpoint/restart for drained jobs. The paper's
// resilience story (Section V-B) in control-system terms: jobs checkpoint
// periodically through CIOD to the ION filesystem, and a job killed by an
// uncorrectable RAS event is restarted from its last checkpoint — on a
// freshly booted partition, possibly on a different first-fit block —
// with bounded attempts and exponential backoff at the service node.
type CkptConfig struct {
	Enabled bool
	// Interval checkpoints every N exchange rounds (default 1).
	Interval int
	// MaxRestarts bounds restart attempts after the initial run
	// (default 3). Exhausting it yields ErrRestartBudgetExhausted.
	MaxRestarts int
	// Backoff is the service node's delay before the first restart,
	// doubling per subsequent attempt (default 2,000,000 cycles).
	Backoff sim.Cycles
	// BlacklistAfter drains a midplane after it accumulates this many
	// job-killing uncorrectable events (default 1); the resilient
	// schedule re-allocates around drained midplanes.
	BlacklistAfter int
}

func (c CkptConfig) normalized() CkptConfig {
	if c.Interval <= 0 {
		c.Interval = 1
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = 2_000_000
	}
	if c.BlacklistAfter <= 0 {
		c.BlacklistAfter = 1
	}
	return c
}

// resilientRunLimit bounds one attempt's simulation. A fault-killed rank
// leaves the survivors parked in its allreduce forever; on an FWK the
// timer ticks and daemons would otherwise keep the engine busy until the
// default 300-second deadline. Healthy jobs finish orders of magnitude
// below this bound.
const resilientRunLimit = sim.Cycles(4_000_000_000)

// ckptWriteRetryBackoff is the application-level pause before re-driving
// a checkpoint write whose CIOD retries already surfaced EIO.
const ckptWriteRetryBackoff = sim.Cycles(250_000)

// ckptStageOff places the checkpoint staging buffer well above the
// addresses jobApp touches.
const (
	ckptStageOff = hw.VAddr(1 << 20)
	ckptChunk    = 4096
)

// Each exchange round of a checkpointed job streams loads through a
// cold window before dirtying it: L3-miss fills are where uncorrectable
// DDR errors strike (stores are write-through, no allocate), so this is
// what gives an armed fault plan the chance to kill the job — and the
// checkpoint a reason to exist. 32 fills per rank per round at stride
// ddrLoadStride covers the round's page exactly once.
const (
	ddrLoadsPerRound = 32
	ddrLoadStride    = 128
)

// Attempt records one run of a job under the resilience layer.
type Attempt struct {
	Boot sim.Cycles
	Run  sim.Cycles
	// ResumeEpoch is the checkpoint epoch this attempt resumed from
	// (-1 = cold start).
	ResumeEpoch int
	// FaultMidplane is the partition-relative midplane of the fault that
	// killed this attempt (-1 = none / completed / non-localized).
	FaultMidplane int
	// Backoff is the service-node delay charged after this failed
	// attempt before the next one (0 on the final or completed attempt).
	Backoff   sim.Cycles
	Completed bool
}

// runJobResilientFrom runs the job with checkpointing armed, restarting
// from the last checkpoint (on a freshly booted partition with the
// identical job seed) after a fault kill, until it completes or the
// restart budget is exhausted. Every quantity is a pure function of
// (config, job), so results stay bit-identical across reruns and worker
// counts.
//
// The loop is resumable: rp, when non-nil, is a journaled resume point
// (partial accounting, RAS-hash fold, next attempt index, freshest
// checkpoint blob) and the loop continues exactly where the dead service
// node left it. Because each attempt is a pure function of (job seed,
// attempt index, resume image), a continued run is bit-identical to an
// uninterrupted one by construction. commit is invoked after every
// failed attempt with the marshalled resume point — the body the drain
// later appends as a checkpoint-commit record.
func (s *ServiceNode) runJobResilientFrom(job Job, rp *resumePoint, commit func([]byte)) *JobResult {
	cfg := s.cfg.Ckpt.normalized()
	nodes := job.Midplanes * s.topo.NodesPerMidplane
	res := &JobResult{Job: job, Nodes: nodes}
	var resume *ckpt.Image
	var resumeBlob []byte
	rasHash := uint64(14695981039346656037)
	first := 0
	if rp != nil {
		r := rp.res
		res = &r
		rasHash = rp.rasHash
		first = rp.next
		if len(rp.image) > 0 {
			if img, err := ckpt.Unmarshal(rp.image); err == nil {
				resume = img
				resumeBlob = rp.image
			}
		}
	}

	for attempt := first; attempt <= cfg.MaxRestarts; attempt++ {
		p := &Partition{
			ID:        job.ID,
			Base:      -1,
			Midplanes: job.Midplanes,
			Nodes:     nodes,
			Block:     fmt.Sprintf("<%s#%d>", job.Name, attempt),
			Kind:      s.cfg.Kind,
		}
		if err := s.BootPartition(p, s.jobSeed(job)); err != nil {
			res.Err = err.Error()
			return res
		}
		m := p.M
		res.Boot = p.Boot
		m.ArmCheckpoints(job.ID, cfg.Interval)
		if resume != nil {
			// Stage the harvested image onto the new partition's ION
			// filesystem — the service node's copy of what the previous
			// incarnation wrote; rank 0 re-reads it through the I/O path.
			for _, fsys := range m.IONFS {
				fsys.MustMkdirAll(machine.CkptDir)
				fsys.WriteFile(machine.CkptPath(job.ID), resumeBlob, 0644, fs.Root)
			}
		}
		mark := m.RAS.Mark()
		boot := bootInstant(m)
		runErr := m.Run(jobApp(m, job, resume, resumeBlob, cfg.Interval), kernel.JobParams{}, resilientRunLimit)
		run := m.Eng.Now() - boot
		codes := m.ExitCodes()
		ok := runErr == nil
		for _, c := range codes {
			if c != 0 {
				ok = false
			}
		}
		a := Attempt{Boot: p.Boot.Total, Run: run, ResumeEpoch: -1, FaultMidplane: -1, Completed: ok}
		if resume != nil {
			a.ResumeEpoch = int(resume.Epoch)
		}
		res.RASEvents += m.RAS.CountSince(mark)
		rasHash = m.RAS.FoldSince(rasHash, mark, boot)
		for _, ev := range m.RAS.Events()[mark:] {
			// Hard network faults localize like job kills: a dead link or
			// interface strikes the midplane owning the node, feeding the
			// same blacklist/reschedule path (a failed partition-interior
			// wire takes the midplane out of service).
			killing := ev.Class == ras.JobKill ||
				ev.Class == ras.LinkFail || ev.Class == ras.NodeFail
			if killing && ev.Node >= 0 {
				a.FaultMidplane = ev.Node / s.topo.NodesPerMidplane
				break
			}
		}
		if ok {
			res.Attempts = append(res.Attempts, a)
			res.Run = run
			res.Teardown = teardownBase + teardownPerMidplane*sim.Cycles(job.Midplanes)
			res.ExitCodes = codes
			res.Counters = m.MergedCounters()
			res.RASHash = rasHash
			res.Err = "" // earlier failed attempts are history, not the outcome
			p.Destroy()
			return res
		}

		// Failed attempt: harvest the freshest durable checkpoint before
		// the partition is torn down, account the wasted occupancy, and
		// back off before the next incarnation.
		if blob, errno := m.IONFS[0].ReadFile(machine.CkptPath(job.ID), fs.Root); errno == kernel.OK {
			if img, err := ckpt.Unmarshal(blob); err == nil {
				if resume == nil || img.Epoch >= resume.Epoch {
					resume = img
					resumeBlob = blob
				}
			}
		}
		teardown := teardownBase + teardownPerMidplane*sim.Cycles(job.Midplanes)
		res.Wasted += p.Boot.Total + run + teardown
		if attempt < cfg.MaxRestarts {
			// Occupancy of a non-final failed attempt is pure overhead on
			// top of the final attempt's Boot/Run/Teardown; the final
			// attempt's occupancy is already carried by those fields.
			res.RestartOverhead += p.Boot.Total + run + teardown
			a.Backoff = cfg.Backoff << uint(attempt)
			res.RestartOverhead += a.Backoff
			res.Restarts++
		}
		res.Attempts = append(res.Attempts, a)
		res.ExitCodes = codes
		res.Counters = m.MergedCounters()
		res.RASHash = rasHash
		res.Run = run
		res.Teardown = teardown
		if runErr != nil {
			res.Err = runErr.Error()
		} else {
			res.Err = fmt.Sprintf("job exited nonzero: %v", codes)
		}
		// Snapshot the loop state NOW (marshalling copies everything): the
		// journal must hold exactly this point, not whatever res mutates
		// into later.
		commit(marshalResume(&resumePoint{
			res: *res, rasHash: rasHash, next: attempt + 1, image: resumeBlob,
		}))
		p.Destroy()
	}
	res.BudgetExhausted = true
	res.Err = fmt.Sprintf("%v after %d attempts: %s",
		ErrRestartBudgetExhausted, len(res.Attempts), res.Err)
	return res
}

// jobApp is the workload a queued job runs: compute/memory rounds coupled
// by allreduces, with rank 0 writing its output through the I/O path.
// With interval > 0 it checkpoints every interval rounds; resume, when
// non-nil, restarts it from that image, whose encoding is resumeBlob
// (Unmarshal accepts only canonical images, so the blob is what Marshal
// would write). The checkpoint protocol's
// determinism contract: every rank captures its own node immediately
// after the round's allreduce (an exact epoch boundary), a second
// allreduce barriers the captures, and only then does rank 0 seal and
// write the image. On resume the counter block is rolled back to the
// capture point and the post-capture epilogue is replayed verbatim, so a
// restarted run's counter trajectory rejoins the fault-free run's
// exactly. runJob passes (nil, nil, 0): no checkpoints, and no DDR load
// sweep.
func jobApp(m *machine.Machine, job Job, resume *ckpt.Image, resumeBlob []byte, interval int) machine.App {
	return func(ctx kernel.Context, env *machine.Env) {
		base := m.HeapBase(ctx)
		start := 0
		barrier := func() bool {
			if env.MPI == nil || env.Size <= 1 {
				return true
			}
			if _, errno := apps.AllreduceBench(ctx, env.MPI, 1); errno != kernel.OK {
				ctx.Syscall(kernel.SysExit, uint64(errno))
				return false
			}
			return true
		}
		writeImage := func(blob []byte) {
			if errno := writeImageApp(ctx, base, machine.CkptPath(job.ID), blob); errno != kernel.OK {
				// CIOD's own retries already failed; pause and re-drive
				// once. A persistent failure is survivable: the previous
				// durable image stays current.
				ctx.Compute(ckptWriteRetryBackoff)
				writeImageApp(ctx, base, machine.CkptPath(job.ID), blob)
			}
		}
		if resume != nil {
			// Restore: rank 0 re-reads the staged image through the I/O
			// path (charged), then every rank rolls its node back to the
			// capture point — which erases the read's counter traffic, as
			// it must: the fault-free run never performed it — charges
			// the restore, and replays the capture epilogue: a barrier,
			// then rank 0 writes the image back.
			if env.Rank == 0 {
				readImageApp(ctx, base, machine.CkptPath(job.ID), len(resumeBlob))
			}
			if err := m.RestoreNode(ctx, resume); err != nil {
				ctx.Syscall(kernel.SysExit, uint64(kernel.EIO))
				return
			}
			ctx.Compute(m.RestoreCost(ctx))
			if !barrier() {
				return
			}
			if env.Rank == 0 {
				writeImage(resumeBlob)
			}
			start = int(resume.Epoch)
		}
		var lbuf [ddrLoadStride]byte
		for e := start; e < job.Exchanges; e++ {
			ctx.Compute(job.Work)
			// Loads first: the round's window is cold (rounds use disjoint
			// windows, and a restored image repopulates frames without
			// warming caches), so each load is a DDR fill and a fault draw.
			// The dirtying Touch must come after — a store miss installs
			// the L3 line, which would shadow the fills.
			if interval > 0 {
				for i := 0; i < ddrLoadsPerRound; i++ {
					ctx.Load(base+hw.VAddr(e*8192+i*ddrLoadStride), lbuf[:])
				}
			}
			ctx.Touch(base+hw.VAddr(e*8192), 4096, true)
			if !barrier() {
				return
			}
			if interval > 0 && (e+1)%interval == 0 && e+1 < job.Exchanges {
				// Capture at the exact epoch boundary (every rank has just
				// cleared the same allreduce and done nothing since),
				// charge the kernel-dependent snapshot cost, barrier so
				// every capture is in, then rank 0 seals and writes.
				m.CaptureNode(ctx, uint32(e+1))
				ctx.Compute(m.CheckpointCost(ctx))
				if !barrier() {
					return
				}
				if env.Rank == 0 {
					if img := m.SealCheckpoint(); img != nil {
						writeImage(img.Marshal())
					}
				}
			}
		}
		if env.Rank == 0 && job.IOBytes > 0 {
			path := append([]byte("/gpfs/"+job.Name), 0)
			ctx.Store(base, path)
			fd, errno := ctx.Syscall(kernel.SysOpen, uint64(base), kernel.OCreat|kernel.OWronly, 0644)
			if errno != kernel.OK {
				ctx.Syscall(kernel.SysExit, uint64(errno))
				return
			}
			chunk := 1024
			buf := make([]byte, chunk)
			ctx.Store(base+4096, buf)
			for off := 0; off < job.IOBytes; off += chunk {
				n := chunk
				if job.IOBytes-off < n {
					n = job.IOBytes - off
				}
				ctx.Syscall(kernel.SysWrite, fd, uint64(base+4096), uint64(n))
			}
			ctx.Syscall(kernel.SysClose, fd)
		}
	}
}

// writeImageApp writes blob to path through the kernel's I/O path:
// staged chunks into a temp file, then an atomic rename over the current
// image, so a crash mid-write can never destroy the previous checkpoint.
func writeImageApp(ctx kernel.Context, base hw.VAddr, path string, blob []byte) kernel.Errno {
	stage := base + ckptStageOff
	tmp := append([]byte(path+".tmp"), 0)
	ctx.Store(stage, tmp)
	fd, errno := ctx.Syscall(kernel.SysOpen, uint64(stage),
		kernel.OCreat|kernel.OWronly|kernel.OTrunc, 0644)
	if errno != kernel.OK {
		return errno
	}
	for off := 0; off < len(blob); off += ckptChunk {
		end := off + ckptChunk
		if end > len(blob) {
			end = len(blob)
		}
		ctx.Store(stage+4096, blob[off:end])
		if _, errno = ctx.Syscall(kernel.SysWrite, fd, uint64(stage+4096), uint64(end-off)); errno != kernel.OK {
			ctx.Syscall(kernel.SysClose, fd)
			return errno
		}
	}
	if _, errno = ctx.Syscall(kernel.SysClose, fd); errno != kernel.OK {
		return errno
	}
	final := append([]byte(path), 0)
	ctx.Store(stage, tmp)
	ctx.Store(stage+2048, final)
	_, errno = ctx.Syscall(kernel.SysRename, uint64(stage), uint64(stage+2048))
	return errno
}

// readImageApp drives a charged read of the image through the I/O path.
// The bytes themselves are already in the service node's hands; what
// matters is that the restore's I/O traffic is simulated.
func readImageApp(ctx kernel.Context, base hw.VAddr, path string, size int) {
	stage := base + ckptStageOff
	pb := append([]byte(path), 0)
	ctx.Store(stage, pb)
	fd, errno := ctx.Syscall(kernel.SysOpen, uint64(stage), kernel.ORdonly, 0)
	if errno != kernel.OK {
		return
	}
	for off := 0; off < size; off += ckptChunk {
		n := ckptChunk
		if size-off < n {
			n = size - off
		}
		ctx.Syscall(kernel.SysRead, fd, uint64(stage+4096), uint64(n))
	}
	ctx.Syscall(kernel.SysClose, fd)
}
