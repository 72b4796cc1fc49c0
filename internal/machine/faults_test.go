package machine

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"bgcnk/internal/hw"
	"bgcnk/internal/ion"
	"bgcnk/internal/kernel"
	"bgcnk/internal/obs"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

var update = flag.Bool("update", false, "rewrite testdata/fault_matrix.txt")

// The fault battery: the RAS layer must be deterministic end to end. A
// seeded plan yields a bit-identical fault schedule, kernels react to it
// deterministically (CNK kills and recovers by reproducible reset, the
// FWK absorbs), and the CIOD retry protocol provably surfaces EIO after
// exhaustion.

// storeStress is a memory-heavy rank body: strided loads that miss L3
// and draw DDR fills (stores are write-through without allocate, so only
// load misses face ECC), giving faults plenty of opportunities.
func storeStress(m *Machine, pages int) App {
	return func(ctx kernel.Context, env *Env) {
		base := m.HeapBase(ctx)
		buf := make([]byte, 128)
		for i := 0; i < pages; i++ {
			ctx.Load(base+hw.VAddr((i*4096)%(4<<20)), buf)
		}
	}
}

// mixedBody exercises memory, the function-ship path and the network in
// one rank: strided loads that draw DDR fills, a file written through
// CIOD (CNK) or the local filesystem (FWK), then a neighbor exchange and
// an allreduce over the torus and collective links. A network errno ends
// the rank with that errno as its exit code, so lost peers show up in the
// exit vector instead of a hang.
func mixedBody(m *Machine) App {
	return func(ctx kernel.Context, env *Env) {
		base := m.HeapBase(ctx)
		buf := make([]byte, 128)
		for i := 0; i < 600; i++ {
			ctx.Load(base+hw.VAddr((i*4096)%(4<<20)), buf)
		}
		ctx.Store(base, append([]byte("/gpfs/faultmix"), 0))
		ctx.Store(base+4096, make([]byte, 512))
		// Errnos are intentionally ignored: under injected CIOD faults
		// open may legitimately fail (EIO); the property under test is
		// that whatever happens, it happens identically every run.
		fd, _ := ctx.Syscall(kernel.SysOpen, uint64(base), kernel.OCreat|kernel.OWronly, 0644)
		for i := 0; i < 6; i++ {
			ctx.Syscall(kernel.SysWrite, fd, uint64(base+4096), 512)
		}
		ctx.Syscall(kernel.SysClose, fd)
		if env.MPI == nil {
			return
		}
		payload := make([]byte, 600)
		if errno := env.MPI.Send(ctx, (env.Rank+1)%env.Size, 7100, payload); errno != kernel.OK {
			ctx.Syscall(kernel.SysExit, uint64(errno))
			return
		}
		if _, _, errno := env.MPI.Recv(ctx, 7100); errno != kernel.OK {
			ctx.Syscall(kernel.SysExit, uint64(errno))
			return
		}
		if _, errno := env.MPI.Allreduce(ctx, float64(env.Rank)); errno != kernel.OK {
			ctx.Syscall(kernel.SysExit, uint64(errno))
		}
	}
}

type seqOutcome struct {
	finalHash uint64
	finalNow  sim.Cycles
	rasHash   uint64

	phase1, phase2 upc.Snapshot
	dur1, dur2     sim.Cycles
	codes1, codes2 string
}

// killResetRerun runs the full recovery sequence on one machine: a
// store-heavy job is killed by an injected uncorrectable DDR error, the
// machine performs a coordinated reproducible reset with the fault
// schedule rewound, and the job is re-run from the same seed.
func killResetRerun(t *testing.T, seed uint64) seqOutcome {
	t.Helper()
	plan := &ras.Plan{Seed: seed, DDRUncorrectable: 2e-3, DDRCorrectable: 1e-3}
	m, err := New(Config{Nodes: 2, Kind: KindCNK, Reproducible: true, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	app := storeStress(m, 3000)

	if err := m.Run(app, kernel.JobParams{}, sim.FromSeconds(600)); err != nil {
		t.Fatal(err)
	}
	if m.RAS.Count(ras.JobKill) == 0 {
		t.Fatal("no JobKill RAS event; raise the uncorrectable rate or change the seed")
	}
	killCode := 128 + int(kernel.SIGBUS)
	codes1 := fmt.Sprint(m.ExitCodes())
	killed := false
	for _, c := range m.ExitCodes() {
		if c == killCode {
			killed = true
		}
	}
	if !killed {
		t.Fatalf("no rank exited with the kill code %d: %s", killCode, codes1)
	}
	phase1 := m.MergedCounters()
	dur1 := m.Eng.Now() - m.CNKs[0].BootedAt
	var ras1 [ras.NumClasses]uint64
	for cl := ras.Class(0); cl < ras.NumClasses; cl++ {
		ras1[cl] = m.RAS.Count(cl)
	}

	// Recovery: coordinated reproducible reset (paper Section III), fault
	// schedule rewound so the re-run faces the identical fault sequence.
	for i, k := range m.CNKs {
		i, k := i, k
		m.Eng.Go("lowcore", func(c *sim.Coro) {
			k.CoordinatedReset(c, m.Bar, i)
		})
	}
	m.Eng.RunUntilIdle()
	m.ResetFaults()
	for i, k := range m.CNKs {
		if err := k.RestartReproducible(); err != nil {
			t.Fatalf("chip %d restart: %v", i, err)
		}
	}
	m.ClearJobs()
	restartBoot := m.CNKs[0].BootedAt
	if err := m.Run(app, kernel.JobParams{}, sim.FromSeconds(600)); err != nil {
		t.Fatal(err)
	}

	out := seqOutcome{
		finalHash: m.Eng.Trace().Hash(),
		finalNow:  m.Eng.Now(),
		rasHash:   m.RAS.Hash(),
		phase1:    phase1,
		phase2:    m.MergedCounters(), // chip reset cleared phase-1 counts
		dur1:      dur1,
		dur2:      m.Eng.Now() - restartBoot,
		codes1:    codes1,
		codes2:    fmt.Sprint(m.ExitCodes()),
	}
	// The rewound schedule must replay the same per-class event counts in
	// phase 2 (deltas over the cumulative log).
	for cl := ras.Class(0); cl < ras.NumClasses; cl++ {
		if got := m.RAS.Count(cl) - ras1[cl]; got != ras1[cl] {
			t.Errorf("RAS %v: phase 2 logged %d events, phase 1 logged %d", cl, got, ras1[cl])
		}
	}
	return out
}

// TestRecoveryUnderFaultDeterminism is the headline property: a job
// interrupted by an uncorrectable fault, reset, and re-run from the same
// seed is a cycle-exact replay — identical UPC snapshots, identical
// duration, identical exit codes — and the whole sequence is itself
// bit-reproducible.
func TestRecoveryUnderFaultDeterminism(t *testing.T) {
	const seed = 0xb10c5eed
	a := killResetRerun(t, seed)
	if a.phase1 != a.phase2 {
		t.Errorf("re-run counters diverged from the interrupted run:\n%s\nvs\n%s",
			a.phase1.Text(), a.phase2.Text())
	}
	if a.dur1 != a.dur2 {
		t.Errorf("re-run duration %d != interrupted run duration %d", a.dur2, a.dur1)
	}
	if a.codes1 != a.codes2 {
		t.Errorf("re-run exit codes %s != interrupted run %s", a.codes2, a.codes1)
	}
	if n := a.phase2.Total(upc.RASUncorrectable); n == 0 {
		t.Error("RASUncorrectable counter is zero despite a kill")
	}

	b := killResetRerun(t, seed)
	if a.finalHash != b.finalHash {
		t.Errorf("sequence trace hash differs across identical runs: %x vs %x", a.finalHash, b.finalHash)
	}
	if a.finalNow != b.finalNow {
		t.Errorf("sequence simulated time differs: %d vs %d", a.finalNow, b.finalNow)
	}
	if a.rasHash != b.rasHash {
		t.Errorf("RAS log hash differs across identical runs: %x vs %x", a.rasHash, b.rasHash)
	}
}

type matrixOutcome struct {
	hash      uint64
	now       sim.Cycles
	counters  upc.Snapshot
	rasHash   uint64
	rasCounts [ras.NumClasses]uint64
	codes     string
}

// faultMatrixRun boots cfg, runs mixedBody once and reports the outcome.
func faultMatrixRun(t *testing.T, cfg Config) matrixOutcome {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	if err := m.Run(mixedBody(m), kernel.JobParams{}, sim.FromSeconds(600)); err != nil {
		t.Fatal(err)
	}
	out := matrixOutcome{
		hash:     m.Eng.Trace().Hash(),
		now:      m.Eng.Now(),
		counters: m.MergedCounters(),
		codes:    fmt.Sprint(m.ExitCodes()),
	}
	if m.RAS != nil {
		out.rasHash = m.RAS.Hash()
		for cl := ras.Class(0); cl < ras.NumClasses; cl++ {
			out.rasCounts[cl] = m.RAS.Count(cl)
		}
	}
	return out
}

// matrixCell is one row of the fault matrix: a machine configuration and
// the RAS classes that must fire under it.
type matrixCell struct {
	name  string
	cfg   Config
	fires []ras.Class
}

// faultMatrixCells lists, per kernel, one cell per injected fault class
// plus four rows without soft faults: plain, ION armed, torus hard
// faults and obs armed. The FWK keeps its filesystem local and never
// speaks CIOD, so ciod_drop, ciod_crash and ion_crash cannot fire on it
// and are CNK-only.
func faultMatrixCells() []matrixCell {
	const seed = 0xfa117
	var cells []matrixCell
	for _, kind := range []KernelKind{KindCNK, KindFWK} {
		add := func(name string, cfg Config, fires ...ras.Class) {
			cfg.Nodes, cfg.Kind, cfg.Seed, cfg.Reproducible = 2, kind, 11, kind == KindCNK
			cells = append(cells, matrixCell{fmt.Sprintf("%v/%s", kind, name), cfg, fires})
		}
		add("correctable_ecc", Config{Faults: &ras.Plan{Seed: seed, DDRCorrectable: 1e-2}}, ras.CorrectableECC)
		add("uncorrectable_ecc", Config{Faults: &ras.Plan{Seed: seed, DDRUncorrectable: 5e-3}}, ras.UncorrectableECC)
		add("tlb_parity", Config{Faults: &ras.Plan{Seed: seed, TLBParity: 1e-2}}, ras.TLBParity)
		add("link_crc", Config{Faults: &ras.Plan{Seed: seed, LinkCRC: 0.2}}, ras.LinkCRC)
		if kind == KindCNK {
			add("ciod_drop", Config{Faults: &ras.Plan{Seed: seed, CIODDrop: 0.3}}, ras.CIODDrop)
			add("ciod_crash", Config{Faults: &ras.Plan{Seed: seed, CIODCrashEvery: 10}}, ras.CIODCrash)
			// ion_crash reuses the daemon-crash machinery with the
			// aggregation subsystem armed: the counter cadence kills CIOD
			// *and* drops the buffer cache, and the whole sequence must
			// replay cycle-exactly.
			add("ion_crash", Config{
				Faults: &ras.Plan{Seed: seed, IONCrashEvery: 6, CIODRestartDelay: 50_000},
				ION:    &ion.Config{QueueDepth: 4},
			}, ras.IONCrash)
		}
		add("plain", Config{})
		add("ion", Config{ION: &ion.Config{QueueDepth: 4}})
		add("torus_hard", Config{Faults: &ras.Plan{Seed: seed, LinkFails: 1, NodeFails: 1}}, ras.LinkFail, ras.NodeFail)
		add("obs", Config{Obs: &obs.Config{SampleEvery: 50_000}})
	}
	return cells
}

// row renders an outcome as one line of the reference table: trace hash,
// end cycle, exit codes, RAS hash and an FNV-64a digest of the merged
// counter table.
func (o matrixOutcome) row(name string) string {
	h := fnv.New64a()
	h.Write([]byte(o.counters.Text()))
	return fmt.Sprintf("%s trace=%016x end=%d codes=%s ras=%016x counters=%016x",
		name, o.hash, o.now, strings.ReplaceAll(o.codes, " ", ","), o.rasHash, h.Sum64())
}

const faultMatrixRef = "testdata/fault_matrix.txt"

// TestFaultMatrix pins each kernel under each single-class fault plan,
// and under the unfaulted configurations, in two ways: every class the
// cell names must fire, two runs must be bit-identical, and the first
// run must match the committed reference row in testdata (regenerate
// with -update after an intentional model change). This is the CI
// fault-matrix pass.
func TestFaultMatrix(t *testing.T) {
	cells := faultMatrixCells()
	want := map[string]string{}
	if !*update {
		data, err := os.ReadFile(faultMatrixRef)
		if err != nil {
			t.Fatalf("%v (run `go test ./internal/machine -run TestFaultMatrix -update` to create)", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if name, _, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
				want[name] = line
			}
		}
	}
	rows := make([]string, len(cells))
	for i, cl := range cells {
		t.Run(cl.name, func(t *testing.T) {
			a := faultMatrixRun(t, cl.cfg)
			b := faultMatrixRun(t, cl.cfg)
			for _, c := range cl.fires {
				if a.rasCounts[c] == 0 {
					t.Errorf("no %v RAS event: the cell injects nothing", c)
				}
			}
			if a.hash != b.hash {
				t.Errorf("trace hash differs: %x vs %x", a.hash, b.hash)
			}
			if a.now != b.now {
				t.Errorf("simulated time differs: %d vs %d", a.now, b.now)
			}
			if a.counters != b.counters {
				t.Errorf("counters differ:\n%s\nvs\n%s", a.counters.Text(), b.counters.Text())
			}
			if a.rasHash != b.rasHash {
				t.Errorf("RAS hash differs: %x vs %x", a.rasHash, b.rasHash)
			}
			if a.codes != b.codes {
				t.Errorf("exit codes differ: %s vs %s", a.codes, b.codes)
			}
			rows[i] = a.row(cl.name)
			if !*update && rows[i] != want[cl.name] {
				t.Errorf("drifted from %s:\n got %s\nwant %s", faultMatrixRef, rows[i], want[cl.name])
			}
		})
	}
	if *update {
		for i, r := range rows {
			if r == "" {
				t.Fatalf("-update needs the whole matrix; %s did not run", cells[i].name)
			}
		}
		out := "# TestFaultMatrix reference: first run of each cell on mixedBody.\n" + strings.Join(rows, "\n") + "\n"
		if err := os.WriteFile(faultMatrixRef, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFaultsOffChangesNothing: building with a nil (or zero) plan must
// leave the machine byte-identical to one that never heard of faults —
// same trace hash, same counters, no RAS log.
func TestFaultsOffChangesNothing(t *testing.T) {
	run := func(plan *ras.Plan) matrixOutcome {
		m, err := New(Config{Nodes: 2, Kind: KindCNK, Seed: 11, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Shutdown()
		if err := m.Run(mixedBody(m), kernel.JobParams{}, sim.FromSeconds(600)); err != nil {
			t.Fatal(err)
		}
		if m.RAS != nil {
			t.Error("RAS log exists on a machine with no enabled plan")
		}
		return matrixOutcome{hash: m.Eng.Trace().Hash(), now: m.Eng.Now(), counters: m.MergedCounters()}
	}
	a := run(nil)
	b := run(&ras.Plan{Seed: 99}) // all-zero rates: disabled
	if a.hash != b.hash || a.now != b.now || a.counters != b.counters {
		t.Errorf("zero-rate plan perturbed the machine: hash %x vs %x, now %d vs %d",
			a.hash, b.hash, a.now, b.now)
	}
	for _, c := range []upc.Counter{upc.LinkCRC, upc.LinkRetransmit, upc.CIODTimeout,
		upc.CIODRetry, upc.RASCorrectable, upc.RASUncorrectable} {
		if n := a.counters.Total(c); n != 0 {
			t.Errorf("fault counter %v is %d on a fault-free run", c, n)
		}
	}
}

// TestCIODRetryExhaustionSurfacesEIO: with every CIOD reply lost, the
// client must retry with backoff (visible in the UPC retry counters) and
// then surface EIO to the application rather than hang.
func TestCIODRetryExhaustionSurfacesEIO(t *testing.T) {
	plan := &ras.Plan{Seed: 7, CIODDrop: 1.0}
	m, err := New(Config{Nodes: 1, Kind: KindCNK, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	var openErrno kernel.Errno
	err = m.Run(func(ctx kernel.Context, env *Env) {
		base := m.HeapBase(ctx)
		ctx.Store(base, append([]byte("/gpfs/lost"), 0))
		_, openErrno = ctx.Syscall(kernel.SysOpen, uint64(base), kernel.OCreat|kernel.OWronly, 0644)
	}, kernel.JobParams{}, sim.FromSeconds(600))
	if err != nil {
		t.Fatal(err)
	}
	if openErrno != kernel.EIO {
		t.Fatalf("open under total reply loss returned %v, want EIO", openErrno)
	}
	c := m.MergedCounters()
	if n := c.Total(upc.CIODRetry); n < 4 {
		t.Errorf("CIODRetry = %d, want >= 4 (MaxRetries resends for the open alone)", n)
	}
	if n := c.Total(upc.CIODTimeout); n < 5 {
		t.Errorf("CIODTimeout = %d, want >= 5 (every attempt of the open timed out)", n)
	}
	if m.RAS.Count(ras.CIODGiveUp) == 0 {
		t.Error("no CIODGiveUp RAS event despite retry exhaustion")
	}
	if m.RAS.Count(ras.CIODDrop) == 0 {
		t.Error("no CIODDrop RAS events despite total reply loss")
	}
}

// TestCIODCrashRecovery: a crash cadence loses ioproxy state, yet the
// compute-side reconnect (re-shipped proc start after ESRCH) lets the
// job finish its I/O; the crash and client retries land in RAS and UPC.
func TestCIODCrashRecovery(t *testing.T) {
	plan := &ras.Plan{Seed: 3, CIODCrashEvery: 5, CIODRestartDelay: 50_000}
	m, err := New(Config{Nodes: 1, Kind: KindCNK, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	var wrote uint64
	var lastErrno kernel.Errno
	err = m.Run(func(ctx kernel.Context, env *Env) {
		base := m.HeapBase(ctx)
		ctx.Store(base, append([]byte("/gpfs/crashy"), 0))
		ctx.Store(base+4096, make([]byte, 256))
		fd, errno := ctx.Syscall(kernel.SysOpen, uint64(base), kernel.OCreat|kernel.OWronly, 0644)
		if errno != kernel.OK {
			lastErrno = errno
			return
		}
		for i := 0; i < 12; i++ {
			n, errno := ctx.Syscall(kernel.SysWrite, fd, uint64(base+4096), 256)
			if errno == kernel.OK {
				wrote += n
			} else {
				lastErrno = errno
			}
		}
		ctx.Syscall(kernel.SysClose, fd)
	}, kernel.JobParams{}, sim.FromSeconds(600))
	if err != nil {
		t.Fatal(err)
	}
	if m.RAS.Count(ras.CIODCrash) == 0 {
		t.Fatal("crash cadence of 5 never crashed the daemon")
	}
	// Crashed calls surface EIO (flushed or timed out) or recover via
	// reconnect; either way most writes should land after reconnects.
	if wrote == 0 {
		t.Errorf("no write survived the crash/restart cycle (last errno %v)", lastErrno)
	}
	if n := m.MergedCounters().Total(upc.CIODTimeout); n == 0 {
		t.Error("no CIOD timeouts despite daemon crashes dropping traffic")
	}
}
