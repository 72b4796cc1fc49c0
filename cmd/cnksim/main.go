// Command cnksim boots a simulated Blue Gene/P machine under CNK or the
// Linux-like FWK and runs a workload, printing timing and noise
// statistics.
//
//	go run ./cmd/cnksim -kernel cnk -workload fwq -samples 2000
//	go run ./cmd/cnksim -kernel fwk -workload fwq -samples 2000 -seed 7
//	go run ./cmd/cnksim -kernel cnk -nodes 8 -workload allreduce
//	go run ./cmd/cnksim -kernel cnk -workload linpack -faults 42 -ras
//	go run ./cmd/cnksim -kernel cnk -nodes 8 -ions 8 -workload allreduce
//
// With -jobs the simulator switches to control-system mode: a service
// node over -partitions midplanes (of -nodes compute nodes each) drains
// a seeded queue of job submissions on -workers parallel workers:
//
//	go run ./cmd/cnksim -kernel cnk -partitions 4 -nodes 2 -jobs 50 -workers 4
//
// A flag the chosen mode does not read is an error (exit 2), not a
// silent no-op.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"bgcnk"
	"bgcnk/internal/apps"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/machine"
	"bgcnk/internal/noise"
	"bgcnk/internal/sim"
)

func main() {
	kernelName := flag.String("kernel", "cnk", "cnk or fwk")
	nodes := flag.Int("nodes", 1, "compute nodes")
	workload := flag.String("workload", "fwq", strings.Join(workloads, " | "))
	samples := flag.Int("samples", 2000, "FWQ samples / allreduce iterations")
	seed := flag.Uint64("seed", 1, "FWK daemon-phase seed")
	counters := flag.String("counters", "", "print UPC counters after the run: text or json")
	faults := flag.Uint64("faults", 0, "arm the seeded fault injector with this fault seed (0 = perfect machine)")
	linkFails := flag.Int("linkfails", 0, "hard network faults: directed torus links to kill at seeded cycles")
	nodeFails := flag.Int("nodefails", 0, "hard network faults: torus node interfaces to kill at seeded cycles")
	noResilience := flag.Bool("noresilience", false, "disable fault-region routing and end-to-end retransmit (degrade baseline)")
	rasDump := flag.Bool("ras", false, "print the RAS event log after the run")
	ions := flag.Int("ions", 0, "CN:ION ratio — compute nodes per I/O node; arms the I/O aggregation subsystem (0 = unarmed I/O nodes)")
	partitions := flag.Int("partitions", 4, "control-system mode: midplanes in the machine")
	jobs := flag.Int("jobs", 0, "control-system mode: drain this many queued jobs (0 = run -workload instead)")
	workers := flag.Int("workers", 1, "control-system mode: parallel partition workers")
	tracePath := flag.String("trace", "", "write the run's span trace to this file as Chrome trace-event JSON (load in ui.perfetto.dev)")
	traceSample := flag.Int("tracesample", 0, "with -trace, without -jobs: also sample the UPC counters every N cycles (delta-encoded time-series)")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFlags(set, *kernelName, *workload, *counters, *jobs > 0); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	kind := bluegene.CNK
	if *kernelName == "fwk" {
		kind = bluegene.FWK
	}

	if *jobs > 0 {
		runControl(kind, *partitions, *nodes, *jobs, *workers, *seed, *faults, *ions, *tracePath)
		return
	}
	mcfg := bluegene.MachineConfig{Nodes: *nodes, Kernel: kind, Seed: *seed}
	if *tracePath != "" {
		mcfg.Obs = &bluegene.ObsConfig{SampleEvery: sim.Cycles(*traceSample)}
	}
	if *faults != 0 {
		mcfg.Faults = bluegene.DefaultFaultPlan(*faults)
	}
	if *linkFails > 0 || *nodeFails > 0 {
		if mcfg.Faults == nil {
			// Hard network faults only: a plan with zero soft-error rates,
			// seeded so the death schedule is reproducible.
			mcfg.Faults = &bluegene.FaultPlan{Seed: *seed}
		}
		mcfg.Faults.LinkFails = *linkFails
		mcfg.Faults.NodeFails = *nodeFails
		mcfg.Faults.NetResilienceOff = *noResilience
	}
	if *ions > 0 {
		mcfg.CNsPerION = *ions
		mcfg.ION = &bluegene.IONConfig{}
	}
	m, err := bluegene.NewMachine(mcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer m.Shutdown()
	fmt.Printf("booted %d-node machine under %s\n", *nodes, m.KernelName())

	switch *workload {
	case "fwq":
		cfg := apps.DefaultFWQ()
		cfg.Samples = *samples
		var out []sim.Cycles
		err = m.Run(func(ctx kernel.Context, env *machine.Env) {
			if env.Rank == 0 {
				out = apps.FWQ(ctx, m.HeapBase(ctx)+hw.VAddr(1<<20), cfg)
			}
		}, kernel.JobParams{}, 0)
		report(err)
		st := noise.Analyze(out)
		fmt.Printf("FWQ core 0: %v\n", st)
		fmt.Printf("  max variation %.4f%% (paper: CNK <0.006%%, Linux >5%% on cores 0/2/3)\n", st.MaxVariationPct)
	case "allreduce":
		var out []sim.Cycles
		err = m.Run(func(ctx kernel.Context, env *machine.Env) {
			s, _ := apps.AllreduceBench(ctx, env.MPI, *samples)
			if env.Rank == 0 {
				out = s
			}
		}, kernel.JobParams{}, 0)
		report(err)
		st := noise.Analyze(out[len(out)/4:])
		fmt.Printf("allreduce (%d nodes): mean=%.2fus sigma=%.4fus\n", *nodes, st.Mean/850, st.StdDev/850)
	case "linpack":
		var worst sim.Cycles
		err = m.Run(func(ctx kernel.Context, env *machine.Env) {
			d, _ := apps.Linpack(ctx, env.MPI, m.HeapBase(ctx), apps.DefaultLinpack())
			if d > worst {
				worst = d
			}
		}, kernel.JobParams{}, 0)
		report(err)
		fmt.Printf("linpack fixed-work solve: %.3f ms\n", worst.Micros()/1000)
	case "stream":
		var bpc float64
		err = m.Run(func(ctx kernel.Context, env *machine.Env) {
			if env.Rank == 0 {
				bpc = apps.Stream(ctx, m.HeapBase(ctx), 4<<20, 4)
			}
		}, kernel.JobParams{}, 0)
		report(err)
		fmt.Printf("stream: %.2f bytes/cycle (%.0f MB/s at 850MHz)\n", bpc, bpc*850)
	}

	if *counters != "" {
		snap := m.MergedCounters()
		fmt.Printf("\nUPC counters (all %d nodes merged):\n", *nodes)
		if *counters == "json" {
			fmt.Println(snap.JSON())
		} else {
			fmt.Print(snap.Text())
		}
	}

	if *ions > 0 {
		fmt.Printf("\nI/O aggregation (%d CNs per ION):\n", *ions)
		for i, s := range m.IONStats() {
			fmt.Printf("  ION %d: admits %d (max queue %d), coalesced %d, cache %d hit / %d miss, %d writebacks, %d flushes\n",
				i, s.Admitted, s.MaxDepth, s.Coalesced, s.CacheHits, s.CacheMisses, s.Writebacks, s.Flushes)
		}
	}

	if *rasDump {
		if m.RAS == nil {
			fmt.Println("\nno RAS log: the injector is not armed (use -faults <seed>)")
		} else {
			fmt.Printf("\nRAS event log (%d events, hash %016x):\n", m.RAS.Total(), m.RAS.Hash())
			fmt.Print(m.RAS.Table())
		}
	}

	if *tracePath != "" {
		writeTrace(*tracePath, m.TraceJSON(), m.Obs.SpanCount(), m.Obs.SampleCount())
	}
}

// writeTrace saves a Chrome trace-event JSON export and reports its size.
func writeTrace(path string, data []byte, spans, samples int) {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\ntrace: %d spans, %d samples, %d bytes -> %s (load in ui.perfetto.dev)\n",
		spans, samples, len(data), path)
}

// workloads are the -workload names a single-machine run knows.
var workloads = []string{"fwq", "allreduce", "linpack", "stream"}

// machineOnly flags configure a single-machine run; controlOnly flags
// configure a -jobs drain. Each mode ignores the other's flags.
var (
	machineOnly = []string{"workload", "samples", "counters", "linkfails", "nodefails", "noresilience", "ras", "tracesample"}
	controlOnly = []string{"partitions", "workers"}
)

// checkFlags rejects a command line that would silently run something
// other than what it asks for: an unknown kernel, workload or counter
// format, a flag the chosen mode never reads, or a flag whose companion
// is absent. set holds the names of the flags given on the command line.
func checkFlags(set map[string]bool, kernelName, workload, counters string, control bool) error {
	if kernelName != "cnk" && kernelName != "fwk" {
		return fmt.Errorf("-kernel must be cnk or fwk, got %q", kernelName)
	}
	if !control && !slices.Contains(workloads, workload) {
		return fmt.Errorf("-workload must be one of %s, got %q", strings.Join(workloads, ", "), workload)
	}
	if counters != "" && counters != "text" && counters != "json" {
		return fmt.Errorf("-counters must be text or json, got %q", counters)
	}
	ignored, mode := controlOnly, "only with -jobs"
	if control {
		ignored, mode = machineOnly, "only without -jobs"
	}
	for _, name := range ignored {
		if set[name] {
			return fmt.Errorf("-%s applies %s", name, mode)
		}
	}
	if set["tracesample"] && !set["trace"] {
		return fmt.Errorf("-tracesample applies only with -trace")
	}
	if set["noresilience"] && !set["linkfails"] && !set["nodefails"] {
		return fmt.Errorf("-noresilience applies only with -linkfails or -nodefails")
	}
	return nil
}

func report(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runControl drains a seeded job queue through the control system: a
// service node over `partitions` midplanes of `nodesPerMidplane` compute
// nodes, `workers` partition simulations in flight at once.
func runControl(kind bluegene.KernelKind, partitions, nodesPerMidplane, jobs, workers int, seed, faults uint64, ions int, tracePath string) {
	cfg := bluegene.ControlConfig{
		Topology: bluegene.Topology{Racks: 1, MidplanesPerRack: partitions, NodesPerMidplane: nodesPerMidplane},
		Kind:     kind,
		Seed:     seed,
		Workers:  workers,
	}
	if tracePath != "" {
		cfg.Obs = &bluegene.ObsConfig{}
	}
	if faults != 0 {
		cfg.Faults = bluegene.DefaultFaultPlan(faults)
	}
	if ions > 0 {
		cfg.CNsPerION = ions
		cfg.ION = &bluegene.IONConfig{}
	}
	s := bluegene.NewServiceNode(cfg)
	queue := bluegene.GenerateControlJobs(seed, jobs, partitions)
	d, err := s.Drain(queue)
	report(err)

	boot := d.Results[0].Boot
	fmt.Printf("control system: %d midplanes x %d nodes, %d workers, seed %d\n",
		partitions, nodesPerMidplane, workers, seed)
	fmt.Printf("partition boot (%d nodes): image %.3f ms + per-node %.3f ms + init %.3f ms = %.3f ms\n",
		boot.Nodes, boot.ImagePhase.Seconds()*1e3, boot.PerNodePhase.Seconds()*1e3,
		boot.InitPhase.Seconds()*1e3, boot.Total.Seconds()*1e3)
	fmt.Printf("drained %d jobs in %.3f s simulated (%.2f jobs/s), %d backfilled, utilization %.1f%%\n",
		len(d.Results), d.Sched.Makespan.Seconds(), d.JobsPerSecond(),
		d.Sched.Backfilled, d.Sched.Utilization*100)
	// No host wall-clock here: cnksim output is byte-identical across
	// reruns (BenchmarkDrainSerial/Parallel in internal/ctrlsys time it).
	fmt.Printf("%d failures, %d RAS events, drain signature %016x\n",
		d.Failures, d.RASEvents, d.Signature())
	if tracePath != "" {
		writeTrace(tracePath, s.TraceJSON(), s.Obs().SpanCount(), s.Obs().SampleCount())
	}
	if d.Failures > 0 {
		for _, r := range d.Results {
			if r.Failed() {
				fmt.Printf("  job %d (%s): err=%q exits=%v\n", r.Job.ID, r.Job.Name, r.Err, r.ExitCodes)
			}
		}
		os.Exit(1)
	}
}
