package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime/pprof"

	"bgcnk/internal/upc"
)

// runTraced runs an untraced phase for half of -seconds and then a traced
// phase for -seconds over the same inputs in the same order. The traced
// phase runs under a CPU profile, and its per-layer spans are the host
// time of each op's calls into machine and ctrlsys. Its ops must
// reproduce the untraced phase's model digests: observation stays inert.
func runTraced(o options, w workload, chk *checker, report io.Writer) (*result, error) {
	half := o
	half.seconds = o.seconds / 2
	next := 0
	plain := runPhase(w, chk, half, &next)

	var prof bytes.Buffer
	next = 0
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	traced := runPhase(w, chk, o, &next)
	pprof.StopCPUProfile()

	shares, samples, err := selfShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	rows, err := layerRows()
	if err != nil {
		return nil, err
	}

	m := rows
	add := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	outs := traced.outs
	n := float64(max(len(outs), 1))
	var ev, cyc, runNS, rebootNS, drainNS, jrecs, jbytes float64
	var ctr upc.Snapshot
	var admits, coalesced, hits, misses float64
	for _, out := range outs {
		ev += float64(out.events)
		cyc += float64(out.cycles)
		runNS += float64(out.run.cpu())
		rebootNS += float64(out.reboot.cpu())
		drainNS += float64(out.drain.cpu())
		jrecs += float64(out.jrecs)
		jbytes += float64(out.jbytes)
		ctr = upc.Merge(ctr, out.counters)
		admits += float64(out.ion.Admitted)
		coalesced += float64(out.ion.Coalesced)
		hits += float64(out.ion.CacheHits)
		misses += float64(out.ion.CacheMisses)
	}
	perOp := func(c upc.Counter) float64 { return float64(ctr.Total(c)) / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	add("machine.new_ms", "ms", float64(w.built())/1e6)
	add("machine.run_ms", "ms", runNS/1e6/n)
	add("machine.reboot_ms", "ms", rebootNS/1e6/n)
	add("ctrlsys.drain_ms", "ms", drainNS/1e6/n)
	add("sim.events", "count", ev/n)
	add("sim.cycles", "cycles", cyc/n)
	add("sim.ns_per_event", "ns", ratio(runNS, ev))
	add("hw.l1_miss", "count", perOp(upc.L1Miss))
	add("hw.tlb_miss", "count", perOp(upc.TLBMiss))
	add("kernel.syscall", "count", perOp(upc.SyscallTotal))
	add("kernel.timer_tick", "count", perOp(upc.TimerTick))
	add("kernel.context_switch", "count", perOp(upc.ContextSwitch))
	add("torus.packets", "count", perOp(upc.TorusPacket))
	add("torus.bytes", "bytes", perOp(upc.TorusBytes))
	add("collective.packets", "count", perOp(upc.CollPacket))
	add("collective.combine_ops", "count", perOp(upc.CombineOp))
	add("ciod.calls", "count", perOp(upc.FunctionShip))
	add("ion.admits", "count", admits/n)
	add("ion.stall_cycles", "cycles", perOp(upc.IONStallCycles))
	add("ion.coalesce_ratio", "ratio", ratio(coalesced, admits))
	add("ion.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	add("ctrlsys.journal_records", "count", jrecs/n)
	add("ctrlsys.journal_bytes", "bytes", jbytes/n)
	add("runtime.gc_per_op", "count", float64(traced.gcs)/n)
	for _, b := range selfBuckets {
		add("self."+b, "%", shares[b])
	}
	plainRate, tracedRate := plain.opsPerS(), traced.opsPerS()
	add("trace.overhead_ops_per_s", "1/s", tracedRate-plainRate)

	failed := plain.failed + traced.failed
	res := &result{Correct: failed == 0, Attempted: plain.attempted + traced.attempted, Failed: failed, Metrics: m}
	fmt.Fprintf(report, "workload %s seed %d: untraced %d ops (%.2f ops/s), traced %d ops (%.2f ops/s), %d failed\n",
		o.workload, o.seed, plain.attempted, plainRate, traced.attempted, tracedRate, failed)
	fmt.Fprintf(report, "host: self-time split from %d CPU samples of the traced phase:", samples)
	for _, b := range selfBuckets {
		if shares[b] >= 0.5 {
			fmt.Fprintf(report, " %s %.1f%%", b, shares[b])
		}
	}
	fmt.Fprintln(report)
	reportModel(report, o, chk, w, plain)
	if traced.firstFailure != "" {
		fmt.Fprintf(report, "FAILED (traced): %s\n", traced.firstFailure)
	}
	return res, nil
}
