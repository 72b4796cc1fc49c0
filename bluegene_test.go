package bluegene

import (
	"errors"
	"testing"
)

func TestFacadeMachineRuns(t *testing.T) {
	m, err := NewMachine(MachineConfig{Nodes: 2, Kernel: CNK})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	sum := 0.0
	err = m.Run(func(ctx Context, env *Env) {
		v, _ := env.MPI.Allreduce(ctx, 1)
		if env.Rank == 0 {
			sum = v
		}
	}, JobParams{}, 0)
	if err != nil || sum != 2 {
		t.Fatalf("err=%v sum=%v", err, sum)
	}
}

func TestFacadeFWK(t *testing.T) {
	m, err := NewMachine(MachineConfig{Nodes: 1, Kernel: FWK, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	ran := false
	err = m.Run(func(ctx Context, env *Env) {
		ctx.Compute(1_000_000)
		ran = true
	}, JobParams{}, 0)
	if err != nil || !ran {
		t.Fatalf("err=%v ran=%v", err, ran)
	}
}

func TestFacadeControlSystem(t *testing.T) {
	cfg := ControlConfig{
		Topology: Topology{Racks: 1, MidplanesPerRack: 2, NodesPerMidplane: 2},
		Kind:     CNK,
		Seed:     5,
		Workers:  2,
	}
	jobs := GenerateControlJobs(cfg.Seed, 4, cfg.Topology.Midplanes())
	d, err := NewServiceNode(cfg).Drain(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if d.Failures != 0 || len(d.Results) != 4 {
		t.Fatalf("failures=%d results=%d", d.Failures, len(d.Results))
	}
	cnk := SimulateBoot(BootConfig{Kind: CNK, Nodes: 512, NodesPerMidplane: 32})
	fwk := SimulateBoot(BootConfig{Kind: FWK, Nodes: 512, NodesPerMidplane: 32})
	if fwk.Total <= cnk.Total {
		t.Fatalf("FWK boot %v not slower than CNK %v", fwk.Total, cnk.Total)
	}
}

func TestFacadeResilience(t *testing.T) {
	cfg := ControlConfig{
		Topology: Topology{Racks: 1, MidplanesPerRack: 2, NodesPerMidplane: 2},
		Kind:     CNK,
		Seed:     42,
		Workers:  2,
		Faults:   &FaultPlan{Seed: 0xdead, DDRUncorrectable: 5e-2},
		Ckpt:     CkptConfig{Enabled: true, Interval: 1},
	}
	jobs := []ControlJob{
		{ID: 0, Name: "res0", Midplanes: 1, Work: 20_000, Exchanges: 6, IOBytes: 0},
	}
	d, err := NewServiceNode(cfg).Drain(jobs)
	if err != nil {
		t.Fatal(err)
	}
	// At a kill-everything rate the job dies before its first checkpoint
	// on every incarnation, so the typed budget error must surface.
	if len(d.Errs) == 0 || !errors.Is(d.Errs[0], ErrRestartBudgetExhausted) {
		t.Fatalf("drain errors %v do not surface ErrRestartBudgetExhausted", d.Errs)
	}
	if len(d.Results[0].Attempts) == 0 || d.Restarts == 0 {
		t.Fatalf("no restart history recorded: %+v", d.Results[0])
	}

	var zero CounterSnapshot
	if WorkSignature(d.Merged) == WorkSignature(zero) {
		t.Fatal("drained work signature indistinguishable from an idle machine")
	}
	img := &CheckpointImage{JobID: 1, Epoch: 2}
	got, err := UnmarshalCheckpoint(img.Marshal())
	if err != nil || got.JobID != 1 || got.Epoch != 2 {
		t.Fatalf("checkpoint round trip: %+v err=%v", got, err)
	}
	if _, err := UnmarshalCheckpoint([]byte("junk")); err == nil {
		t.Fatal("junk accepted as a checkpoint image")
	}
}

func TestFacadeCrashRecovery(t *testing.T) {
	cfg := ControlConfig{
		Topology: Topology{Racks: 1, MidplanesPerRack: 2, NodesPerMidplane: 2},
		Kind:     CNK,
		Seed:     42,
		Workers:  2,
		Faults:   &FaultPlan{Seed: 0xd00d, DDRUncorrectable: 4e-3, DDRCorrectable: 0.05},
		Ckpt:     CkptConfig{Enabled: true, Interval: 1},
		Journal:  JournalConfig{Enabled: true},
		Crashes:  &CrashPlan{Seed: 0xbad0, Rate: 0.25, MaxCrashes: 2},
	}
	jobs := []ControlJob{
		{ID: 0, Name: "crash0", Midplanes: 1, Work: 20_000, Exchanges: 6, IOBytes: 256},
		{ID: 1, Name: "crash1", Midplanes: 2, Work: 30_000, Exchanges: 5, IOBytes: 0},
	}
	crashed, err := NewServiceNode(cfg).Drain(jobs)
	if err != nil {
		t.Fatal(err)
	}
	clean := cfg
	clean.Journal, clean.Crashes = JournalConfig{}, nil
	base, err := NewServiceNode(clean).Drain(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if crashed.Signature() != base.Signature() {
		t.Fatalf("crashed drain signature %016x, crash-free %016x", crashed.Signature(), base.Signature())
	}
	if crashed.Crash.Crashes == 0 || crashed.Crash.Recoveries == 0 {
		t.Fatalf("no crash/recovery exercised: %+v — retune the plan", crashed.Crash)
	}
}

func TestExperimentRegistryAccessible(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 17 {
		t.Fatalf("experiments: %v", ids)
	}
	if _, err := Experiment("no-such", true); err == nil {
		t.Fatal("unknown experiment must error")
	}
	r, err := Experiment("boot", true)
	if err != nil || !r.Pass {
		t.Fatalf("boot experiment: %v pass=%v", err, r != nil && r.Pass)
	}
}
