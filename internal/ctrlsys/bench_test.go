package ctrlsys

import (
	"runtime"
	"testing"

	"bgcnk/internal/machine"
)

func BenchmarkSimulateBoot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		SimulateBoot(BootConfig{Kind: machine.KindCNK, Nodes: 1024, NodesPerMidplane: 32})
		SimulateBoot(BootConfig{Kind: machine.KindFWK, Nodes: 1024, NodesPerMidplane: 32})
	}
}

func benchDrain(b *testing.B, workers int) {
	cfg := Config{
		Topology: Topology{Racks: 2, MidplanesPerRack: 2, NodesPerMidplane: 2},
		Kind:     machine.KindCNK,
		Seed:     1009,
		Workers:  workers,
	}
	jobs := GenerateJobs(cfg.Seed, 24, cfg.Topology.Midplanes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg).Drain(jobs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDrainSerial(b *testing.B)   { benchDrain(b, 1) }
func BenchmarkDrainParallel(b *testing.B) { benchDrain(b, runtime.NumCPU()) }

// BenchmarkDrainCheckpointed drains one fixed 8-job queue in perfbench
// cnk-drain's configuration: 1 rack x 4 midplanes x 4 CNK nodes,
// checkpointing and the journal on, one worker. Every job builds, boots,
// runs and discards its own partition machine, so a -cpuprofile of this
// benchmark shows partition construction as cnk-drain pays for it.
func BenchmarkDrainCheckpointed(b *testing.B) {
	cfg := Config{
		Topology: Topology{Racks: 1, MidplanesPerRack: 4, NodesPerMidplane: 4},
		Kind:     machine.KindCNK,
		Seed:     1,
		Workers:  1,
		Ckpt:     CkptConfig{Enabled: true},
		Journal:  JournalConfig{Enabled: true},
	}
	jobs := GenerateJobs(cfg.Seed, 8, cfg.Topology.Midplanes())
	b.ReportAllocs()
	for b.Loop() {
		res, err := New(cfg).Drain(jobs)
		if err != nil {
			b.Fatal(err)
		}
		if res.Failures != 0 || len(res.Errs) != 0 {
			b.Fatalf("%d failed jobs, errors %v", res.Failures, res.Errs)
		}
	}
}

// BenchmarkJournalBody encodes and decodes the completion body of a
// 16-node job that restarted twice, the size of partition a cnk-drain
// job runs on.
func BenchmarkJournalBody(b *testing.B) {
	r := restartedResult()
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := decodeComplete(completeBody(r.Job.ID, r)); err != nil {
			b.Fatal(err)
		}
	}
}
