package ctrlsys

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"bgcnk/internal/ckpt"
	"bgcnk/internal/ctrlsys/wal"
	"bgcnk/internal/fs"
	"bgcnk/internal/machine"
	"bgcnk/internal/upc"
)

// pinCounters fills every counter and per-number syscall count of a
// block with a value unique to (seed, slot, index).
func pinCounters(seed uint64) upc.Snapshot {
	var s upc.Snapshot
	for sl := range s.Vals {
		for c := range s.Vals[sl] {
			s.Vals[sl][c] = seed<<40 | uint64(sl)<<20 | uint64(c)
		}
		for n := range s.Sys[sl] {
			s.Sys[sl][n] = seed<<40 | uint64(sl)<<20 | 1<<16 | uint64(n)
		}
	}
	return s
}

// pinImages returns a CNK-shaped image (two nodes, four large static
// regions and four threads each) and an FWK-shaped one (one node of 4 KB
// page runs, one thread, and an open file whose path passes ckpt.MaxPath).
func pinImages() (cnk, fwk *ckpt.Image) {
	cnk = &ckpt.Image{JobID: 9, Epoch: 4, Kind: uint8(machine.KindCNK)}
	for n := int32(0); n < 2; n++ {
		ns := ckpt.NodeState{Node: n, Counters: pinCounters(uint64(n) + 1)}
		for i, name := range []string{"text", "data", "heap", "stack"} {
			base := uint64(0x0100_0000) << (2 * i)
			ns.Regions = append(ns.Regions, ckpt.Region{VBase: base, Size: 16 << 20, Digest: ckpt.RegionDigest(name, base, 16<<20)})
		}
		for t := uint32(1); t <= 4; t++ {
			ns.Threads = append(ns.Threads, ckpt.RegState{TID: t, PC: 4, SP: 0x0d00_0000 - uint64(t)<<20})
		}
		ns.Files = []ckpt.FileState{{FD: 0, Path: "/dev/console"}, {FD: 3, Offset: 8192, Flags: 1, Path: "/gpfs/job-009.out"}}
		cnk.Nodes = append(cnk.Nodes, ns)
	}
	fwk = &ckpt.Image{JobID: -2, Epoch: 1, Kind: uint8(machine.KindFWK)}
	ns := ckpt.NodeState{Node: 3, Counters: pinCounters(7)}
	for i := uint64(0); i < 40; i++ {
		vb, size := 0x1000+i*0x3000, 4096*(1+i%2)
		ns.Regions = append(ns.Regions, ckpt.Region{VBase: vb, Size: size, Digest: ckpt.RegionDigest("fwk", vb, size)})
	}
	ns.Threads = []ckpt.RegState{{TID: 1, PC: 1, SP: 0x7fff_f000}}
	ns.Files = []ckpt.FileState{{FD: 1, Offset: 17, Path: "/dev/stdout"}, {FD: 4, Flags: 0x241, Path: "/gpfs/" + strings.Repeat("d/", ckpt.MaxPath/2)}}
	fwk.Nodes = append(fwk.Nodes, ns)
	return cnk, fwk
}

// restartedResult is the completion a 16-node CNK job commits after two
// fault-killed attempts and a completed third.
func restartedResult() *JobResult {
	return &JobResult{
		Job:   Job{ID: 5, Name: "job-005", Midplanes: 4, Work: 120_000, Exchanges: 6, IOBytes: 4096},
		Nodes: 16,
		Boot: BootResult{Kind: machine.KindCNK, Nodes: 16, ImageBytes: 6 << 20, Waves: 4,
			ImagePhase: 1_200_000, PerNodePhase: 35_000, InitPhase: 880_000, Total: 2_115_000},
		Run:       9_876_543,
		Teardown:  410_000,
		ExitCodes: make([]int, 16),
		Counters:  pinCounters(3),
		RASEvents: 3,
		RASHash:   0x9e3779b97f4a7c15,
		Attempts: []Attempt{
			{Boot: 2_115_000, Run: 3_000_000, ResumeEpoch: -1, FaultMidplane: 2, Backoff: 2_000_000},
			{Boot: 2_115_000, Run: 2_500_000, ResumeEpoch: 2, FaultMidplane: -1, Backoff: 4_000_000},
			{Boot: 2_115_000, Run: 9_876_543, ResumeEpoch: 4, FaultMidplane: -1, Completed: true},
		},
		Restarts:        2,
		Wasted:          10_040_000,
		RestartOverhead: 16_040_000,
	}
}

// pinResume is the resume point committed after restartedResult's first
// failed attempt, carrying the CNK-shaped image.
func pinResume() *resumePoint {
	res := *restartedResult()
	res.Attempts = res.Attempts[:1]
	res.ExitCodes = append([]int(nil), res.ExitCodes...)
	res.ExitCodes[7] = 137
	res.Err = fmt.Sprintf("job exited nonzero: %v", res.ExitCodes)
	res.Restarts, res.Wasted, res.RestartOverhead = 1, 5_525_000, 7_525_000
	cnk, _ := pinImages()
	return &resumePoint{res: res, rasHash: 0xcbf29ce484222325, next: 1, image: cnk.Marshal()}
}

// TestPinnedEncodings holds FNV-64a digests of fixed encodings of every
// durable format: the checkpoint image, the boot personality, each
// journal body and one WAL record. The digests were generated before the
// formats shared one codec; a change that moves any byte of any of them
// moves a digest.
func TestPinnedEncodings(t *testing.T) {
	cnk, fwk := pinImages()
	long := Personality{Rank: 5, Nodes: 16, X: 1, Y: 2, Z: 3, Partition: 3, Base: 1,
		Block: strings.Repeat("R00-M1", 50), Kind: uint8(machine.KindCNK), Seed: 0xdeadbeefcafe, MemBytes: 2 << 30}
	done := restartedResult()
	cases := []struct {
		name string
		wire []byte
		want uint64
	}{
		{"ckpt/cnk", cnk.Marshal(), 0x50b8574529fd542a},
		{"ckpt/fwk", fwk.Marshal(), 0x2c7c5c8d2e55a35f},
		{"personality/long-block", long.Marshal(), 0x2101c0478f8b2d4e},
		{"journal/job", marshalJob(done.Job), 0x2bc4beeb2cde68eb},
		{"journal/id", idBody(-6), 0x1fb1768a0de0907c},
		{"journal/triple", tripleBody(5, 1, 2), 0xe9063dd20e640c63},
		{"journal/boot", bootBody(-6, 0x0123456789abcdef), 0x5fa968fe463704dc},
		{"journal/complete", completeBody(5, done), 0x88dec8e784421ba0},
		{"journal/ckpt-commit", ckptCommitRaw(5, marshalResume(pinResume())), 0x7711dc901d1836cf},
		{"wal/record", wal.EncodeRecord(42, recJobComplete, completeBody(5, done)), 0x1f3b120790296ab4},
	}
	for _, c := range cases {
		h := fnv.New64a()
		h.Write(c.wire)
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: %d bytes digest %016x, pinned %016x", c.name, len(c.wire), got, c.want)
		}
	}
}

// TestJournalBodiesExactSize checks that the bodies carrying a job's
// result, the completion and the checkpoint commit with its resume
// point, are each marshalled in one allocation of exactly their length,
// so the 4 KB counter block is never copied into a grown buffer.
func TestJournalBodiesExactSize(t *testing.T) {
	done, rp := restartedResult(), pinResume()
	resume := marshalResume(rp)
	for _, c := range []struct {
		name    string
		marshal func() []byte
	}{
		{"result", func() []byte { return marshalJobResult(done) }},
		{"complete", func() []byte { return completeBody(5, done) }},
		{"resume", func() []byte { return marshalResume(rp) }},
		{"ckpt-commit", func() []byte { return ckptCommitRaw(5, resume) }},
	} {
		if b := c.marshal(); len(b) != cap(b) {
			t.Errorf("%s: len %d, cap %d", c.name, len(b), cap(b))
		}
		if n := testing.AllocsPerRun(10, func() { c.marshal() }); n != 1 {
			t.Errorf("%s: %v allocations, want 1", c.name, n)
		}
	}
}

// TestJournalReplaysLargeBodies: replay must accept every body the node
// writes, and the WAL's body cap (wal.MaxBody) is the only bound on one.
// A completion whose error text is 5 000 bytes and a checkpoint commit
// carrying the resume image of a 512-node midplane (about 4 KB a node,
// almost all of it counter block) are appended, the journal is reopened,
// and both records replay to what was written.
func TestJournalReplaysLargeBodies(t *testing.T) {
	done := restartedResult()
	done.Err = strings.Repeat("e", 5000)
	img := &ckpt.Image{JobID: 6, Epoch: 3, Kind: uint8(machine.KindCNK)}
	for n := int32(0); n < 512; n++ {
		ns := ckpt.NodeState{Node: n, Threads: []ckpt.RegState{{TID: 1, PC: 3, SP: 0x0d00_0000}}}
		for i, name := range []string{"text", "data", "heap"} {
			base := uint64(0x0100_0000) << (2 * i)
			ns.Regions = append(ns.Regions, ckpt.Region{VBase: base, Size: 16 << 20, Digest: ckpt.RegionDigest(name, base, 16<<20)})
		}
		img.Nodes = append(img.Nodes, ns)
	}
	rp := pinResume()
	rp.image = img.Marshal()
	if len(rp.image) < 2_000_000 {
		t.Fatalf("midplane image is %d bytes, want about 2 MB", len(rp.image))
	}

	store := fs.New()
	j, err := wal.Create(store, "/ctrl/wal", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(recJobComplete, completeBody(5, done)); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(recCkptCommit, ckptCommitRaw(6, marshalResume(rp))); err != nil {
		t.Fatal(err)
	}
	_, recs, err := wal.Open(store, "/ctrl/wal", 0)
	if err != nil {
		t.Fatal(err)
	}
	st := newDrainState()
	for _, r := range recs {
		if err := st.applyRecord(r); err != nil {
			t.Errorf("replay of a %d-byte kind-%d body: %v", len(r.Body), r.Kind, err)
		}
	}
	if got := st.completed[5]; got == nil || got.Err != done.Err {
		t.Error("completion's error text did not replay")
	}
	if got := st.resume[6]; got == nil || !bytes.Equal(got.image, rp.image) {
		t.Error("checkpoint commit's image did not replay")
	}
}
