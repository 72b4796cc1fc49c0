package ctrlsys

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bgcnk/internal/ckpt"
)

// fuzzSeedPersonalities are the hand-picked records seeded into the fuzz
// corpus: the zero value, a typical record, extreme field values, and the
// block-name edge cases (empty, multi-midplane, maximum length).
func fuzzSeedPersonalities() []Personality {
	return []Personality{
		{},
		{Rank: 3, Nodes: 8, X: 3, Partition: 2, Base: 1, Block: "R00-M1",
			Kind: 1, Seed: 0xdeadbeef, MemBytes: 256 << 20},
		{Rank: -1, Nodes: -1, X: -1, Y: -1, Z: -1, Partition: -1, Base: -1,
			Block: "R01-M0+2", Kind: 0xff, Seed: ^uint64(0), MemBytes: ^uint64(0)},
		{Block: strings.Repeat("b", maxBlockName)},
	}
}

func FuzzPersonality(f *testing.F) {
	for _, p := range fuzzSeedPersonalities() {
		p := p
		wire := p.Marshal()
		f.Add(wire)
		f.Add(wire[:len(wire)-1]) // truncated tail
		f.Add(wire[:len(wire)/2]) // truncated mid-record
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte("go test fuzz is not a personality"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalPersonality(data)
		if err != nil {
			return // rejection is fine; the property is about accepted inputs
		}
		// Accepted input must be canonical: it re-marshals to exactly the
		// bytes that were accepted, and that round-trips to the same record.
		wire := p.Marshal()
		if !bytes.Equal(wire, data) {
			t.Fatalf("accepted non-canonical input:\n in  %x\n out %x", data, wire)
		}
		q, err := UnmarshalPersonality(wire)
		if err != nil {
			t.Fatalf("re-decode of own marshal failed: %v", err)
		}
		if *q != *p {
			t.Fatalf("round trip changed record: %+v vs %+v", *q, *p)
		}
	})
}

// TestPersonalityCodecRejects pins the decoder's rejection behaviour
// deterministically, independent of the fuzzer.
func TestPersonalityCodecRejects(t *testing.T) {
	good := fuzzSeedPersonalities()[1]
	wire := good.Marshal()

	for cut := 0; cut < len(wire); cut++ {
		if _, err := UnmarshalPersonality(wire[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := UnmarshalPersonality(append(append([]byte{}, wire...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	bad := append([]byte{}, wire...)
	bad[0] ^= 0x01
	if _, err := UnmarshalPersonality(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte{}, wire...)
	bad[4] = personalityVersion + 1
	if _, err := UnmarshalPersonality(bad); err == nil {
		t.Error("unknown version accepted")
	}
	// A hostile block-name length must be rejected without a big allocation.
	hostile := good
	hostile.Block = ""
	hw := hostile.Marshal()
	hw[33], hw[34], hw[35], hw[36] = 0xff, 0xff, 0xff, 0x7f // length field
	if _, err := UnmarshalPersonality(hw); err == nil {
		t.Error("hostile block length accepted")
	}
	// A name longer than the cap never marshals, so the decoder may
	// reject the cap boundary strictly.
	long := Personality{Block: strings.Repeat("x", maxBlockName+10)}
	rt, err := UnmarshalPersonality(long.Marshal())
	if err != nil {
		t.Fatalf("capped marshal did not decode: %v", err)
	}
	if len(rt.Block) != maxBlockName {
		t.Errorf("block name cap not applied: got %d bytes", len(rt.Block))
	}
}

// TestWritePersonalityCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzPersonality. Skipped unless GEN_CORPUS=1; rerun it
// after changing the wire format or the seed set.
func TestWritePersonalityCorpus(t *testing.T) {
	if os.Getenv("GEN_CORPUS") == "" {
		t.Skip("set GEN_CORPUS=1 to regenerate the committed fuzz corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzPersonality")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	seeds := fuzzSeedPersonalities()
	write("seed_zero", seeds[0].Marshal())
	write("seed_typical", seeds[1].Marshal())
	write("seed_extremes", seeds[2].Marshal())
	write("seed_maxname", seeds[3].Marshal())
	typical := seeds[1].Marshal()
	write("seed_trunc_tail", typical[:len(typical)-1])
	write("seed_trunc_half", typical[:len(typical)/2])
	write("seed_empty", []byte{})
	write("seed_junk", []byte{0xff, 0xff, 0xff, 0xff})
}

// fuzzSeedBodies are the journal bodies seeded into the FuzzJournalBody
// corpus: a submit record's job, the completion of a twice-restarted
// job, and a checkpoint commit carrying a resume point and an image.
func fuzzSeedBodies() (job, complete, commit []byte) {
	done := restartedResult()
	rp := pinResume()
	rp.image = (&ckpt.Image{JobID: 5, Epoch: 2}).Marshal()
	return marshalJob(done.Job), completeBody(5, done), ckptCommitRaw(5, marshalResume(rp))
}

// FuzzJournalBody drives the body decoders replay runs on records that
// carry strings, slices or nested bodies: unmarshalJob, decodeComplete
// and decodeCkptCommit. Every body one of them accepts must re-encode to
// exactly the accepted bytes, so replay hands back what the node wrote
// and nothing it could not have written.
func FuzzJournalBody(f *testing.F) {
	job, complete, commit := fuzzSeedBodies()
	for _, b := range [][]byte{job, complete, commit} {
		f.Add(b)
		f.Add(b[:len(b)-1]) // truncated tail
		f.Add(b[:len(b)/2]) // truncated mid-body
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if j, err := unmarshalJob(data); err == nil {
			requireCanonical(t, "job", data, marshalJob(j))
		}
		if id, r, err := decodeComplete(data); err == nil {
			requireCanonical(t, "completion", data, completeBody(id, r))
		}
		if id, rp, err := decodeCkptCommit(data); err == nil {
			requireCanonical(t, "checkpoint-commit", data, ckptCommitRaw(id, marshalResume(rp)))
		}
	})
}

// requireCanonical fails the test unless wire, the re-encoding of an
// accepted body, is the body itself.
func requireCanonical(t *testing.T, what string, body, wire []byte) {
	t.Helper()
	if bytes.Equal(body, wire) {
		return
	}
	i := 0
	for i < len(body) && i < len(wire) && body[i] == wire[i] {
		i++
	}
	t.Fatalf("accepted %s body is not canonical: %d bytes re-encode to %d, first difference at offset %d",
		what, len(body), len(wire), i)
}

// TestWriteJournalBodyCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzJournalBody. Skipped unless GEN_CORPUS=1; rerun it
// after changing a body format or the seed set.
func TestWriteJournalBodyCorpus(t *testing.T) {
	if os.Getenv("GEN_CORPUS") == "" {
		t.Skip("set GEN_CORPUS=1 to regenerate the committed fuzz corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzJournalBody")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	job, complete, commit := fuzzSeedBodies()
	write("seed_job", job)
	write("seed_complete", complete)
	write("seed_ckpt_commit", commit)
	write("seed_complete_trunc_tail", complete[:len(complete)-1])
	write("seed_commit_trunc_half", commit[:len(commit)/2])
	// The last byte of a completion is its CrashAborted bool.
	boolTwo := bytes.Clone(complete)
	boolTwo[len(boolTwo)-1] = 2
	write("seed_complete_bool_two", boolTwo)
	// Bytes 4..7 of a job body are the name's length.
	hostile := bytes.Clone(job)
	hostile[4], hostile[5], hostile[6], hostile[7] = 0xff, 0xff, 0xff, 0x7f
	write("seed_job_hostile_name", hostile)
	write("seed_empty", []byte{})
}
