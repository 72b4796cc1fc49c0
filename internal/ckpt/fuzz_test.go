package ckpt

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fuzzSeedImages are the hand-picked images seeded into the corpus: the
// empty image, the representative two-node image, extreme field values,
// a path at the cap, and a many-region FWK-shaped node.
func fuzzSeedImages() []*Image {
	pages := &Image{Nodes: []NodeState{{Node: 0}}}
	for i := 0; i < 64; i++ {
		vb := uint64(0x1000 + i*0x2000)
		pages.Nodes[0].Regions = append(pages.Nodes[0].Regions,
			Region{VBase: vb, Size: 4096, Digest: RegionDigest("fwk", vb, 4096)})
	}
	return []*Image{
		{},
		testImage(),
		{
			JobID: -1, Epoch: ^uint32(0), Kind: 0xff,
			Nodes: []NodeState{{
				Node:    -2,
				Regions: []Region{{VBase: 0, Size: ^uint64(0), Digest: ^uint64(0)}},
				Threads: []RegState{{TID: ^uint32(0), PC: ^uint64(0), SP: ^uint64(0)}},
				Files:   []FileState{{FD: 0x7fffffff, Offset: ^uint64(0), Flags: ^uint64(0)}},
			}},
		},
		{Nodes: []NodeState{{Node: 0, Files: []FileState{{FD: 1, Path: strings.Repeat("p", MaxPath)}}}}},
		pages,
	}
}

// FuzzCheckpointImage drives the decoder with corrupted, truncated and
// hostile inputs. The invariant on every accepted input is canonicality:
// it re-marshals to exactly the bytes that were accepted, and the
// re-decode yields the same image. Rejections just need to be clean (no
// panic, no huge allocation — length prefixes are validated against the
// bytes actually present before any make()).
func FuzzCheckpointImage(f *testing.F) {
	for _, img := range fuzzSeedImages() {
		wire := img.Marshal()
		f.Add(wire)
		f.Add(wire[:len(wire)-1]) // truncated tail
		f.Add(wire[:len(wire)/2]) // truncated mid-image
	}
	// Length-prefix abuse: huge node and region counts.
	hostile := testImage().Marshal()
	for _, off := range []int{17, 25} {
		b := append([]byte{}, hostile...)
		b[off], b[off+1], b[off+2], b[off+3] = 0xff, 0xff, 0xff, 0x7f
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte("go test fuzz is not a checkpoint"))
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := Unmarshal(data)
		if err != nil {
			return // rejection is fine; the property is about accepted inputs
		}
		wire := img.Marshal()
		if !bytes.Equal(wire, data) {
			t.Fatalf("accepted non-canonical input:\n in  %x\n out %x", data, wire)
		}
		again, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("re-decode of own marshal failed: %v", err)
		}
		if !imagesEqual(img, again) {
			t.Fatal("round trip changed image")
		}
	})
}

// TestMarshalExactSize checks that every image Unmarshal accepts from the
// committed FuzzCheckpointImage corpus, and every seed image the fuzz
// target adds, marshals in one allocation of exactly its encoding's
// length.
func TestMarshalExactSize(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzCheckpointImage")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]byte{}
	for _, ent := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: not a one-value corpus file", ent.Name())
		}
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", ent.Name(), err)
		}
		inputs["corpus/"+ent.Name()] = []byte(data)
	}
	seeds := fuzzSeedImages()
	for i, img := range seeds {
		inputs[fmt.Sprintf("seed/%d", i)] = img.Marshal()
	}
	accepted := 0
	for name, data := range inputs {
		img, err := Unmarshal(data)
		if err != nil {
			continue
		}
		accepted++
		wire := img.Marshal()
		if len(wire) != len(data) || cap(wire) != len(wire) {
			t.Errorf("%s: marshal has len %d cap %d, want both %d", name, len(wire), cap(wire), len(data))
		}
		if n := testing.AllocsPerRun(10, func() { img.Marshal() }); n != 1 {
			t.Errorf("%s: marshal makes %v allocations, want 1", name, n)
		}
	}
	if accepted < len(seeds) {
		t.Fatalf("Unmarshal accepted %d inputs, want at least the %d seed images", accepted, len(seeds))
	}
}

// TestWriteCheckpointCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzCheckpointImage. Skipped unless GEN_CORPUS=1; rerun
// after changing the wire format or the seed set. It leaves
// seed_old_counter_dims alone: that file is the typical image as it was
// marshalled when the counter block had 39 counters, kept so the corpus
// still reaches the counter-dimension rejection.
func TestWriteCheckpointCorpus(t *testing.T) {
	if os.Getenv("GEN_CORPUS") == "" {
		t.Skip("set GEN_CORPUS=1 to regenerate the committed fuzz corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzCheckpointImage")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	seeds := fuzzSeedImages()
	write("seed_empty_image", seeds[0].Marshal())
	write("seed_typical", seeds[1].Marshal())
	write("seed_extremes", seeds[2].Marshal())
	write("seed_maxpath", seeds[3].Marshal())
	write("seed_pageruns", seeds[4].Marshal())
	typical := seeds[1].Marshal()
	write("seed_trunc_tail", typical[:len(typical)-1])
	write("seed_trunc_half", typical[:len(typical)/2])
	hostileNodes := append([]byte{}, typical...)
	hostileNodes[17], hostileNodes[18], hostileNodes[19], hostileNodes[20] = 0xff, 0xff, 0xff, 0x7f
	write("seed_hostile_nodes", hostileNodes)
	hostileRegions := append([]byte{}, typical...)
	hostileRegions[25], hostileRegions[26], hostileRegions[27], hostileRegions[28] = 0xff, 0xff, 0xff, 0x7f
	write("seed_hostile_regions", hostileRegions)
	write("seed_empty", []byte{})
	write("seed_junk", []byte{0xff, 0xff, 0xff, 0xff})
}
