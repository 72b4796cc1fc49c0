package wal

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"bgcnk/internal/fs"
	"bgcnk/internal/kernel"
)

// pinnedSegments are the segment files the pinned append script leaves
// on the store, with each file's length and fnv64a digest. They were
// generated while the journal still rewrote its whole active segment on
// every append, so appending in place must leave the same bytes.
var pinnedSegments = []string{
	"seg-000001.wal len=230 fnv=0xfef22586f965695b",
	"seg-000002.wal len=246 fnv=0xf7eb87cad5031c97",
	"seg-000003.wal len=209 fnv=0xc8fe2daf1d325195",
	"seg-000004.wal len=245 fnv=0x4ca46a0c49a23a8a",
	"seg-000005.wal len=136 fnv=0x9a244e4420f6efaf",
	"seg-000006.wal len=199 fnv=0x1ae5b6b20890e325",
}

// pinScript appends records of growing size into 256-byte segments, so
// the journal rotates several times, and ends with a torn append into the
// active segment. It returns the records it committed.
func pinScript(t *testing.T, fsys *fs.FS) []Record {
	t.Helper()
	j, err := Create(fsys, "/wal", 256)
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 14; i++ {
		body := make([]byte, 10+i*9)
		for k := range body {
			body[k] = byte(i*31 + k)
		}
		kind := uint8(i % 5)
		want = append(want, Record{LSN: mustAppend(t, j, kind, body), Kind: kind, Body: body})
	}
	if err := j.AppendTorn(7, bytes.Repeat([]byte{0x5a}, 90)); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestPinnedSegmentBytes pins every segment file of an append script that
// crosses rotations and ends in a torn append, then replays the files.
func TestPinnedSegmentBytes(t *testing.T) {
	fsys := fs.New()
	want := pinScript(t, fsys)
	names, errno := fsys.Readdir("/", "/wal", fs.Root)
	if errno != kernel.OK {
		t.Fatalf("readdir: errno %d", errno)
	}
	slices.Sort(names)
	var got []string
	for _, n := range names {
		b, errno := fsys.ReadFile("/wal/"+n, fs.Root)
		if errno != kernel.OK {
			t.Fatalf("read %s: errno %d", n, errno)
		}
		h := fnv.New64a()
		h.Write(b)
		got = append(got, fmt.Sprintf("%s len=%d fnv=%#016x", n, len(b), h.Sum64()))
	}
	if !slices.Equal(got, pinnedSegments) {
		var b strings.Builder
		for _, r := range got {
			fmt.Fprintf(&b, "\t%q,\n", r)
		}
		t.Fatalf("segment files differ from the pinned ones; got:\n%s", b.String())
	}
	j, recs, err := Open(fsys, "/wal", 256)
	if err != nil {
		t.Fatal(err)
	}
	if j.Torn() != 1 || len(recs) != len(want) {
		t.Fatalf("replayed %d records with %d torn, want %d and 1", len(recs), j.Torn(), len(want))
	}
	for i, r := range recs {
		if r.LSN != want[i].LSN || r.Kind != want[i].Kind || !bytes.Equal(r.Body, want[i].Body) {
			t.Fatalf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
}
