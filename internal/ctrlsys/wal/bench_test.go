package wal

import (
	"testing"

	"bgcnk/internal/fs"
)

// BenchmarkJournalAppend appends 700-byte records into 64 KiB segments,
// so about one append in ninety cuts a new segment.
func BenchmarkJournalAppend(b *testing.B) {
	j, err := Create(fs.New(), "/wal", DefaultSegmentBytes)
	if err != nil {
		b.Fatal(err)
	}
	body := make([]byte, 700)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := j.Append(1, body); err != nil {
			b.Fatal(err)
		}
	}
}
