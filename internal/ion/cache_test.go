package ion

import (
	"bytes"
	"testing"

	"bgcnk/internal/fs"
	"bgcnk/internal/kernel"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// newCacheFixture returns a cache over a fresh fs with one empty file.
func newCacheFixture(t *testing.T, blocks int) (*Cache, *fs.FS, uint64) {
	t.Helper()
	fsys := fs.New()
	fsys.MustMkdirAll("/gpfs")
	if errno := fsys.WriteFile("/gpfs/f", nil, 0644, fs.Root); errno != kernel.OK {
		t.Fatal(errno)
	}
	st, errno := fsys.Stat("/", "/gpfs/f", fs.Root)
	if errno != kernel.OK {
		t.Fatal(errno)
	}
	return NewCache(fsys, blocks), fsys, st.Ino
}

// run executes fn inside a simulation coroutine and drains the engine.
func run(fn func(c *sim.Coro)) {
	eng := sim.NewEngine()
	eng.Go("test", fn)
	eng.RunUntilIdle()
}

// Writes stay dirty in the cache (invisible to the fs) until Flush, after
// which the fs holds exactly the written bytes — write-back semantics.
func TestWriteBackVisibleOnlyAfterFlush(t *testing.T) {
	ca, fsys, ino := newCacheFixture(t, 8)
	run(func(c *sim.Coro) {
		ca.Write(c, ino, 0, []byte("hello world"))
		if data, _ := fsys.ReadFile("/gpfs/f", fs.Root); len(data) != 0 {
			t.Errorf("dirty data leaked to fs before flush: %q", data)
		}
		if got := ca.Read(c, ino, 0, 64); string(got) != "hello world" {
			t.Errorf("cached read = %q", got)
		}
		ca.Flush(c, ino)
	})
	data, _ := fsys.ReadFile("/gpfs/f", fs.Root)
	if string(data) != "hello world" {
		t.Fatalf("after flush fs holds %q", data)
	}
	if ca.DirtyBlocks() != 0 {
		t.Fatal("dirty blocks remain after flush")
	}
}

// Interleaved writes from different offsets — the multi-proxy pattern —
// must land with last-writer-wins POSIX semantics after flush.
func TestInterleavedOffsetsPOSIXAfterFlush(t *testing.T) {
	ca, fsys, ino := newCacheFixture(t, 8)
	run(func(c *sim.Coro) {
		ca.Write(c, ino, 0, bytes.Repeat([]byte("a"), 100))
		ca.Write(c, ino, 50, bytes.Repeat([]byte("b"), 100))
		ca.Write(c, ino, 25, []byte("zz"))
		ca.Flush(c, ino)
	})
	data, _ := fsys.ReadFile("/gpfs/f", fs.Root)
	want := append(bytes.Repeat([]byte("a"), 25), []byte("zz")...)
	want = append(want, bytes.Repeat([]byte("a"), 23)...)
	want = append(want, bytes.Repeat([]byte("b"), 100)...)
	if !bytes.Equal(data, want) {
		t.Fatalf("flushed file = %q, want %q", data, want)
	}
}

// The effective size (what O_APPEND and fstat see) covers unflushed
// extents.
func TestEffectiveSizeCoversDirtyExtents(t *testing.T) {
	ca, _, ino := newCacheFixture(t, 8)
	run(func(c *sim.Coro) {
		ca.Write(c, ino, 0, []byte("0123456789"))
		if sz := ca.Size(ino); sz != 10 {
			t.Errorf("effective size = %d, want 10", sz)
		}
		// An append lands at the effective EOF, not the fs EOF (0).
		ca.Write(c, ino, ca.Size(ino), []byte("abc"))
		if sz := ca.Size(ino); sz != 13 {
			t.Errorf("effective size after append = %d, want 13", sz)
		}
		if got := ca.Read(c, ino, 8, 10); string(got) != "89abc" {
			t.Errorf("read across extents = %q", got)
		}
	})
}

// A sparse write beyond EOF zero-fills the gap on flush.
func TestSparseWriteZeroFills(t *testing.T) {
	ca, fsys, ino := newCacheFixture(t, 8)
	run(func(c *sim.Coro) {
		ca.Write(c, ino, 10_000, []byte("tail"))
		ca.Flush(c, ino)
	})
	data, _ := fsys.ReadFile("/gpfs/f", fs.Root)
	if len(data) != 10_004 {
		t.Fatalf("flushed size = %d, want 10004", len(data))
	}
	for i, b := range data[:10_000] {
		if b != 0 {
			t.Fatalf("gap byte %d = %#x, want 0", i, b)
		}
	}
	if string(data[10_000:]) != "tail" {
		t.Fatalf("tail = %q", data[10_000:])
	}
}

// Truncate racing a dirty block: dirty data beyond the truncation point
// must never resurface, dirty data below it must survive the flush, and
// re-extension reads zeros (POSIX).
func TestTruncateRacesDirtyBlock(t *testing.T) {
	ca, fsys, ino := newCacheFixture(t, 8)
	run(func(c *sim.Coro) {
		ca.Write(c, ino, 0, bytes.Repeat([]byte("d"), 2*BlockSize)) // 2 dirty blocks
		ca.Truncate(c, ino, 100)                                    // below the first block's end
		// Truncate is write-through for metadata.
		if st, _ := fsys.Stat("/", "/gpfs/f", fs.Root); st.Size != 100 {
			t.Errorf("fs size after truncate = %d, want 100", st.Size)
		}
		// Re-extend past the old dirty region: the hole must read zero.
		ca.Truncate(c, ino, BlockSize+10)
		if got := ca.Read(c, ino, 100, 50); !bytes.Equal(got, make([]byte, 50)) {
			t.Errorf("re-extended hole reads %q, want zeros", got)
		}
		ca.Flush(c, ino)
	})
	data, _ := fsys.ReadFile("/gpfs/f", fs.Root)
	if len(data) != BlockSize+10 {
		t.Fatalf("final size = %d, want %d", len(data), BlockSize+10)
	}
	for i := 0; i < 100; i++ {
		if data[i] != 'd' {
			t.Fatalf("surviving byte %d = %#x, want 'd'", i, data[i])
		}
	}
	for i := 100; i < len(data); i++ {
		if data[i] != 0 {
			t.Fatalf("byte %d = %#x resurfaced after truncate", i, data[i])
		}
	}
}

// LRU eviction writes dirty victims back, so capacity pressure cannot
// lose data; adjacent dirty blocks flush as one coalesced write.
func TestEvictionWritesBackAndFlushCoalesces(t *testing.T) {
	ca, fsys, ino := newCacheFixture(t, 2)
	run(func(c *sim.Coro) {
		// Three dirty blocks through a 2-block cache: block 0 is evicted
		// (written back) when block 2 enters.
		ca.Write(c, ino, 0, bytes.Repeat([]byte("x"), 3*BlockSize))
		ca.Flush(c, ino)
	})
	data, _ := fsys.ReadFile("/gpfs/f", fs.Root)
	if len(data) != 3*BlockSize || !bytes.Equal(data, bytes.Repeat([]byte("x"), 3*BlockSize)) {
		t.Fatalf("file corrupted by eviction: len=%d", len(data))
	}
	// Blocks 1 and 2 were dirty at Flush and adjacent: one merged run.
	if ca.ctr.Get(upc.ChipScope, upc.IONCoalesce) == 0 {
		t.Fatal("expected coalesced writeback")
	}
}

// An ION crash clears the cache: dirty data is lost, the fs keeps only
// what was flushed — the durability hole the flush triggers exist for.
func TestCrashDropsDirtyData(t *testing.T) {
	ca, fsys, ino := newCacheFixture(t, 8)
	node := NewNode(Config{QueueDepth: 2}, ca)
	run(func(c *sim.Coro) {
		ca.Write(c, ino, 0, []byte("durable"))
		ca.Flush(c, ino)
		ca.Write(c, ino, 7, []byte(" lost"))
		node.Crash()
	})
	data, _ := fsys.ReadFile("/gpfs/f", fs.Root)
	if string(data) != "durable" {
		t.Fatalf("after crash fs holds %q, want %q", data, "durable")
	}
	if ca.DirtyBlocks() != 0 {
		t.Fatal("dirty blocks survived the crash")
	}
}

// FlushAll walks every dirty file in inode order; used by the barrier
// quiesce so checkpoints are durable through the cache.
func TestFlushAllDeterministicAndComplete(t *testing.T) {
	fsys := fs.New()
	fsys.MustMkdirAll("/gpfs")
	var inos []uint64
	for _, name := range []string{"/gpfs/a", "/gpfs/b", "/gpfs/c"} {
		fsys.WriteFile(name, nil, 0644, fs.Root)
		st, _ := fsys.Stat("/", name, fs.Root)
		inos = append(inos, st.Ino)
	}
	ca := NewCache(fsys, 16)
	run(func(c *sim.Coro) {
		for i, ino := range inos {
			ca.Write(c, ino, 0, bytes.Repeat([]byte{byte('a' + i)}, 10))
		}
		ca.FlushAll(nil) // nil coroutine: free, service-side
	})
	for i, name := range []string{"/gpfs/a", "/gpfs/b", "/gpfs/c"} {
		data, _ := fsys.ReadFile(name, fs.Root)
		if !bytes.Equal(data, bytes.Repeat([]byte{byte('a' + i)}, 10)) {
			t.Fatalf("%s = %q after FlushAll", name, data)
		}
	}
	if ca.DirtyBlocks() != 0 {
		t.Fatal("dirty blocks after FlushAll")
	}
}

// Two coroutines share one 4-block cache: A flushes an inode with two
// non-adjacent dirty blocks, and B's fills evict A's second dirty block
// while A sleeps between the two write-back runs. Both of A's writes
// must reach the fs exactly once, nothing may stay dirty, and the
// interleaving must end at the same cycle every run.
func TestFlushRacesEviction(t *testing.T) {
	fsys := fs.New()
	fsys.MustMkdirAll("/gpfs")
	if errno := fsys.WriteFile("/gpfs/a", nil, 0644, fs.Root); errno != kernel.OK {
		t.Fatal(errno)
	}
	big := bytes.Repeat([]byte("x"), 8*BlockSize)
	if errno := fsys.WriteFile("/gpfs/b", big, 0644, fs.Root); errno != kernel.OK {
		t.Fatal(errno)
	}
	stA, _ := fsys.Stat("/", "/gpfs/a", fs.Root)
	stB, _ := fsys.Stat("/", "/gpfs/b", fs.Root)

	ca := NewCache(fsys, 4)
	eng := sim.NewEngine()
	eng.Go("A", func(c *sim.Coro) {
		ca.Write(c, stA.Ino, 0, []byte("one"))             // block 0 dirty
		ca.Write(c, stA.Ino, 2*BlockSize, []byte("three")) // block 2 dirty
		ca.Flush(c, stA.Ino)                               // two runs; sleeps between them
	})
	eng.Go("B", func(c *sim.Coro) {
		c.Sleep(1) // let A reach its first writeback sleep
		for i := 0; i < 6; i++ {
			ca.Read(c, stB.Ino, uint64(i)*BlockSize, 1) // fills force evictions
		}
	})
	eng.RunUntilIdle()

	data, _ := fsys.ReadFile("/gpfs/a", fs.Root)
	if len(data) != 2*BlockSize+5 {
		t.Fatalf("/gpfs/a is %d bytes, want %d", len(data), 2*BlockSize+5)
	}
	if string(data[:3]) != "one" || string(data[2*BlockSize:]) != "three" {
		t.Fatalf("/gpfs/a holds %q at 0 and %q at 2*BlockSize", data[:3], data[2*BlockSize:])
	}
	if !bytes.Equal(data[3:2*BlockSize], make([]byte, 2*BlockSize-3)) {
		t.Fatal("/gpfs/a: the gap between the two writes is not zero-filled")
	}
	if n := ca.DirtyBlocks(); n != 0 {
		t.Fatalf("%d dirty blocks remain", n)
	}
	if now := eng.Now(); now != 9001 {
		t.Fatalf("engine ended at cycle %d, want 9001", now)
	}
}

// TestReadAliasesOneBlock pins who owns a read's bytes: a span inside one
// block is that block's own bytes with capacity clipped to the span, so
// appending to it cannot reach the rest of the block, and a span across
// two blocks is a fresh slice.
func TestReadAliasesOneBlock(t *testing.T) {
	ca, _, ino := newCacheFixture(t, 8)
	data := make([]byte, 2*BlockSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	run(func(c *sim.Coro) {
		ca.Write(c, ino, 0, data)
		b0 := ca.blocks[blockKey{ino: ino, idx: 0}].data
		b1 := ca.blocks[blockKey{ino: ino, idx: 1}].data
		for _, span := range []struct{ off, n int }{{100, 50}, {0, BlockSize}, {BlockSize + 4000, 96}} {
			got := ca.Read(c, ino, uint64(span.off), span.n)
			blk, bo := b0, span.off
			if span.off >= BlockSize {
				blk, bo = b1, span.off-BlockSize
			}
			if !bytes.Equal(got, data[span.off:span.off+span.n]) {
				t.Errorf("read of %d bytes at %d returned the wrong bytes", span.n, span.off)
			}
			if &got[0] != &blk[bo] {
				t.Errorf("read of %d bytes at %d is a copy, not the block's bytes", span.n, span.off)
			}
			if cap(got) != span.n {
				t.Errorf("read of %d bytes at %d has capacity %d", span.n, span.off, cap(got))
			}
		}
		cross := ca.Read(c, ino, BlockSize-10, 20)
		if !bytes.Equal(cross, data[BlockSize-10:BlockSize+10]) {
			t.Error("cross-block read returned the wrong bytes")
		}
		if &cross[0] == &b0[BlockSize-10] || &cross[10] == &b1[0] {
			t.Error("cross-block read aliases a block")
		}
	})
}

// lruLen counts the blocks linked in the cache's LRU list.
func lruLen(ca *Cache) int {
	n := 0
	for b := ca.head; b != nil; b = b.next {
		n++
	}
	return n
}

// Two proxies miss on the same block in the same cycle: A writes at
// offset 0 while B reads at offset 100 of an uncached file. Both fills
// sleep, so B's miss comes while A's fill is still in flight. B must get
// A's block, not build a second one that replaces it and drops A's write.
func TestConcurrentFillKeepsWrite(t *testing.T) {
	ca, fsys, ino := newCacheFixture(t, 8)
	if errno := fsys.WriteInode(ino, 0, make([]byte, 2*BlockSize)); errno != kernel.OK {
		t.Fatal(errno)
	}
	eng := sim.NewEngine()
	eng.Go("A", func(c *sim.Coro) { ca.Write(c, ino, 0, []byte("AAAA")) })
	eng.Go("B", func(c *sim.Coro) { ca.Read(c, ino, 100, 10) })
	eng.RunUntilIdle()
	run(func(c *sim.Coro) {
		if got := ca.Read(c, ino, 0, 4); string(got) != "AAAA" {
			t.Errorf("read at 0 after the concurrent fill = %q, want %q", got, "AAAA")
		}
	})
	if len(ca.blocks) != 1 || lruLen(ca) != 1 {
		t.Errorf("cache maps %d blocks and links %d, want 1 and 1", len(ca.blocks), lruLen(ca))
	}
	ca.FlushAll(nil)
	data, _ := fsys.ReadFile("/gpfs/f", fs.Root)
	if string(data[:4]) != "AAAA" {
		t.Fatalf("fs holds %q at 0 after FlushAll, want %q", data[:4], "AAAA")
	}
}

// In a one-block cache, A's write to block 1 evicts A's dirty block 0
// and sleeps in its write-back. D's write to block 0 during that sleep
// must survive the eviction: after FlushAll the fs holds D's bytes at 0
// and A's at BlockSize.
func TestWriteDuringEvictionSurvives(t *testing.T) {
	ca, fsys, ino := newCacheFixture(t, 1)
	eng := sim.NewEngine()
	eng.Go("A", func(c *sim.Coro) {
		ca.Write(c, ino, 0, []byte("AAAA"))
		ca.Write(c, ino, BlockSize, []byte("CCCC")) // fills block 1, evicts block 0
	})
	eng.Go("D", func(c *sim.Coro) {
		c.Sleep(2*costFill + costWriteback/2) // inside block 0's write-back
		ca.Write(c, ino, 0, []byte("BBBB"))
	})
	eng.RunUntilIdle()
	ca.FlushAll(nil)
	data, _ := fsys.ReadFile("/gpfs/f", fs.Root)
	if len(data) != BlockSize+4 {
		t.Fatalf("fs holds %d bytes, want %d", len(data), BlockSize+4)
	}
	if string(data[:4]) != "BBBB" || string(data[BlockSize:]) != "CCCC" {
		t.Fatalf("fs holds %q at 0 and %q at BlockSize, want %q and %q",
			data[:4], data[BlockSize:], "BBBB", "CCCC")
	}
}

// In a one-block cache, A's write to block 0 fills it and then evicts
// A's dirty block 9, sleeping in its write-back. B's fill of block 5
// during that sleep evicts the still-clean block 0. A must write into a
// block the cache holds, so after FlushAll the fs holds A's bytes at 0.
func TestFillEvictedByAnotherFillRefills(t *testing.T) {
	ca, fsys, ino := newCacheFixture(t, 1)
	if errno := fsys.WriteInode(ino, 0, make([]byte, 10*BlockSize)); errno != kernel.OK {
		t.Fatal(errno)
	}
	eng := sim.NewEngine()
	eng.Go("A", func(c *sim.Coro) {
		ca.Write(c, ino, 9*BlockSize, []byte("VVVV"))
		ca.Write(c, ino, 0, []byte("AAAA")) // fills block 0, evicts block 9
	})
	eng.Go("B", func(c *sim.Coro) {
		c.Sleep(costFill + costFill/3) // fills during A's fill, inserts during its write-back
		ca.Read(c, ino, 5*BlockSize, 4)
	})
	eng.RunUntilIdle()
	ca.FlushAll(nil)
	data, _ := fsys.ReadFile("/gpfs/f", fs.Root)
	if string(data[:4]) != "AAAA" || string(data[9*BlockSize:9*BlockSize+4]) != "VVVV" {
		t.Fatalf("fs holds %q at 0 and %q at 9*BlockSize, want %q and %q",
			data[:4], data[9*BlockSize:9*BlockSize+4], "AAAA", "VVVV")
	}
}

// A flushes a file with two dirty runs and sleeps in the first run's
// write-back; B truncates the file to 100 bytes meanwhile, discarding
// the second run's block. The flush must not write that block back: the
// fs ends at 100 bytes, holding A's first write.
func TestFlushSkipsTruncatedBlocks(t *testing.T) {
	ca, fsys, ino := newCacheFixture(t, 8)
	eng := sim.NewEngine()
	eng.Go("A", func(c *sim.Coro) {
		ca.Write(c, ino, 0, []byte("one"))
		ca.Write(c, ino, 2*BlockSize, []byte("three"))
		ca.Flush(c, ino)
	})
	eng.Go("B", func(c *sim.Coro) {
		c.Sleep(2*costFill + costWriteback/2) // inside the first run's write-back
		ca.Truncate(c, ino, 100)
	})
	eng.RunUntilIdle()
	data, _ := fsys.ReadFile("/gpfs/f", fs.Root)
	if len(data) != 100 || string(data[:3]) != "one" {
		t.Fatalf("fs holds %d bytes starting %q, want 100 starting %q", len(data), data[:3], "one")
	}
	if n := ca.DirtyBlocks(); n != 0 {
		t.Fatalf("%d dirty blocks remain", n)
	}
}
