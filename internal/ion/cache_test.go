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
