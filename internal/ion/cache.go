package ion

import (
	"sort"

	"bgcnk/internal/fs"
	"bgcnk/internal/kernel"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// BlockSize is the buffer cache's block granularity.
const BlockSize = 4096

// I/O-node block-layer costs, charged to the serving ioproxy coroutine.
// A fill or writeback touches the ION's "disk" (the backing fs); merged
// writebacks pay one base cost plus a small per-extra-block cost — the
// coalescing win the real ION gets from its elevator.
const (
	costFill          = sim.Cycles(1500) // read one block into the cache
	costWriteback     = sim.Cycles(1500) // write one dirty run's first block
	costWritebackNext = sim.Cycles(300)  // each further block in a merged run
)

type blockKey struct {
	ino uint64
	idx uint64 // block index within the file
}

type block struct {
	key   blockKey
	data  []byte // always BlockSize long
	dirty bool
	// LRU list links; head is most recently used.
	prev, next *block
}

// Cache is the I/O node's write-back buffer cache: fixed capacity,
// dirty-block tracking, LRU eviction. It sits below the VFS layer —
// permission checks happened when the ioproxy opened the file — and
// addresses the backing fs by inode. All traffic to cached files must
// flow through the cache (the machine wires it that way); mixing direct
// fs writes with cached ones on the same live inode is undefined, just
// as bypassing the Linux page cache is.
type Cache struct {
	fsys *fs.FS
	cap  int
	ctr  *upc.Set // shared with the owning Node

	blocks     map[blockKey]*block
	head, tail *block
	// sizes tracks each touched file's effective size: the fs size at
	// first touch, extended by cached writes, reset by truncate. Reads,
	// O_APPEND positioning and fstat all see this size — POSIX semantics
	// over unflushed data.
	sizes map[uint64]uint64
}

// NewCache builds a cache of capBlocks blocks over fsys. A standalone
// cache counts into its own set; NewNode repoints ctr at the node's.
func NewCache(fsys *fs.FS, capBlocks int) *Cache {
	if capBlocks <= 0 {
		capBlocks = DefaultCacheBlocks
	}
	return &Cache{fsys: fsys, cap: capBlocks, ctr: &upc.Set{},
		blocks: make(map[blockKey]*block), sizes: make(map[uint64]uint64)}
}

// Size returns the file's effective size: the backing size overlaid with
// every cached write.
func (ca *Cache) Size(ino uint64) uint64 {
	if v, ok := ca.sizes[ino]; ok {
		return v
	}
	v, errno := ca.fsys.InodeSize(ino)
	if errno != kernel.OK {
		panic("ion: cache touched unknown inode")
	}
	ca.sizes[ino] = v
	return v
}

// Read returns up to count bytes at off, overlaying dirty blocks on fs
// content; short at the effective EOF. Block fills charge costFill to co.
func (ca *Cache) Read(co *sim.Coro, ino, off uint64, count int) []byte {
	sz := ca.Size(ino)
	if off >= sz || count <= 0 {
		return nil
	}
	if off+uint64(count) > sz {
		count = int(sz - off)
	}
	out := make([]byte, 0, count)
	for count > 0 {
		b := ca.touch(co, ino, off/BlockSize)
		bo := off % BlockSize
		n := BlockSize - int(bo)
		if n > count {
			n = count
		}
		out = append(out, b.data[bo:int(bo)+n]...)
		off += uint64(n)
		count -= n
	}
	return out
}

// Write stores data at off dirty in the cache, extending the effective
// size; nothing reaches the fs until eviction or an explicit flush.
func (ca *Cache) Write(co *sim.Coro, ino, off uint64, data []byte) {
	ca.Size(ino) // ensure the size entry exists before extending it
	for len(data) > 0 {
		b := ca.touch(co, ino, off/BlockSize)
		bo := off % BlockSize
		n := copy(b.data[bo:], data)
		b.dirty = true
		off += uint64(n)
		data = data[n:]
		// Extend the effective size as bytes land, not after the loop: a
		// capacity eviction inside touch writes back against this size.
		if off > ca.sizes[ino] {
			ca.sizes[ino] = off
		}
	}
}

// Truncate sets the file to size with write-through metadata: blocks
// wholly beyond the new size are discarded (dirty or not — their content
// must never resurface), a straddling block has its tail zeroed, and the
// backing fs is resized immediately.
func (ca *Cache) Truncate(co *sim.Coro, ino, size uint64) {
	ca.Size(ino)
	for _, key := range ca.inoBlocks(ino) {
		start := key.idx * BlockSize
		b := ca.blocks[key]
		switch {
		case start >= size:
			ca.unlink(b)
			delete(ca.blocks, key)
		case start+BlockSize > size:
			zero(b.data[size-start:])
		}
	}
	if errno := ca.fsys.TruncateInode(ino, size); errno != kernel.OK {
		panic("ion: truncate of unknown inode")
	}
	ca.sizes[ino] = size
}

// Flush writes the file's dirty blocks back to the fs, merging adjacent
// blocks into single contiguous writes (the request coalescer's second
// half: per-request merging happens in the daemon's batch path, and the
// writeback path merges whatever adjacency is left). Costs are charged
// to co; a nil co flushes for free (barrier quiesce, service-side).
func (ca *Cache) Flush(co *sim.Coro, ino uint64) {
	keys := ca.inoBlocks(ino)
	dirty := keys[:0]
	for _, k := range keys {
		if ca.blocks[k].dirty {
			dirty = append(dirty, k)
		}
	}
	if len(dirty) == 0 {
		return
	}
	sz := ca.Size(ino)
	run := []blockKey{dirty[0]}
	emit := func() {
		ca.writeRun(co, run, sz)
		if len(run) > 1 {
			ca.ctr.Add(upc.ChipScope, upc.IONCoalesce, uint64(len(run)-1))
		}
	}
	for _, k := range dirty[1:] {
		if k.idx == run[len(run)-1].idx+1 {
			run = append(run, k)
			continue
		}
		emit()
		run = []blockKey{k}
	}
	emit()
	ca.ctr.Inc(upc.ChipScope, upc.IONFlush)
}

// writeRun writes one contiguous dirty run (trimmed to the effective
// size) back in a single fs write and marks the blocks clean.
func (ca *Cache) writeRun(co *sim.Coro, run []blockKey, sz uint64) {
	start := run[0].idx * BlockSize
	end := (run[len(run)-1].idx + 1) * BlockSize
	if end > sz {
		end = sz
	}
	if start < end {
		buf := make([]byte, 0, end-start)
		for _, k := range run {
			b := ca.blocks[k]
			bs := k.idx * BlockSize
			be := bs + BlockSize
			if be > end {
				be = end
			}
			buf = append(buf, b.data[:be-bs]...)
		}
		if errno := ca.fsys.WriteInode(run[0].ino, start, buf); errno != kernel.OK {
			panic("ion: writeback to unknown inode")
		}
	}
	for _, k := range run {
		ca.blocks[k].dirty = false
	}
	ca.ctr.Add(upc.ChipScope, upc.IONWriteback, uint64(len(run)))
	if co != nil {
		co.Sleep(costWriteback + sim.Cycles(len(run)-1)*costWritebackNext)
	}
}

// FlushAll flushes every file with dirty blocks, in inode order. The
// barrier-quiesce path uses this (co nil) so checkpoints stay durable
// through the cache.
func (ca *Cache) FlushAll(co *sim.Coro) {
	seen := map[uint64]bool{}
	var inos []uint64
	for k, b := range ca.blocks {
		if b.dirty && !seen[k.ino] {
			seen[k.ino] = true
			inos = append(inos, k.ino)
		}
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	for _, ino := range inos {
		ca.Flush(co, ino)
	}
}

// DirtyBlocks reports how many blocks are currently dirty (for tests).
func (ca *Cache) DirtyBlocks() int {
	n := 0
	for _, b := range ca.blocks {
		if b.dirty {
			n++
		}
	}
	return n
}

// Clear drops every block — dirty ones included — and all size overlays.
// An ION crash loses unflushed data; that is the point of the flush
// triggers.
func (ca *Cache) Clear() {
	ca.blocks = make(map[blockKey]*block)
	ca.sizes = make(map[uint64]uint64)
	ca.head, ca.tail = nil, nil
}

// touch returns the block, filling it from the fs on a miss and evicting
// LRU (with writeback if dirty) past capacity.
func (ca *Cache) touch(co *sim.Coro, ino, idx uint64) *block {
	key := blockKey{ino: ino, idx: idx}
	if b, ok := ca.blocks[key]; ok {
		ca.ctr.Inc(upc.ChipScope, upc.IONCacheHit)
		ca.unlink(b)
		ca.pushFront(b)
		return b
	}
	ca.ctr.Inc(upc.ChipScope, upc.IONCacheMiss)
	data, errno := ca.fsys.ReadInode(ino, idx*BlockSize, BlockSize)
	if errno != kernel.OK {
		panic("ion: fill from unknown inode")
	}
	b := &block{key: key, data: append(data, make([]byte, BlockSize-len(data))...)}
	if co != nil {
		co.Sleep(costFill)
	}
	ca.blocks[key] = b
	ca.pushFront(b)
	for len(ca.blocks) > ca.cap {
		ca.evict(co)
	}
	return b
}

// evict drops the LRU block, writing it back first if dirty.
func (ca *Cache) evict(co *sim.Coro) {
	v := ca.tail
	if v == nil {
		return
	}
	if v.dirty {
		ca.writeRun(co, []blockKey{v.key}, ca.Size(v.key.ino))
	}
	ca.unlink(v)
	delete(ca.blocks, v.key)
}

// inoBlocks returns the file's cached block keys in ascending index
// order (map iteration sorted out of simulated time's way).
func (ca *Cache) inoBlocks(ino uint64) []blockKey {
	var keys []blockKey
	for k := range ca.blocks {
		if k.ino == ino {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].idx < keys[j].idx })
	return keys
}

func (ca *Cache) pushFront(b *block) {
	b.prev = nil
	b.next = ca.head
	if ca.head != nil {
		ca.head.prev = b
	}
	ca.head = b
	if ca.tail == nil {
		ca.tail = b
	}
}

func (ca *Cache) unlink(b *block) {
	if b.prev != nil {
		b.prev.next = b.next
	} else if ca.head == b {
		ca.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else if ca.tail == b {
		ca.tail = b.prev
	}
	b.prev, b.next = nil, nil
}

func zero(p []byte) {
	for i := range p {
		p[i] = 0
	}
}
