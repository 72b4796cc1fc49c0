// Package ion models the Blue Gene I/O node as a first-class simulated
// component. The paper's function-shipping design (Section IV-A) only
// works because one I/O node absorbs the syscall traffic of 8–128 compute
// nodes over the collective tree; this package supplies the aggregation
// machinery that makes that fan-in observable: a bounded ingress queue
// with deterministic round-robin fairness and explicit backpressure (the
// compute node stalls, and its stall cycles land in its UPC unit), and a
// write-back buffer cache with dirty-block tracking and LRU eviction (the
// ION runs Linux; its page cache is what gives CNK applications buffered
// I/O semantics). The shared uplink that carries this traffic, mux header
// included, lives in the collective package.
//
// A nil *Node is an unarmed I/O node on the same serve path: every call
// is admitted at once, nothing coalesces, there is no cache, each compute
// node keeps a private uplink, and no mux header is charged.
//
// Everything here follows the repo's determinism contract: grants rotate
// round-robin over waiting compute nodes in node order, evictions follow
// the LRU list, and flushes walk dirty blocks in (inode, block) order —
// no map iteration ever reaches simulated time.
package ion

import (
	"bgcnk/internal/fs"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// Defaults for Config's zero fields.
const (
	DefaultQueueDepth  = 16
	DefaultCacheBlocks = 128
	DefaultCoalesceMax = 8
)

// Config sizes one I/O node's aggregation machinery.
type Config struct {
	// QueueDepth is the number of ingress credits shared by every compute
	// node attached to this ION. A compute node acquires one credit per
	// function-shipped call before transmitting; when none are free it
	// stalls until the daemon retires an earlier call.
	QueueDepth int
	// CacheBlocks is the write-back buffer cache capacity in BlockSize
	// blocks.
	CacheBlocks int
	// CoalesceMax bounds how many queued same-fd writes the daemon merges
	// into one batch before touching the filesystem.
	CoalesceMax int
}

// WithDefaults fills zero fields with the defaults above.
func (c Config) WithDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.CacheBlocks <= 0 {
		c.CacheBlocks = DefaultCacheBlocks
	}
	if c.CoalesceMax <= 0 {
		c.CoalesceMax = DefaultCoalesceMax
	}
	return c
}

// Node is one I/O node's aggregation state: the ingress credit gate and
// the buffer cache. The CIOD server owns its Node and the compute-node
// clients it serves share it; nil is the unarmed node.
type Node struct {
	cfg   Config
	cache *Cache

	free      int       // ingress credits not held by an in-flight call
	waiters   []*waiter // arrival order; grants rotate round-robin by CN
	lastGrant int       // CN id granted most recently
	depth     int       // credits currently held
	maxDepth  int       // high-water mark of depth

	// ctr is the ION's own counter set (admits, coalesces, cache traffic).
	// CN-side stall counters land on the stalling chip's unit instead.
	ctr upc.Set
}

type waiter struct {
	c       *sim.Coro
	cn      int
	granted bool
}

// NewNode builds an ION over cache (which the caller constructs via
// NewCache so the fs hookup stays explicit).
func NewNode(cfg Config, cache *Cache) *Node {
	cfg = cfg.WithDefaults()
	n := &Node{cfg: cfg, cache: cache, free: cfg.QueueDepth, lastGrant: -1}
	if cache != nil {
		cache.ctr = &n.ctr
	}
	return n
}

// CoalesceMax bounds how many queued same-fd writes the daemon merges
// into one batch; 1 on the unarmed node.
func (n *Node) CoalesceMax() int {
	if n == nil {
		return 1
	}
	return n.cfg.CoalesceMax
}

// Cache returns the write-back buffer cache; nil on the unarmed node.
func (n *Node) Cache() *Cache {
	if n == nil {
		return nil
	}
	return n.cache
}

// Counters returns the ION's counter set.
func (n *Node) Counters() *upc.Set { return &n.ctr }

// Acquire blocks until an ingress credit is free, charging the stall to
// the calling compute node's UPC unit. Credits are granted round-robin
// over waiting compute nodes (ties broken by arrival order within a CN),
// so a chatty neighbour cannot starve anyone — the fairness the real
// CIOD gets from Linux scheduling its ioproxies, made deterministic. The
// unarmed node admits at once and counts nothing.
func (n *Node) Acquire(c *sim.Coro, cn int, u *upc.Set) {
	if n == nil {
		return
	}
	if n.free > 0 {
		n.free--
		n.admit()
		return
	}
	start := c.Now()
	w := &waiter{c: c, cn: cn}
	n.waiters = append(n.waiters, w)
	u.Inc(upc.ChipScope, upc.IONStall)
	for !w.granted {
		c.Park(sim.Forever)
	}
	u.Add(upc.ChipScope, upc.IONStallCycles, uint64(c.Now()-start))
	n.admit()
}

func (n *Node) admit() {
	n.depth++
	if n.depth > n.maxDepth {
		n.maxDepth = n.depth
	}
	n.ctr.Inc(upc.ChipScope, upc.IONAdmit)
}

// Release retires one in-flight call's credit. If compute nodes are
// waiting, the credit transfers directly to the next one in round-robin
// order; otherwise it returns to the free pool.
func (n *Node) Release() {
	if n == nil {
		return
	}
	if n.depth <= 0 {
		panic("ion: Release without Acquire")
	}
	n.depth--
	w := n.nextWaiter()
	if w == nil {
		n.free++
		return
	}
	n.lastGrant = w.cn
	w.granted = true
	w.c.Wake()
}

// nextWaiter pops the first-arrived waiter of the CN that follows
// lastGrant in cyclic node order; nil if nobody waits.
func (n *Node) nextWaiter() *waiter {
	if len(n.waiters) == 0 {
		return nil
	}
	// Two-pass selection: find the winning CN in cyclic order after
	// lastGrant, then that CN's earliest-arrived waiter.
	winCN := n.waiters[0].cn
	for _, w := range n.waiters[1:] {
		if rrBefore(w.cn, winCN, n.lastGrant) {
			winCN = w.cn
		}
	}
	for i, w := range n.waiters {
		if w.cn == winCN {
			n.waiters = append(n.waiters[:i], n.waiters[i+1:]...)
			return w
		}
	}
	return nil
}

// rrBefore reports whether CN a precedes CN b in the cyclic round-robin
// order that starts just after `last`.
func rrBefore(a, b, last int) bool {
	if a == b {
		return false
	}
	aw := a <= last // a wrapped: served only after the non-wrapped group
	bw := b <= last
	if aw != bw {
		return bw
	}
	return a < b
}

// Crash models the I/O node dying: the buffer cache loses everything,
// dirty blocks included — exactly the durability hole fsync/close flushes
// exist to plug. Credits are NOT reset here: every in-flight call's
// credit comes back through the CIOD server's own crash machinery (the
// EIO flush Releases each one), which keeps grant order deterministic
// through the crash.
func (n *Node) Crash() {
	if n != nil && n.cache != nil {
		n.cache.Clear()
	}
}

// Reset returns the node to its just-built state over fsys, the
// filesystem its daemon now serves: full credit pool, empty cache,
// zeroed counters. Waiting coroutines are the previous job's and are
// being torn down by the caller.
func (n *Node) Reset(fsys *fs.FS) {
	if n == nil {
		return
	}
	n.free = n.cfg.QueueDepth
	n.waiters = nil
	n.lastGrant = -1
	n.depth = 0
	n.maxDepth = 0
	n.ctr.Reset()
	if n.cache != nil {
		n.cache.fsys = fsys
		n.cache.Clear()
	}
}

// Stats is a point-in-time summary of the node's aggregation counters.
type Stats struct {
	Admitted    uint64
	Coalesced   uint64
	CacheHits   uint64
	CacheMisses uint64
	Writebacks  uint64
	Flushes     uint64
	MaxDepth    int
	Depth       int
}

// Stats summarizes the counter set.
func (n *Node) Stats() Stats {
	return Stats{
		Admitted:    n.ctr.Get(upc.ChipScope, upc.IONAdmit),
		Coalesced:   n.ctr.Get(upc.ChipScope, upc.IONCoalesce),
		CacheHits:   n.ctr.Get(upc.ChipScope, upc.IONCacheHit),
		CacheMisses: n.ctr.Get(upc.ChipScope, upc.IONCacheMiss),
		Writebacks:  n.ctr.Get(upc.ChipScope, upc.IONWriteback),
		Flushes:     n.ctr.Get(upc.ChipScope, upc.IONFlush),
		MaxDepth:    n.maxDepth,
		Depth:       n.depth,
	}
}
