package sim

// eventQueue holds the engine's pending events as a binary min-heap
// ordered by (at, seq): events pop in time order and, within a cycle, in
// the order they were scheduled — the FIFO-within-a-cycle contract every
// simulation above relies on. The workloads keep a few dozen events
// pending, where a heap of pointers is as shallow as any bucketed queue
// and touches far less memory; the sifts are written out so that no
// comparison goes through an interface call.
type eventQueue []*event

// before reports whether a pops ahead of b.
func before(a, b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// push adds ev, sifting it up from the bottom of the heap.
func (q *eventQueue) push(ev *event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !before(ev, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	*q = h
}

// pop removes and returns the earliest event. The queue must not be
// empty.
func (q *eventQueue) pop() *event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	if n > 0 {
		// Sift the last event down from the root.
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && before(h[r], h[c]) {
				c = r
			}
			if !before(h[c], last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	*q = h
	return top
}
