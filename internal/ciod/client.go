package ciod

import (
	"bgcnk/internal/collective"
	"bgcnk/internal/fs"
	"bgcnk/internal/ion"
	"bgcnk/internal/kernel"
	"bgcnk/internal/obs"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// costMarshal is the CN-side cost of marshalling a request and posting it
// to the collective-network send FIFO. Kept small: "the amount of code
// required in CNK to implement the offload is minimal" (Section IV-A).
const costMarshal = sim.Cycles(300)

// RetryPolicy bounds how long a function-shipped call waits for its reply
// and how persistently it resends. The zero value is the legacy blocking
// protocol: wait forever, never resend — which schedules no timer events,
// so fault-free runs are unchanged to the cycle.
type RetryPolicy struct {
	// Timeout is the per-attempt reply deadline; 0 waits forever.
	Timeout sim.Cycles
	// MaxRetries is how many resends follow the first attempt.
	MaxRetries int
	// Backoff is the delay before the first resend, doubling per retry.
	Backoff sim.Cycles
}

// DefaultRetryPolicy covers a CIOD crash+restart: five attempts whose
// window comfortably exceeds the default daemon respawn delay.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Timeout: 60_000, MaxRetries: 4, Backoff: 4_000}
}

// Client ships requests from a compute node to CIOD over the collective
// network and blocks the calling coroutine for the round trip. CNK does
// not yield the core during a shipped call (paper Section VI-C), so the
// wait is a simple park of the calling thread, not a reschedule.
type Client struct {
	ep      *collective.Endpoint
	nextTag uint32
	upc     *upc.Set
	policy  RetryPolicy
	faults  *ras.NodeFaults
	ion     *ion.Node
	obs     *obs.Recorder
	node    int
}

// AttachObs wires the machine-wide span recorder: each shipped call
// emits one io span covering ship→execute→reply, and an ION
// ingress-credit wait emits a stall span. node is this client's compute
// node ID (the span's pid).
func (cl *Client) AttachObs(r *obs.Recorder, node int) {
	cl.obs = r
	cl.node = node
}

// NewClient wraps a compute node's tree endpoint.
func NewClient(ep *collective.Endpoint) *Client {
	return &Client{ep: ep}
}

// AttachUPC routes the function-ship round-trip counter to the compute
// node's UPC unit. Counting here (not in the kernel's ship path) covers
// every caller — shipIO and mmap copy-in alike — exactly once.
func (cl *Client) AttachUPC(u *upc.Set) { cl.upc = u }

// SetRetryPolicy arms function-ship timeouts and bounded retries.
func (cl *Client) SetRetryPolicy(p RetryPolicy) { cl.policy = p }

// AttachFaults routes the client's give-up events (retries exhausted,
// EIO surfaced) to the machine's RAS log.
func (cl *Client) AttachFaults(f *ras.NodeFaults) { cl.faults = f }

// AttachION names the I/O node this client's calls enter (nil:
// unarmed): every attempt first acquires an ingress credit from it —
// stalling, with the stall cycles on this chip's UPC unit, when the
// fan-in is saturated. The serving daemon releases the credit when it
// disposes of the message.
func (cl *Client) AttachION(n *ion.Node) { cl.ion = n }

// Call implements Transport. With a retry policy armed, each attempt uses
// a fresh tag (so a late reply to an abandoned attempt can never be
// mistaken for the current one; stale replies simply age in the inbox),
// resends back off exponentially, and exhaustion surfaces EIO — the errno
// the application would see from a dead I/O path on the real machine.
func (cl *Client) Call(c *sim.Coro, req *Request) *Reply {
	cl.upc.Inc(upc.ChipScope, upc.FunctionShip)
	if cl.obs != nil {
		start := c.Now()
		defer func() {
			cl.obs.Emit(obs.CatIO, OpName(req.Op), cl.node, int(req.PID), start, c.Now(), uint64(req.Op))
		}()
	}
	c.Sleep(costMarshal)
	data := MarshalRequest(req)
	attempts := 1
	if cl.policy.Timeout > 0 {
		attempts += cl.policy.MaxRetries
	}
	for a := 0; a < attempts; a++ {
		if a > 0 {
			cl.upc.Inc(upc.ChipScope, upc.CIODRetry)
			c.Sleep(cl.policy.Backoff << (a - 1))
		}
		cl.nextTag++
		tag := cl.nextTag
		creditStart := c.Now()
		cl.ion.Acquire(c, cl.ep.ID(), cl.upc)
		if waited := c.Now(); waited > creditStart {
			cl.obs.Emit(obs.CatStall, "ion:credit", cl.node, int(req.PID), creditStart, waited, 0)
		}
		cl.ep.Send(-1, tag, data)
		timeout := sim.Forever
		if cl.policy.Timeout > 0 {
			timeout = cl.policy.Timeout
		}
		msg, ok := cl.ep.RecvTagTimeout(c, tag, timeout)
		if !ok {
			cl.upc.Inc(upc.ChipScope, upc.CIODTimeout)
			continue
		}
		rep, err := UnmarshalReply(msg.Data)
		if err != nil {
			// A truncated reply is indistinguishable from a lost one at
			// this layer: resend if the policy allows.
			if cl.policy.Timeout > 0 {
				cl.upc.Inc(upc.ChipScope, upc.CIODTimeout)
				continue
			}
			return &Reply{Errno: kernel.EIO}
		}
		return rep
	}
	cl.faults.Report(ras.CIODGiveUp, "ciod-client", OpName(req.Op)+" retries exhausted, surfacing EIO")
	return &Reply{Errno: kernel.EIO}
}

// Loopback is a Transport that executes against a local filesystem with a
// fixed modelled delay, for unit-testing the CN kernel without standing up
// an I/O node. Semantics match the Server exactly (same execute path).
type Loopback struct {
	srv   *Server
	Delay sim.Cycles
}

// NewLoopback builds a loopback transport over f.
func NewLoopback(eng *sim.Engine, f *fs.FS) *Loopback {
	// A server without a dispatcher: we reuse only its execute logic.
	s := &Server{eng: eng, fs: f, prox: make(map[proxyKey]*ioproxy)}
	return &Loopback{srv: s, Delay: costMarshal + costDispatch + costExecute}
}

// Call implements Transport.
func (l *Loopback) Call(c *sim.Coro, req *Request) *Reply {
	c.Sleep(l.Delay)
	key := proxyKey{node: 0, pid: req.PID}
	switch req.Op {
	case OpProcStart:
		l.srv.prox[key] = l.srv.newProxy(req.PID, req.UID, req.GID)
		return &Reply{}
	case OpProcExit:
		delete(l.srv.prox, key)
		return &Reply{}
	}
	p, ok := l.srv.prox[key]
	if !ok {
		return &Reply{Errno: kernel.ESRCH}
	}
	l.srv.Calls++
	return l.srv.execute(c, p, req)
}
