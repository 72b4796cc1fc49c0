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

// A client with a fault source bounds how long a function-shipped call
// waits for its reply and how persistently it resends: callAttempts
// attempts of callTimeout cycles each, the first resend after
// retryBackoff cycles and each further one after twice the last. The
// window comfortably exceeds the default CIOD respawn delay. A client
// without one keeps the blocking protocol: it waits forever and never
// resends, which schedules no timer events.
const (
	callTimeout  = sim.Cycles(60_000)
	callAttempts = 5
	retryBackoff = sim.Cycles(4_000)
)

// Client ships requests from a compute node to CIOD over the collective
// network and blocks the calling coroutine for the round trip. CNK does
// not yield the core during a shipped call (paper Section VI-C), so the
// wait is a simple park of the calling thread, not a reschedule.
type Client struct {
	ep      *collective.Endpoint
	nextTag uint32
	upc     *upc.Set
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

// AttachFaults arms function-ship timeouts and bounded retries, and
// routes the client's give-up events (retries exhausted, EIO surfaced)
// to the machine's RAS log. A nil source leaves the client blocking.
func (cl *Client) AttachFaults(f *ras.NodeFaults) { cl.faults = f }

// AttachION names the I/O node this client's calls enter (nil:
// unarmed): every attempt first acquires an ingress credit from it —
// stalling, with the stall cycles on this chip's UPC unit, when the
// fan-in is saturated. The serving daemon releases the credit when it
// disposes of the message.
func (cl *Client) AttachION(n *ion.Node) { cl.ion = n }

// Call implements Transport. The request is marshalled into its wire
// buffer, which keeps room for a read's reply (replyRoom). A client
// without a fault source sends that buffer itself, once, and the reply
// comes back in it: the request gives the buffer up, and with it a
// payload Decode loaded there (see Resendable). With a fault source
// attached, each attempt travels in a copy of its own, so a resend
// carries the original bytes whatever an earlier attempt's buffer came
// to hold; each attempt uses a fresh tag (so a late reply to an
// abandoned attempt can never be mistaken for the current one; stale
// replies simply age in the inbox), resends back off exponentially, and
// exhaustion surfaces EIO — the errno the application would see from a
// dead I/O path on the real machine. The reply's Data lies in the buffer
// it came back in, which Recycle hands to the calling thread.
func (cl *Client) Call(c *sim.Coro, req *Request) Reply {
	cl.upc.Inc(upc.ChipScope, upc.FunctionShip)
	if cl.obs != nil {
		start := c.Now()
		defer func() {
			cl.obs.Emit(obs.CatIO, OpName(req.Op), cl.node, int(req.PID), start, c.Now(), uint64(req.Op))
		}()
	}
	c.Sleep(costMarshal)
	room := replyRoom(req)
	data := marshalRequest(req, room)
	attempts, timeout := 1, sim.Forever
	if cl.faults != nil {
		attempts, timeout = callAttempts, callTimeout
	} else {
		// Sent once, data itself travels: the request no longer holds it.
		if len(req.Data) > 0 && &data[len(data)-len(req.Data)] == &req.Data[0] {
			req.spent = true
		}
		req.wire = nil
	}
	for a := 0; a < attempts; a++ {
		if a > 0 {
			cl.upc.Inc(upc.ChipScope, upc.CIODRetry)
			c.Sleep(retryBackoff << (a - 1))
		}
		cl.nextTag++
		tag := cl.nextTag
		creditStart := c.Now()
		cl.ion.Acquire(c, cl.ep.ID(), cl.upc)
		if waited := c.Now(); waited > creditStart {
			cl.obs.Emit(obs.CatStall, "ion:credit", cl.node, int(req.PID), creditStart, waited, 0)
		}
		msg := data
		if cl.faults != nil {
			msg = append(make([]byte, 0, max(len(data), room)), data...)
		}
		cl.ep.Send(-1, tag, msg)
		got, ok := cl.ep.RecvTagTimeout(c, tag, timeout)
		if !ok {
			cl.upc.Inc(upc.ChipScope, upc.CIODTimeout)
			continue
		}
		rep, err := UnmarshalReply(got.Data)
		if err != nil {
			// A truncated reply is indistinguishable from a lost one at
			// this layer: resend if the client retries.
			if cl.faults != nil {
				cl.upc.Inc(upc.ChipScope, upc.CIODTimeout)
				continue
			}
			return Reply{Errno: kernel.EIO}
		}
		rep.wire = got.Data
		return rep
	}
	cl.faults.Report(ras.CIODGiveUp, "ciod-client", OpName(req.Op)+" retries exhausted, surfacing EIO")
	return Reply{Errno: kernel.EIO}
}

// Loopback is a Transport that executes against a local filesystem with a
// fixed modelled delay, for unit-testing the CN kernel without standing up
// an I/O node. Semantics match the Server exactly: both run Execute.
type Loopback struct {
	srv   *Server
	Delay sim.Cycles
}

// NewLoopback builds a loopback transport over f.
func NewLoopback(eng *sim.Engine, f *fs.FS) *Loopback {
	// A server without a dispatcher: we reuse only its proxies.
	s := &Server{eng: eng, fs: f, prox: make(map[proxyKey]*ioproxy)}
	return &Loopback{srv: s, Delay: costMarshal + costDispatch + costExecute}
}

// Call implements Transport.
func (l *Loopback) Call(c *sim.Coro, req *Request) Reply {
	c.Sleep(l.Delay)
	key := proxyKey{node: 0, pid: req.PID}
	switch req.Op {
	case OpProcStart:
		l.srv.prox[key] = l.srv.newProxy(req.PID, req.UID, req.GID)
		return Reply{}
	case OpProcExit:
		delete(l.srv.prox, key)
		return Reply{}
	}
	p, ok := l.srv.prox[key]
	if !ok {
		return Reply{Errno: kernel.ESRCH}
	}
	l.srv.Calls++
	return Execute(c, p.client, l.srv.files(p), req)
}
