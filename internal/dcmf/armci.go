package dcmf

import (
	"encoding/binary"

	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/torus"
)

// ARMCI is the one-sided Aggregate Remote Memory Copy Interface layered
// over DCMF, as the paper's Table I benchmarks it. ARMCI's blocking
// semantics are stronger than DCMF's: a blocking put completes only when
// the data is globally visible at the target AND the initiator has been
// told so (a remote fence acknowledgement), which is why its latencies sit
// above raw DCMF's (2.0 vs 0.9 µs put, 3.3 vs 1.6 µs get).
type ARMCI struct {
	Dev *Device
}

// ARMCI software-layer overheads (cycles).
const (
	armciPutOver = 250
	armciGetOver = 720
	armciAckTag  = 0xA5C1
)

// NewARMCI wraps a DCMF device.
func NewARMCI(dev *Device) *ARMCI { return &ARMCI{Dev: dev} }

// PutBlocking writes size bytes from localVA to the remote region at
// remoteOff and blocks until the target acknowledges global visibility.
// The partner must be running ServeAcks (ARMCI's data server thread).
func (a *ARMCI) PutBlocking(ctx kernel.Context, remote MemRegion, remoteOff uint64, localVA hw.VAddr, size uint64) kernel.Errno {
	ctx.Compute(armciPutOver)
	if errno := a.Dev.Put(ctx, remote, remoteOff, localVA, size); errno != kernel.OK {
		return errno
	}
	// Fence: round trip a flag packet through the target's data server.
	a.Dev.nextMsgID++
	id := a.Dev.nextMsgID
	b := make([]byte, 8)
	binary.BigEndian.PutUint32(b[0:], id)
	binary.BigEndian.PutUint32(b[4:], uint32(a.Dev.Rank))
	a.Dev.Ifc.SendPacket(a.Dev.CoordOf(remote.Rank), armciAckTag, kAck, b)
	c := coro(ctx)
	if _, rerr := a.Dev.Ifc.RecvMatchErr(c, func(p torus.Packet) bool {
		return p.Kind == kAck && p.Tag == armciAckTag+1 &&
			binary.BigEndian.Uint32(p.Payload[0:]) == id
	}); rerr != nil {
		return kernel.EIO
	}
	ctx.Compute(120)
	return kernel.OK
}

// GetBlocking fetches size bytes from the remote region into localVA. The
// DCMF get is already synchronous locally; ARMCI adds its layer costs and
// ordering checks.
func (a *ARMCI) GetBlocking(ctx kernel.Context, remote MemRegion, remoteOff uint64, localVA hw.VAddr, size uint64) kernel.Errno {
	ctx.Compute(armciGetOver)
	if errno := a.Dev.Get(ctx, remote, remoteOff, localVA, size); errno != kernel.OK {
		return errno
	}
	ctx.Compute(armciGetOver) // completion processing + ordering fence
	return kernel.OK
}

// ServeAcks answers fence requests until stop reports true. Run it on a
// spare thread of the target process (ARMCI's data server).
func (a *ARMCI) ServeAcks(ctx kernel.Context, stop func() bool) {
	c := coro(ctx)
	for !stop() {
		p, rerr := a.Dev.Ifc.RecvMatchErr(c, func(p torus.Packet) bool {
			return p.Kind == kAck && p.Tag == armciAckTag
		})
		if rerr != nil {
			return
		}
		ctx.Compute(100)
		from := int(binary.BigEndian.Uint32(p.Payload[4:]))
		reply := make([]byte, 4)
		copy(reply, p.Payload[:4])
		a.Dev.Ifc.SendPacket(a.Dev.CoordOf(from), armciAckTag+1, kAck, reply)
	}
}
