// Package dcmf models the Deep Computing Messaging Framework and the
// layers above it (MPI-lite, ARMCI). The paper's Section V-C point is that
// DCMF's latencies (Table I) and bandwidth (Fig 8) "came effectively for
// free with CNK's design": user-space access to the messaging hardware, a
// user-readable virtual-to-physical map, and large physically contiguous
// buffers. All three appear here as structural properties: every operation
// resolves buffers through kernel.Context.VtoP, so running on an FWK
// automatically pays pinning syscalls and per-page scatter descriptors.
package dcmf

import (
	"encoding/binary"
	"fmt"

	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/sim"
	"bgcnk/internal/torus"
)

// Software overheads (cycles), calibrated against Table I.
const (
	swSendEager = 550 // eager injection path
	swRecvEager = 480 // eager receive handler
	swPut       = 300 // one-sided put initiation
	swGet       = 650 // get initiation + remote fetch-engine processing
	swRTS       = 900 // rendezvous control handling (each side)
	mpiSendOver = 360 // MPI matching, sender side
	mpiRecvOver = 320 // MPI matching, receiver side
)

// EagerMax is the eager/rendezvous crossover (bytes).
const EagerMax = 1200

// Packet kinds.
const (
	kEager uint8 = iota + 1
	kRTS
	kCTS
	kDone
	kAck
)

// Device is one node's DCMF endpoint.
type Device struct {
	Ifc     *torus.Interface
	Rank    int
	CoordOf func(rank int) torus.Coord

	nextMsgID uint32
}

// NewDevice wraps a torus interface for the given rank.
func NewDevice(ifc *torus.Interface, rank int, coordOf func(int) torus.Coord) *Device {
	return &Device{Ifc: ifc, Rank: rank, CoordOf: coordOf}
}

// coro extracts the simulation coroutine from a Context (every kernel's
// thread exposes it; user-level libraries need it for blocking waits, the
// moral equivalent of the DCMF advance loop).
func coro(ctx kernel.Context) *sim.Coro {
	return ctx.(interface{ Coro() *sim.Coro }).Coro()
}

// MemRegion is a registered (pinned, physically resolved) buffer that a
// peer can target with one-sided operations. Under CNK registration is a
// free static-map query yielding one range; under an FWK it is a pinning
// syscall yielding a scatter list.
type MemRegion struct {
	Rank   int
	VA     hw.VAddr
	Size   uint64
	Ranges []torus.PhysRange
}

// Register resolves [va, va+size) for one-sided access.
func (d *Device) Register(ctx kernel.Context, va hw.VAddr, size uint64) (MemRegion, kernel.Errno) {
	prs, errno := ctx.VtoP(va, size)
	if errno != kernel.OK {
		return MemRegion{}, errno
	}
	ranges := make([]torus.PhysRange, len(prs))
	for i, r := range prs {
		ranges[i] = torus.PhysRange{PA: r.PA, Len: r.Len}
	}
	return MemRegion{Rank: d.Rank, VA: va, Size: size, Ranges: ranges}, kernel.OK
}

// subRanges carves [off, off+size) out of a range list.
func subRanges(ranges []torus.PhysRange, off, size uint64) []torus.PhysRange {
	var out []torus.PhysRange
	for _, r := range ranges {
		if size == 0 {
			break
		}
		if off >= r.Len {
			off -= r.Len
			continue
		}
		n := r.Len - off
		if n > size {
			n = size
		}
		out = append(out, torus.PhysRange{PA: r.PA + hw.PAddr(off), Len: n})
		size -= n
		off = 0
	}
	if size != 0 {
		panic(fmt.Sprintf("dcmf: subRanges overruns region by %d", size))
	}
	return out
}

// Put writes size bytes from the local buffer at localVA into the remote
// region at remoteOff, blocking until the data is visible at the target
// (measured as the DMA reception counter firing, which is how the Table I
// put latency is defined).
func (d *Device) Put(ctx kernel.Context, remote MemRegion, remoteOff uint64, localVA hw.VAddr, size uint64) kernel.Errno {
	local, errno := ctx.VtoP(localVA, size)
	if errno != kernel.OK {
		return errno
	}
	ctx.Compute(swPut)
	src := make([]torus.PhysRange, len(local))
	for i, r := range local {
		src[i] = torus.PhysRange{PA: r.PA, Len: r.Len}
	}
	dst := subRanges(remote.Ranges, remoteOff, size)
	c := coro(ctx)
	done := false
	var derr error
	d.Ifc.Put(d.CoordOf(remote.Rank), src, dst, func(err error) {
		done = true
		derr = err
		c.Wake()
	})
	for !done {
		c.Park(sim.Forever)
	}
	if derr != nil {
		return kernel.EIO
	}
	return kernel.OK
}

// Get fetches size bytes from the remote region at remoteOff into the
// local buffer, blocking until the data has landed locally.
func (d *Device) Get(ctx kernel.Context, remote MemRegion, remoteOff uint64, localVA hw.VAddr, size uint64) kernel.Errno {
	local, errno := ctx.VtoP(localVA, size)
	if errno != kernel.OK {
		return errno
	}
	ctx.Compute(swGet)
	dst := make([]torus.PhysRange, len(local))
	for i, r := range local {
		dst[i] = torus.PhysRange{PA: r.PA, Len: r.Len}
	}
	src := subRanges(remote.Ranges, remoteOff, size)
	c := coro(ctx)
	done := false
	var derr error
	d.Ifc.Get(d.CoordOf(remote.Rank), src, dst, func(err error) {
		done = true
		derr = err
		c.Wake()
	})
	for !done {
		c.Park(sim.Forever)
	}
	if derr != nil {
		return kernel.EIO
	}
	return kernel.OK
}

// --- eager active messages ---

// eager packet payload: [msgid u32][seq u16][total u16][fromRank u32][data...]
const eagerHdr = 4 + 2 + 2 + 4

// Send transmits data to rank dst with the given tag using the eager
// protocol (data ≤ EagerMax). Non-blocking after injection.
func (d *Device) Send(ctx kernel.Context, dst int, tag uint32, data []byte) kernel.Errno {
	if len(data) > EagerMax {
		return kernel.EINVAL
	}
	ctx.Compute(swSendEager)
	d.nextMsgID++
	msgid := d.nextMsgID
	maxData := torus.PacketBytes - eagerHdr
	total := (len(data) + maxData - 1) / maxData
	if total == 0 {
		total = 1
	}
	for seq := 0; seq < total; seq++ {
		lo := seq * maxData
		hi := lo + maxData
		if hi > len(data) {
			hi = len(data)
		}
		hdr := make([]byte, eagerHdr, eagerHdr+(hi-lo))
		binary.BigEndian.PutUint32(hdr[0:], msgid)
		binary.BigEndian.PutUint16(hdr[4:], uint16(seq))
		binary.BigEndian.PutUint16(hdr[6:], uint16(total))
		binary.BigEndian.PutUint32(hdr[8:], uint32(d.Rank))
		ctx.Compute(40) // per-packet injection descriptor
		d.Ifc.SendPacket(d.CoordOf(dst), tag, kEager, append(hdr, data[lo:hi]...))
	}
	return kernel.OK
}

// Recv blocks until an eager message with the given tag arrives, returning
// its payload and source rank (nil for an empty message). Multi-packet
// messages are reassembled; a one-packet message is returned in place,
// since Send builds each packet's payload for that packet alone.
func (d *Device) Recv(ctx kernel.Context, tag uint32) ([]byte, int, kernel.Errno) {
	c := coro(ctx)
	first, rerr := d.Ifc.RecvMatchErr(c, func(p torus.Packet) bool {
		return p.Kind == kEager && p.Tag == tag
	})
	if rerr != nil {
		return nil, -1, kernel.EIO
	}
	ctx.Compute(swRecvEager)
	msgid := binary.BigEndian.Uint32(first.Payload[0:])
	total := int(binary.BigEndian.Uint16(first.Payload[6:]))
	from := int(binary.BigEndian.Uint32(first.Payload[8:]))
	if total == 1 {
		if data := first.Payload[eagerHdr:]; len(data) > 0 {
			return data, from, kernel.OK
		}
		return nil, from, kernel.OK
	}
	parts := make([][]byte, total)
	store := func(p torus.Packet) {
		seq := int(binary.BigEndian.Uint16(p.Payload[4:]))
		parts[seq] = p.Payload[eagerHdr:]
	}
	store(first)
	for got := 1; got < total; got++ {
		p, rerr := d.Ifc.RecvMatchErr(c, func(p torus.Packet) bool {
			return p.Kind == kEager && p.Tag == tag &&
				binary.BigEndian.Uint32(p.Payload[0:]) == msgid
		})
		if rerr != nil {
			return nil, from, kernel.EIO
		}
		ctx.Compute(60) // per-packet receive handling
		store(p)
	}
	var data []byte
	for _, part := range parts {
		data = append(data, part...)
	}
	return data, from, kernel.OK
}
