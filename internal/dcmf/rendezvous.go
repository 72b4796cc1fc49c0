package dcmf

import (
	"encoding/binary"

	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/sim"
	"bgcnk/internal/torus"
)

// Rendezvous protocol: RTS (request-to-send) carries tag and size; the
// receiver pins its buffer and answers with CTS packets carrying the
// destination physical ranges; the sender direct-puts the data and sends
// Done. On an FWK the CTS carries many scattered 4KB ranges (possibly over
// several CTS packets), so the sender must inject one descriptor per range
// — the Fig 8 mechanism, visible at protocol level.

// ctsMaxRanges is how many (PA, Len) pairs fit in one CTS packet after the
// header: [msgid u32][idx u16][npkts u16] + n * 16 bytes.
const ctsMaxRanges = (torus.PacketBytes - 8) / 16

// rtsPayload: [msgid u32][size u64][fromRank u32]
func encodeRTS(msgid uint32, size uint64, from int) []byte {
	b := make([]byte, 16)
	binary.BigEndian.PutUint32(b[0:], msgid)
	binary.BigEndian.PutUint64(b[4:], size)
	binary.BigEndian.PutUint32(b[12:], uint32(from))
	return b
}

func encodeCTS(msgid uint32, idx, npkts int, ranges []torus.PhysRange) []byte {
	b := make([]byte, 8+16*len(ranges))
	binary.BigEndian.PutUint32(b[0:], msgid)
	binary.BigEndian.PutUint16(b[4:], uint16(idx))
	binary.BigEndian.PutUint16(b[6:], uint16(npkts))
	for i, r := range ranges {
		binary.BigEndian.PutUint64(b[8+16*i:], uint64(r.PA))
		binary.BigEndian.PutUint64(b[16+16*i:], r.Len)
	}
	return b
}

func decodeCTS(b []byte) (msgid uint32, idx, npkts int, ranges []torus.PhysRange) {
	msgid = binary.BigEndian.Uint32(b[0:])
	idx = int(binary.BigEndian.Uint16(b[4:]))
	npkts = int(binary.BigEndian.Uint16(b[6:]))
	for off := 8; off+16 <= len(b); off += 16 {
		ranges = append(ranges, torus.PhysRange{
			PA:  hw.PAddr(binary.BigEndian.Uint64(b[off:])),
			Len: binary.BigEndian.Uint64(b[off+8:]),
		})
	}
	return
}

// SendRendezvous transmits size bytes from localVA to rank dst under tag,
// blocking until the target has the data (Done handshake).
func (d *Device) SendRendezvous(ctx kernel.Context, dst int, tag uint32, localVA hw.VAddr, size uint64) kernel.Errno {
	local, errno := ctx.VtoP(localVA, size)
	if errno != kernel.OK {
		return errno
	}
	ctx.Compute(swRTS)
	d.nextMsgID++
	msgid := d.nextMsgID
	dstCoord := d.CoordOf(dst)
	d.Ifc.SendPacket(dstCoord, tag, kRTS, encodeRTS(msgid, size, d.Rank))

	// Collect CTS packet(s) with the destination ranges.
	c := coro(ctx)
	var ranges []torus.PhysRange
	npkts := 1
	for got := 0; got < npkts; got++ {
		p, rerr := d.Ifc.RecvMatchErr(c, func(p torus.Packet) bool {
			return p.Kind == kCTS && binary.BigEndian.Uint32(p.Payload[0:]) == msgid
		})
		if rerr != nil {
			return kernel.EIO
		}
		ctx.Compute(350)
		_, _, n, rs := decodeCTS(p.Payload)
		npkts = n
		ranges = append(ranges, rs...)
	}

	src := make([]torus.PhysRange, len(local))
	for i, r := range local {
		src[i] = torus.PhysRange{PA: r.PA, Len: r.Len}
	}
	done := false
	var derr error
	d.Ifc.Put(dstCoord, src, ranges, func(err error) {
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
	// Completion notification to the receiver.
	db := make([]byte, 4)
	binary.BigEndian.PutUint32(db, msgid)
	d.Ifc.SendPacket(dstCoord, tag, kDone, db)
	return kernel.OK
}

// RecvRendezvous blocks for a rendezvous message with the given tag,
// landing it in [bufVA, bufVA+max). Returns the received size and sender.
func (d *Device) RecvRendezvous(ctx kernel.Context, tag uint32, bufVA hw.VAddr, max uint64) (uint64, int, kernel.Errno) {
	c := coro(ctx)
	rts, rerr := d.Ifc.RecvMatchErr(c, func(p torus.Packet) bool {
		return p.Kind == kRTS && p.Tag == tag
	})
	if rerr != nil {
		return 0, -1, kernel.EIO
	}
	ctx.Compute(swRTS)
	msgid := binary.BigEndian.Uint32(rts.Payload[0:])
	size := binary.BigEndian.Uint64(rts.Payload[4:])
	from := int(binary.BigEndian.Uint32(rts.Payload[12:]))
	if size > max {
		return 0, from, kernel.EOVERFLOW
	}
	// Pin the receive buffer and ship its ranges back. An FWK's scatter
	// list may need several CTS packets.
	prs, errno := ctx.VtoP(bufVA, size)
	if errno != kernel.OK {
		return 0, from, errno
	}
	ranges := make([]torus.PhysRange, len(prs))
	for i, r := range prs {
		ranges[i] = torus.PhysRange{PA: r.PA, Len: r.Len}
	}
	npkts := (len(ranges) + ctsMaxRanges - 1) / ctsMaxRanges
	src := rts.From
	for i := 0; i < npkts; i++ {
		lo := i * ctsMaxRanges
		hi := lo + ctsMaxRanges
		if hi > len(ranges) {
			hi = len(ranges)
		}
		ctx.Compute(300)
		d.Ifc.SendPacket(src, tag, kCTS, encodeCTS(msgid, i, npkts, ranges[lo:hi]))
	}
	// Wait for the completion notification.
	if _, rerr := d.Ifc.RecvMatchErr(c, func(p torus.Packet) bool {
		return p.Kind == kDone && binary.BigEndian.Uint32(p.Payload[0:]) == msgid
	}); rerr != nil {
		return 0, from, kernel.EIO
	}
	ctx.Compute(500)
	return size, from, kernel.OK
}
