package dcmf

import (
	"encoding/binary"
	"math"

	"bgcnk/internal/barrier"
	"bgcnk/internal/collective"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/torus"
)

// Comm is an MPI-like communicator: a rank in a job, message matching on
// top of DCMF, the eager/rendezvous crossover, a double-sum allreduce
// (Phloem's mpiBench_Allreduce shape), and a barrier mapped onto the
// global barrier network.
type Comm struct {
	Dev  *Device
	Size int

	// Bar is the global barrier network.
	Bar *barrier.Network

	// Comb is the collective network's combining-tree route (nil =
	// software recursive doubling). CNK exposes it to user space; the
	// FWK path cannot (no user-space collective-device access), which is
	// part of why its allreduce is slower and noisier.
	Comb *collective.Combine

	// Tag spaces: user tags live below collectiveBase.
	nextCollTag uint32
}

const collectiveBase = 1 << 24

// NewComm builds a communicator of the given size over dev.
func NewComm(dev *Device, size int, bar *barrier.Network) *Comm {
	return &Comm{Dev: dev, Size: size, Bar: bar, nextCollTag: collectiveBase}
}

// Rank returns this process's rank.
func (c *Comm) Rank() int { return c.Dev.Rank }

// Send transmits a byte message: eager below the crossover, rendezvous
// above (the data must then live in simulated memory at va).
func (c *Comm) Send(ctx kernel.Context, to int, tag uint32, data []byte) kernel.Errno {
	ctx.Compute(mpiSendOver)
	return c.Dev.Send(ctx, to, tag, data)
}

// Recv blocks for a message with the given tag.
func (c *Comm) Recv(ctx kernel.Context, tag uint32) ([]byte, int, kernel.Errno) {
	data, from, errno := c.Dev.Recv(ctx, tag)
	if errno == kernel.OK {
		ctx.Compute(mpiRecvOver)
	}
	return data, from, errno
}

// SendBuf transmits size bytes from simulated memory (rendezvous when
// above the eager crossover).
func (c *Comm) SendBuf(ctx kernel.Context, to int, tag uint32, va hw.VAddr, size uint64) kernel.Errno {
	ctx.Compute(mpiSendOver)
	if size <= EagerMax {
		buf := make([]byte, size)
		if errno := ctx.Load(va, buf); errno != kernel.OK {
			return errno
		}
		return c.Dev.Send(ctx, to, tag, buf)
	}
	return c.Dev.SendRendezvous(ctx, to, tag, va, size)
}

// RecvBuf receives into simulated memory. The protocol is the sender's
// choice; the matching engine blocks for whichever first packet (eager
// data or RTS) carries the tag, then commits to that path.
func (c *Comm) RecvBuf(ctx kernel.Context, tag uint32, va hw.VAddr, max uint64) (uint64, int, kernel.Errno) {
	first, rerr := c.Dev.Ifc.RecvMatchErr(coro(ctx), func(p torus.Packet) bool {
		return (p.Kind == kEager || p.Kind == kRTS) && p.Tag == tag
	})
	if rerr != nil {
		return 0, -1, kernel.EIO
	}
	c.Dev.Ifc.Requeue(first)
	if first.Kind == kEager {
		data, from, errno := c.Dev.Recv(ctx, tag)
		if errno != kernel.OK {
			return 0, from, errno
		}
		if uint64(len(data)) > max {
			return 0, from, kernel.EOVERFLOW
		}
		ctx.Compute(mpiRecvOver)
		return uint64(len(data)), from, ctx.Store(va, data)
	}
	n, from, errno := c.Dev.RecvRendezvous(ctx, tag, va, max)
	if errno == kernel.OK {
		ctx.Compute(mpiRecvOver)
	}
	return n, from, errno
}

// Allreduce computes the double-precision sum of x across all ranks using
// recursive doubling (log2(size) exchange rounds). Size must be a power of
// two. The returned tag space is internal; collective calls must be made
// by all ranks in the same order.
func (c *Comm) Allreduce(ctx kernel.Context, x float64) (float64, kernel.Errno) {
	if c.Comb != nil {
		ctx.Compute(160) // collective-device injection
		v, err := c.Comb.AllreduceErr(coro(ctx), c.Rank(), x)
		if err != nil {
			return 0, kernel.EIO
		}
		return v, kernel.OK
	}
	c.nextCollTag += 256 // disjoint tag block per collective call
	tag := c.nextCollTag
	sum := x
	rank := c.Rank()
	round := uint32(0)
	for step := 1; step < c.Size; step <<= 1 {
		round++
		partner := rank ^ step
		buf := make([]byte, 8)
		binary.BigEndian.PutUint64(buf, math.Float64bits(sum))
		if errno := c.Dev.Send(ctx, partner, tag+round, buf); errno != kernel.OK {
			return 0, errno
		}
		data, _, errno := c.Dev.Recv(ctx, tag+round)
		if errno != kernel.OK {
			return 0, errno
		}
		sum += math.Float64frombits(binary.BigEndian.Uint64(data))
		ctx.Compute(25) // the add plus loop bookkeeping
	}
	return sum, kernel.OK
}

// Barrier synchronizes all ranks on the global barrier network, as
// MPI_Barrier does on Blue Gene.
func (c *Comm) Barrier(ctx kernel.Context) kernel.Errno {
	ctx.Compute(120) // barrier unit programming
	if err := c.Bar.EnterErr(coro(ctx), c.Rank()); err != nil {
		return kernel.EIO
	}
	return kernel.OK
}

// Bcast distributes root's value to every rank. With the combining tree
// attached it is a single hardware traversal (non-roots contribute the
// additive identity); otherwise a binomial software tree of eager sends.
func (c *Comm) Bcast(ctx kernel.Context, root int, x float64) (float64, kernel.Errno) {
	if c.Comb != nil {
		v := 0.0
		if c.Rank() == root {
			v = x
		}
		ctx.Compute(160)
		r, err := c.Comb.AllreduceErr(coro(ctx), c.Rank(), v)
		if err != nil {
			return 0, kernel.EIO
		}
		return r, kernel.OK
	}
	c.nextCollTag += 256
	tag := c.nextCollTag
	// Binomial tree rooted at root: relative ranks.
	rel := (c.Rank() - root + c.Size) % c.Size
	val := x
	if rel != 0 {
		data, _, errno := c.Dev.Recv(ctx, tag)
		if errno != kernel.OK {
			return 0, errno
		}
		val = math.Float64frombits(binary.BigEndian.Uint64(data))
	}
	for step := 1; step < c.Size; step <<= 1 {
		if rel < step {
			child := rel + step
			if child < c.Size {
				buf := make([]byte, 8)
				binary.BigEndian.PutUint64(buf, math.Float64bits(val))
				if errno := c.Dev.Send(ctx, (child+root)%c.Size, tag, buf); errno != kernel.OK {
					return 0, errno
				}
			}
		}
	}
	return val, kernel.OK
}
