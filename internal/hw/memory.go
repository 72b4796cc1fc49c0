package hw

import (
	"fmt"

	"bgcnk/internal/upc"
)

// memChunk is the sparse-allocation granule for DDR contents.
const memChunk = 64 << 10

// Memory models node DDR: a sparse byte store plus the self-refresh state
// machine used by CNK's reproducible-reset protocol (paper Section III).
// While in self-refresh, contents are preserved across a chip reset;
// otherwise a reset scrambles them (modelled as zeroing every chunk).
type Memory struct {
	size        uint64
	chunks      map[uint64][]byte
	selfRefresh bool

	// upc routes access counts to the owning chip's UPC unit; nil (count
	// nothing) for standalone Memories in unit tests.
	upc *upc.Set

	// Access statistics, reset with the chip.
	Reads  uint64
	Writes uint64
}

// NewMemory returns a zeroed DDR of the given byte size.
func NewMemory(size uint64) *Memory {
	return &Memory{size: size, chunks: make(map[uint64][]byte)}
}

// Size returns the DDR capacity in bytes.
func (m *Memory) Size() uint64 { return m.size }

func (m *Memory) check(pa PAddr, n int) {
	if uint64(pa)+uint64(n) > m.size {
		panic(fmt.Sprintf("hw: DDR access [%#x,+%d) beyond size %#x", uint64(pa), n, m.size))
	}
}

func (m *Memory) chunk(idx uint64, create bool) []byte {
	c := m.chunks[idx]
	if c == nil && create {
		c = make([]byte, memChunk)
		m.chunks[idx] = c
	}
	return c
}

// Read copies len(dst) bytes at pa into dst.
func (m *Memory) Read(pa PAddr, dst []byte) {
	m.check(pa, len(dst))
	m.Reads++
	m.upc.Inc(upc.ChipScope, upc.DDRRead)
	off := uint64(pa)
	for len(dst) > 0 {
		idx, in := off/memChunk, off%memChunk
		n := memChunk - in
		if n > uint64(len(dst)) {
			n = uint64(len(dst))
		}
		if c := m.chunk(idx, false); c != nil {
			copy(dst[:n], c[in:in+n])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		off += n
	}
}

// Write copies src into DDR at pa.
func (m *Memory) Write(pa PAddr, src []byte) {
	m.check(pa, len(src))
	m.Writes++
	m.upc.Inc(upc.ChipScope, upc.DDRWrite)
	off := uint64(pa)
	for len(src) > 0 {
		idx, in := off/memChunk, off%memChunk
		n := memChunk - in
		if n > uint64(len(src)) {
			n = uint64(len(src))
		}
		copy(m.chunk(idx, true)[in:in+n], src[:n])
		src = src[n:]
		off += n
	}
}

// ReadU64 reads a big-endian (PowerPC byte order) 64-bit word.
func (m *Memory) ReadU64(pa PAddr) uint64 {
	var b [8]byte
	m.Read(pa, b[:])
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}

// WriteU64 writes a big-endian 64-bit word.
func (m *Memory) WriteU64(pa PAddr, v uint64) {
	var b [8]byte
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
	m.Write(pa, b[:])
}

// EnterSelfRefresh puts the DDR into self-refresh: contents survive reset.
func (m *Memory) EnterSelfRefresh() { m.selfRefresh = true }

// ExitSelfRefresh returns the DDR to normal operation.
func (m *Memory) ExitSelfRefresh() { m.selfRefresh = false }

// InSelfRefresh reports whether the DDR is in self-refresh.
func (m *Memory) InSelfRefresh() bool { return m.selfRefresh }

// reset models a full chip reset: DDR in self-refresh keeps contents; DDR
// not in self-refresh loses them (the only persistent state in a BG/P chip
// is DRAM during self-refresh — paper Section III). Losing them zeroes the
// chunks in place: a zeroed chunk reads as an absent one does, and the
// next job to touch the same DDR writes into it without allocating.
func (m *Memory) reset() {
	m.Reads, m.Writes = 0, 0
	if !m.selfRefresh {
		for _, c := range m.chunks {
			clear(c)
		}
	}
}
