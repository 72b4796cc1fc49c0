package obs

import (
	"errors"
	"fmt"

	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// Binary trace wire format, version 1. The encoding is canonical: for
// any Trace, Marshal produces exactly one byte string, and Unmarshal
// accepts exactly the strings Marshal produces (FuzzTraceCodec holds the
// codec to that: every accepted input must re-encode byte-identically).
//
//	"BGOB" | version=1 |
//	uvarint nSpans | uvarint nSamples |
//	nSpans x ( cat | uvarint len(name) | name |
//	           zigzag node | zigzag tid |
//	           zigzag(start - prevStart) | uvarint dur | uvarint arg )
//	nSamples x ( uvarint(at - prevAt)   [absolute for the first sample;
//	                                     must be nonzero afterwards]
//	             uvarint nDeltas >= 1 |
//	             nDeltas x ( uvarint counter [strictly increasing] |
//	                         zigzag value [nonzero] ) )
//
// Span starts are zigzag deltas because emission order is closing-edge
// order, which is not time-sorted. All varints must be minimally
// encoded; trailing bytes after the last sample are rejected.
const (
	codecMagic   = "BGOB"
	codecVersion = 1
	maxNameLen   = 255
)

// Unmarshal errors; test with errors.Is.
var (
	ErrTraceTruncated = errors.New("obs: truncated trace")
	ErrTraceCorrupt   = errors.New("obs: corrupt trace")
)

// MarshalBinary encodes the recorder's trace in the compact binary
// format; nil for a nil (unarmed) recorder.
func (r *Recorder) MarshalBinary() []byte {
	if r == nil {
		return nil
	}
	return r.Trace().Marshal()
}

// Marshal encodes the trace in the canonical binary format.
func (t Trace) Marshal() []byte {
	b := make([]byte, 0, 16+16*len(t.Spans))
	b = append(b, codecMagic...)
	b = append(b, codecVersion)
	b = putUvarint(b, uint64(len(t.Spans)))
	b = putUvarint(b, uint64(len(t.Samples)))
	var prev sim.Cycles
	for _, s := range t.Spans {
		b = append(b, byte(s.Cat))
		b = putUvarint(b, uint64(len(s.Name)))
		b = append(b, s.Name...)
		b = putUvarint(b, zigzag(int64(s.Node)))
		b = putUvarint(b, zigzag(int64(s.Tid)))
		b = putUvarint(b, zigzag(int64(s.Start-prev)))
		b = putUvarint(b, uint64(s.Dur))
		b = putUvarint(b, s.Arg)
		prev = s.Start
	}
	var prevAt sim.Cycles
	for _, sm := range t.Samples {
		b = putUvarint(b, uint64(sm.At-prevAt))
		b = putUvarint(b, uint64(len(sm.Deltas)))
		for _, d := range sm.Deltas {
			b = putUvarint(b, uint64(d.Counter))
			b = putUvarint(b, zigzag(d.Value))
		}
		prevAt = sm.At
	}
	return b
}

// Unmarshal decodes a binary trace, rejecting truncated, corrupt,
// non-minimal or non-canonical input and trailing garbage.
func Unmarshal(data []byte) (Trace, error) {
	d := decoder{b: data}
	if len(data) < len(codecMagic)+1 {
		return Trace{}, ErrTraceTruncated
	}
	if string(data[:len(codecMagic)]) != codecMagic {
		return Trace{}, fmt.Errorf("%w: bad magic", ErrTraceCorrupt)
	}
	d.off = len(codecMagic)
	if v := data[d.off]; v != codecVersion {
		return Trace{}, fmt.Errorf("%w: unsupported version %d", ErrTraceCorrupt, v)
	}
	d.off++

	nSpans := d.uvarint()
	nSamples := d.uvarint()
	if d.err != nil {
		return Trace{}, d.err
	}
	// Each span occupies at least 7 bytes and each sample at least 4, so
	// counts beyond the remaining payload are corrupt (and bounding them
	// here keeps allocation proportional to the input).
	if nSpans > uint64(len(data)-d.off) || nSamples > uint64(len(data)-d.off) {
		return Trace{}, fmt.Errorf("%w: impossible counts", ErrTraceCorrupt)
	}

	var t Trace
	var prev sim.Cycles
	// names holds each distinct span name decoded so far, so spans that
	// share a name share one string.
	names := make(map[string]string)
	for i := uint64(0); i < nSpans; i++ {
		var s Span
		cat := d.byte()
		if d.err == nil && Cat(cat) >= NumCats {
			return Trace{}, fmt.Errorf("%w: span category %d", ErrTraceCorrupt, cat)
		}
		s.Cat = Cat(cat)
		nameLen := d.uvarint()
		if d.err == nil && nameLen > maxNameLen {
			return Trace{}, fmt.Errorf("%w: span name length %d", ErrTraceCorrupt, nameLen)
		}
		raw := d.bytes(int(nameLen))
		name, ok := names[string(raw)]
		if !ok {
			name = string(raw)
			names[name] = name
		}
		s.Name = name
		s.Node = int32(d.zigzag32())
		s.Tid = int32(d.zigzag32())
		s.Start = prev + sim.Cycles(unzigzag(d.uvarint()))
		dur := d.uvarint()
		if d.err == nil && dur > 1<<62 {
			return Trace{}, fmt.Errorf("%w: span duration overflow", ErrTraceCorrupt)
		}
		s.Dur = sim.Cycles(dur)
		s.Arg = d.uvarint()
		if d.err != nil {
			return Trace{}, d.err
		}
		prev = s.Start
		t.Spans = append(t.Spans, s)
	}
	var prevAt sim.Cycles
	for i := uint64(0); i < nSamples; i++ {
		gap := d.uvarint()
		if d.err == nil && (gap > 1<<62 || (i > 0 && gap == 0)) {
			return Trace{}, fmt.Errorf("%w: sample times not increasing", ErrTraceCorrupt)
		}
		at := prevAt + sim.Cycles(gap)
		n := d.uvarint()
		if d.err == nil && (n == 0 || n > uint64(upc.NumCounters)) {
			return Trace{}, fmt.Errorf("%w: sample delta count %d", ErrTraceCorrupt, n)
		}
		if d.err != nil {
			return Trace{}, d.err
		}
		sm := Sample{At: at, Deltas: make([]Delta, 0, n)}
		prevCtr := -1
		for j := uint64(0); j < n; j++ {
			ctr := d.uvarint()
			val := unzigzag(d.uvarint())
			if d.err != nil {
				return Trace{}, d.err
			}
			if ctr >= uint64(upc.NumCounters) || int(ctr) <= prevCtr {
				return Trace{}, fmt.Errorf("%w: sample counters not increasing", ErrTraceCorrupt)
			}
			if val == 0 {
				return Trace{}, fmt.Errorf("%w: zero sample delta", ErrTraceCorrupt)
			}
			prevCtr = int(ctr)
			sm.Deltas = append(sm.Deltas, Delta{Counter: upc.Counter(ctr), Value: val})
		}
		prevAt = at
		t.Samples = append(t.Samples, sm)
	}
	if d.err != nil {
		return Trace{}, d.err
	}
	if d.off != len(data) {
		return Trace{}, fmt.Errorf("%w: %d trailing bytes", ErrTraceCorrupt, len(data)-d.off)
	}
	return t, nil
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func putUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.err = ErrTraceTruncated
		return 0
	}
	c := d.b[d.off]
	d.off++
	return c
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.err = ErrTraceTruncated
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

// uvarint reads a minimally-encoded varint. Go's encoding/binary
// accepts redundant encodings (e.g. 0x80 0x00 for zero); canonicality
// requires rejecting them, so the reader is written out here.
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	var x uint64
	var s uint
	for i := 0; ; i++ {
		if d.off >= len(d.b) {
			d.err = ErrTraceTruncated
			return 0
		}
		c := d.b[d.off]
		d.off++
		if c < 0x80 {
			if i > 0 && c == 0 {
				d.err = fmt.Errorf("%w: non-minimal varint", ErrTraceCorrupt)
				return 0
			}
			if i == 9 && c > 1 {
				d.err = fmt.Errorf("%w: varint overflow", ErrTraceCorrupt)
				return 0
			}
			return x | uint64(c)<<s
		}
		if i == 9 {
			d.err = fmt.Errorf("%w: varint overflow", ErrTraceCorrupt)
			return 0
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
}

// zigzag32 reads a zigzag varint that must fit in 32 bits.
func (d *decoder) zigzag32() int64 {
	v := unzigzag(d.uvarint())
	if d.err == nil && (v < -1<<31 || v >= 1<<31) {
		d.err = fmt.Errorf("%w: 32-bit field overflow", ErrTraceCorrupt)
	}
	return v
}
