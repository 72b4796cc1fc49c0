// Package wire is the one little-endian codec behind the simulator's
// durable formats: the checkpoint image (internal/ckpt), the boot
// personality and the journal record bodies (internal/ctrlsys), and the
// write-ahead journal's record framing (internal/ctrlsys/wal). Each
// format keeps its own magic, version, field order and limits; this
// package only writes and reads its fields.
//
// An Encoder appends fixed-width little-endian integers, bools as one
// byte, and strings and byte slices behind a u32 length. A Decoder reads
// them back strictly. Its first error sticks, so a format can read every
// field and check the error once. It checks every length, and every
// element count times its minimum element size, against the bytes left
// before anything is allocated. It accepts only 0 and 1 as a bool, and
// Finish rejects trailing bytes. So a format that also checks its own
// limits accepts only what its encoder could have written, and every
// input it accepts re-encodes to itself.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Encoder appends fields to a byte slice. The zero value is empty and
// ready to use.
type Encoder struct{ b []byte }

// NewEncoder returns an encoder with room for size bytes before it grows.
func NewEncoder(size int) *Encoder { return &Encoder{b: make([]byte, 0, size)} }

// Bytes returns the encoding so far.
func (e *Encoder) Bytes() []byte { return e.b }

// U8, U32, I32 and U64 write fixed-width little-endian integers.
func (e *Encoder) U8(v uint8)   { e.b = append(e.b, v) }
func (e *Encoder) U32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *Encoder) I32(v int32)  { e.U32(uint32(v)) }
func (e *Encoder) U64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// Bool writes true as 1 and false as 0.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Str writes s behind its u32 length.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// Blob writes p behind its u32 length.
func (e *Encoder) Blob(p []byte) {
	e.U32(uint32(len(p)))
	e.b = append(e.b, p...)
}

// Decoder reads fields from a byte slice. After its first error every
// read returns a zero value, and Err and Finish report that error.
type Decoder struct {
	name string
	b    []byte
	off  int
	err  error
}

// NewDecoder returns a decoder over b whose errors begin with name.
func NewDecoder(name string, b []byte) *Decoder { return &Decoder{name: name, b: b} }

// Fail records a format-specific error unless an error is already
// recorded.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(d.name+": "+format, args...)
	}
}

// Err returns the first error, or nil.
func (d *Decoder) Err() error { return d.err }

// Finish returns the first error, or an error naming the bytes left
// unread.
func (d *Decoder) Finish() error {
	if d.err == nil && d.off != len(d.b) {
		d.Fail("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

// take consumes the next n bytes, or returns nil once the decoder has
// failed or fewer than n bytes are left.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.b)-d.off {
		d.Fail("truncated at offset %d: %d bytes wanted, %d left", d.off, n, len(d.b)-d.off)
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// U8, U32, I32 and U64 read fixed-width little-endian integers.
func (d *Decoder) U8() uint8 {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *Decoder) U32() uint32 {
	if p := d.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (d *Decoder) I32() int32 { return int32(d.U32()) }

func (d *Decoder) U64() uint64 {
	if p := d.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Bool reads one byte and rejects any value but 0 and 1.
func (d *Decoder) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.Fail("bool byte %d at offset %d", v, d.off-1)
	}
	return v == 1
}

// Count reads a u32 element count and checks that that many elements of
// at least size bytes each fit in the bytes left. It returns 0 on error,
// so a caller may size an allocation by it.
func (d *Decoder) Count(size int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if need, left := uint64(n)*uint64(size), len(d.b)-d.off; need > uint64(left) {
		d.Fail("length %d at offset %d needs %d bytes, %d left", n, d.off-4, need, left)
		return 0
	}
	return int(n)
}

// Str reads a string written by Encoder.Str.
func (d *Decoder) Str() string { return string(d.take(d.Count(1))) }

// Blob reads a byte slice written by Encoder.Blob into a new slice.
func (d *Decoder) Blob() []byte { return bytes.Clone(d.take(d.Count(1))) }
