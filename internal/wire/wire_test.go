package wire

import (
	"bytes"
	"strings"
	"testing"
)

// TestLayout pins each primitive's bytes and reads them back.
func TestLayout(t *testing.T) {
	e := NewEncoder(4)
	if len(e.Bytes()) != 0 || cap(e.Bytes()) != 4 {
		t.Fatalf("NewEncoder(4): len %d cap %d", len(e.Bytes()), cap(e.Bytes()))
	}
	e.U8(0xab)
	e.U32(0x01020304)
	e.I32(-2)
	e.U64(0x0102030405060708)
	e.Bool(true)
	e.Bool(false)
	e.Str("hi")
	e.Blob([]byte{0xee})
	e.Str("")
	e.U32(3) // a count of three 4-byte elements
	e.U32(7)
	e.U32(8)
	e.U32(9)
	want := []byte{
		0xab,
		0x04, 0x03, 0x02, 0x01,
		0xfe, 0xff, 0xff, 0xff,
		0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
		1, 0,
		2, 0, 0, 0, 'h', 'i',
		1, 0, 0, 0, 0xee,
		0, 0, 0, 0,
		3, 0, 0, 0, 7, 0, 0, 0, 8, 0, 0, 0, 9, 0, 0, 0,
	}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("encoding\n got %x\nwant %x", e.Bytes(), want)
	}

	d := NewDecoder("test", want)
	if v := d.U8(); v != 0xab {
		t.Errorf("U8 = %#x", v)
	}
	if v := d.U32(); v != 0x01020304 {
		t.Errorf("U32 = %#x", v)
	}
	if v := d.I32(); v != -2 {
		t.Errorf("I32 = %d", v)
	}
	if v := d.U64(); v != 0x0102030405060708 {
		t.Errorf("U64 = %#x", v)
	}
	if a, b := d.Bool(), d.Bool(); !a || b {
		t.Errorf("Bool, Bool = %v, %v", a, b)
	}
	if s := d.Str(); s != "hi" {
		t.Errorf("Str = %q", s)
	}
	if p := d.Blob(); !bytes.Equal(p, []byte{0xee}) {
		t.Errorf("Blob = %x", p)
	}
	if s := d.Str(); s != "" {
		t.Errorf("empty Str = %q", s)
	}
	// A count whose elements exactly fill the bytes left is accepted.
	if n := d.Count(4); n != 3 {
		t.Errorf("Count(4) = %d", n)
	}
	for _, w := range []uint32{7, 8, 9} {
		if v := d.U32(); v != w {
			t.Errorf("element %d, want %d", v, w)
		}
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestBlobCopies: a decoded blob must not alias the input.
func TestBlobCopies(t *testing.T) {
	in := []byte{2, 0, 0, 0, 'a', 'b'}
	p := NewDecoder("test", in).Blob()
	in[4] = 'z'
	if string(p) != "ab" {
		t.Errorf("blob %q changed with its input", p)
	}
}

// TestRejects covers every rejection: truncation of each primitive, a
// length or count beyond the bytes left, a bool byte of 2, and a
// trailing byte.
func TestRejects(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		read func(d *Decoder)
		want string
	}{
		{"u8 truncated", nil, func(d *Decoder) { d.U8() }, "truncated at offset 0: 1 bytes wanted, 0 left"},
		{"u32 truncated", []byte{1, 2, 3}, func(d *Decoder) { d.U32() }, "truncated at offset 0: 4 bytes wanted, 3 left"},
		{"i32 truncated", []byte{0xff}, func(d *Decoder) { d.I32() }, "truncated at offset 0: 4 bytes wanted, 1 left"},
		{"u64 truncated", make([]byte, 7), func(d *Decoder) { d.U64() }, "truncated at offset 0: 8 bytes wanted, 7 left"},
		{"bool truncated", nil, func(d *Decoder) { d.Bool() }, "truncated at offset 0"},
		{"str length truncated", []byte{1, 0}, func(d *Decoder) { d.Str() }, "truncated at offset 0: 4 bytes wanted, 2 left"},
		{"str beyond bytes left", []byte{5, 0, 0, 0, 'a', 'b', 'c', 'd'}, func(d *Decoder) { d.Str() }, "length 5 at offset 0 needs 5 bytes, 4 left"},
		{"blob beyond bytes left", []byte{0xff, 0xff, 0xff, 0xff}, func(d *Decoder) { d.Blob() }, "length 4294967295 at offset 0 needs 4294967295 bytes, 0 left"},
		{"count beyond bytes left", append([]byte{3, 0, 0, 0}, make([]byte, 11)...), func(d *Decoder) { d.Count(4) }, "length 3 at offset 0 needs 12 bytes, 11 left"},
		{"hostile count", []byte{0xff, 0xff, 0xff, 0xff}, func(d *Decoder) { d.Count(1 << 20) }, "needs 4503599626321920 bytes, 0 left"},
		{"bool byte 2", []byte{2}, func(d *Decoder) { d.Bool() }, "bool byte 2 at offset 0"},
		{"trailing byte", []byte{1, 0}, func(d *Decoder) { d.Bool() }, "1 trailing bytes"},
	}
	for _, c := range cases {
		d := NewDecoder("fmt", c.in)
		c.read(d)
		err := d.Finish()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "fmt: ") || !strings.Contains(msg, c.want) {
			t.Errorf("%s: error %q, want %q", c.name, msg, c.want)
		}
	}
}

// TestFirstErrorSticks: after a failure every read returns a zero value,
// a count sizes no allocation, and neither Fail nor Finish replaces the
// first error.
func TestFirstErrorSticks(t *testing.T) {
	// Valid fields follow the bad bool byte; none of them may be read.
	d := NewDecoder("fmt", []byte{2, 1, 0, 0, 0, 'x', 1, 0, 0, 0, 'y'})
	if d.Bool() {
		t.Error("bool byte 2 read as true")
	}
	first := d.Err()
	if first == nil {
		t.Fatal("bool byte 2 accepted")
	}
	if d.U8() != 0 || d.U32() != 0 || d.Count(1) != 0 || d.Str() != "" || d.Blob() != nil {
		t.Error("a read after the first error returned data")
	}
	d.Fail("later %d", 1)
	if d.Err() != first || d.Finish() != first {
		t.Errorf("first error %v replaced by %v", first, d.Err())
	}

	d = NewDecoder("fmt", nil)
	d.Fail("bad magic %#x", 7)
	if err := d.Finish(); err == nil || err.Error() != "fmt: bad magic 0x7" {
		t.Errorf("Fail recorded %v", err)
	}
}
