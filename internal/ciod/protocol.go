// Package ciod implements the CNK ⇔ CIOD function-shipped I/O protocol of
// paper Section IV-A (Fig 2). When an application on a compute node makes
// a file-I/O system call, CNK marshals the parameters into a message and
// ships it over the collective network to the Control and I/O Daemon on
// the I/O node. CIOD routes the message to an ioproxy dedicated to that
// compute-node process (with one proxy thread per application thread),
// which performs the real call against the I/O node's filesystem and ships
// the results back. The FWK runs the same decode, executor and store on
// its own filesystem client, so both kernels share one file-call path.
//
// A shipped call copies each payload byte once per hop, and allocates
// nothing per call beyond what the model keeps. Decode hands every
// request the calling thread's wire buffer, a write's payload loaded
// there from user memory behind room for the header, and MarshalRequest
// renders the request into it, a write's header only; the ship path also
// keeps room there for a read's reply. The tree delivers the sender's
// slice itself, the daemon decodes the request in place and holds it by
// value beside its message, the I/O node's cache or filesystem copies the
// payload into its own blocks or pages, and once the daemon has finished
// reading the message it renders the reply into it. So a call sent once
// comes back in the thread's own buffer, which the thread takes back once
// Store has copied the reply out (Recycle). A client with a fault source
// may resend, so it sends each attempt in a copy of its own, and the
// request keeps its bytes.
package ciod

import (
	"encoding/binary"
	"fmt"

	"bgcnk/internal/fs"
	"bgcnk/internal/kernel"
	"bgcnk/internal/sim"
)

// Op codes on the wire (aligned with the syscalls CNK function-ships, plus
// proxy lifecycle management).
const (
	OpOpen uint8 = iota
	OpClose
	OpRead
	OpWrite
	OpLseek
	OpStat
	OpFstat
	OpUnlink
	OpRename
	OpMkdir
	OpRmdir
	OpDup
	OpGetcwd
	OpChdir
	OpTruncate
	OpReaddir
	OpProcStart // create the ioproxy for a process
	OpProcExit  // tear it down
	OpFsync     // flush a descriptor's dirty cache blocks to stable storage
)

var opNames = [...]string{"open", "close", "read", "write", "lseek", "stat",
	"fstat", "unlink", "rename", "mkdir", "rmdir", "dup", "getcwd", "chdir",
	"truncate", "readdir", "proc_start", "proc_exit", "fsync"}

// OpName returns a debug name for an op code.
func OpName(op uint8) string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", op)
}

// Request is one function-shipped call.
type Request struct {
	Op     uint8
	PID    uint32
	TID    uint32
	UID    uint32
	GID    uint32
	FD     int32
	FD2    int32 // unused except where noted
	Flags  uint64
	Mode   uint16
	Off    int64
	Whence int32
	Size   uint64
	Path   string
	Path2  string
	// Data is a write's payload. A decoded request's Data lies inside
	// the received message (see UnmarshalRequest).
	Data []byte

	// wire is the calling thread's wire buffer, which Decode hands every
	// request it builds and MarshalRequest renders the request into when
	// it can hold it; a write's payload already lies there behind
	// requestFixed bytes of room for the header. A client that sends the
	// buffer itself clears wire, since the reply comes back in it, and
	// sets spent when the payload went with it (see Resendable).
	wire  []byte
	spent bool
}

// Resendable reports whether r still holds every byte it marshals to, so
// that it may be shipped again. It does until a client sends a payload
// Decode loaded in r's own wire buffer, which only a client without a
// fault source does: the reply comes back in that buffer, so the payload
// is gone.
func (r *Request) Resendable() bool { return !r.spent }

// Reply is the result shipped back.
type Reply struct {
	Ret   uint64
	Errno kernel.Errno
	// Data is a read's bytes or a stat, readdir or getcwd payload. A
	// decoded reply's Data lies inside the received message (see
	// UnmarshalReply).
	Data []byte
	Str  string

	// wire is the buffer the reply came back in, which Recycle gives the
	// calling thread: the message Client.Call received or, for a call
	// Execute ran where it was made, the request's own wire buffer.
	// UnmarshalReply leaves it nil.
	wire []byte
}

// Transport is what the compute-node kernel uses to ship a request and
// block for its reply. Implementations: Client (over the collective
// network to a Server) and Loopback (directly against a filesystem, for
// unit tests of the CN kernel).
type Transport interface {
	Call(c *sim.Coro, req *Request) Reply
}

// --- wire marshalling (encoding/binary, big-endian like the hardware) ---

type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.BigEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *enc) i32(v int32)  { e.u32(uint32(v)) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) str(s string) { e.u32(uint32(len(s))); e.b = append(e.b, s...) }
func (e *enc) bytes(p []byte) {
	e.u32(uint32(len(p)))
	e.b = append(e.b, p...)
}

// Fixed wire bytes: every field of the format plus the u32 length of
// each string and of the payload, whose bytes follow.
const (
	requestFixed = 1 + 4*4 + 4 + 4 + 8 + 2 + 8 + 4 + 8 + 3*4
	replyFixed   = 8 + 4 + 2*4
)

type dec struct {
	b   []byte
	err error
}

func (d *dec) need(n int) []byte {
	if d.err == nil && n >= 0 && len(d.b) >= n {
		v := d.b[:n]
		d.b = d.b[n:]
		return v
	}
	d.err = fmt.Errorf("ciod: truncated message")
	// Never allocate the claimed length: a corrupt header can claim 4GB.
	// Fixed-width readers need at most 8 zero bytes to limp along.
	if n > 8 || n < 0 {
		n = 8
	}
	return make([]byte, n)
}
func (d *dec) u8() uint8   { return d.need(1)[0] }
func (d *dec) u16() uint16 { return binary.BigEndian.Uint16(d.need(2)) }
func (d *dec) u32() uint32 { return binary.BigEndian.Uint32(d.need(4)) }
func (d *dec) u64() uint64 { return binary.BigEndian.Uint64(d.need(8)) }
func (d *dec) i32() int32  { return int32(d.u32()) }
func (d *dec) i64() int64  { return int64(d.u64()) }
func (d *dec) str() string { return string(d.need(int(d.u32()))) }

// bytes returns the payload in place: the message's own bytes, with the
// capacity clipped to the length so an append cannot reach the rest of
// the message, and nil when empty.
func (d *dec) bytes() []byte {
	v := d.need(int(d.u32()))
	if len(v) == 0 {
		return nil
	}
	return v[:len(v):len(v)]
}

// MarshalRequest renders the request in wire format: into its wire
// buffer when that can hold the request, and otherwise into one new
// buffer of the exact length, byte for byte the same. A write Decode
// loaded already lies in its wire buffer behind room for the header, so
// only the header is written and the payload is not copied again.
func MarshalRequest(r *Request) []byte { return marshalRequest(r, 0) }

// marshalRequest is MarshalRequest, except that a request whose payload
// does not already lie in its wire buffer goes into a buffer of capacity
// at least room, allocated when the wire buffer is smaller, so that a
// reply of room bytes can come back in it (see replyRoom).
func marshalRequest(r *Request, room int) []byte {
	hdr := requestFixed + len(r.Path) + len(r.Path2)
	n := hdr + len(r.Data)
	b := r.wire
	if len(r.Data) == 0 || len(b) != n || &b[hdr] != &r.Data[0] {
		if cap(b) < max(n, room) {
			b = make([]byte, n, max(n, room))
		}
		b = b[:n]
		copy(b[hdr:], r.Data)
	}
	e := &enc{b: b[:0]}
	e.u8(r.Op)
	e.u32(r.PID)
	e.u32(r.TID)
	e.u32(r.UID)
	e.u32(r.GID)
	e.i32(r.FD)
	e.i32(r.FD2)
	e.u64(r.Flags)
	e.u16(r.Mode)
	e.i64(r.Off)
	e.i32(r.Whence)
	e.u64(r.Size)
	e.str(r.Path)
	e.str(r.Path2)
	e.u32(uint32(len(r.Data)))
	return b
}

// replyRoom is the capacity a shipped request's message keeps for its
// reply: a read's, when it fits a buffer the thread keeps (copyInChunk).
// Every other reply fits its request's own length, but for a readdir or
// getcwd payload, which the daemon renders into a buffer of its own when
// the message cannot hold it.
func replyRoom(r *Request) int {
	if r.Op != OpRead || r.Size > copyInChunk-replyFixed {
		return 0
	}
	return replyFixed + int(r.Size)
}

// UnmarshalRequest parses wire format. The request's Data aliases b, so
// b must not change while the request is in use; whatever keeps the
// payload (the I/O node's cache, the filesystem) copies it.
func UnmarshalRequest(b []byte) (Request, error) {
	d := &dec{b: b}
	r := Request{
		Op: d.u8(), PID: d.u32(), TID: d.u32(), UID: d.u32(), GID: d.u32(),
		FD: d.i32(), FD2: d.i32(), Flags: d.u64(), Mode: d.u16(),
		Off: d.i64(), Whence: d.i32(), Size: d.u64(),
		Path: d.str(), Path2: d.str(), Data: d.bytes(),
	}
	return r, d.err
}

// MarshalReply renders a reply in wire format, in one new buffer of the
// exact length. The daemon renders each reply into the message it
// answers instead, when that can hold it (marshalReply).
func MarshalReply(r *Reply) []byte { return marshalReply(nil, r) }

// marshalReply renders r into msg, the message its request came in, when
// msg's capacity can hold the reply, and otherwise into one new buffer of
// the exact length. The caller must have finished reading msg, and r's
// Data must not lie in it.
func marshalReply(msg []byte, r *Reply) []byte {
	if n := replyFixed + len(r.Str) + len(r.Data); cap(msg) < n {
		msg = make([]byte, 0, n)
	}
	e := &enc{b: msg[:0]}
	e.u64(r.Ret)
	e.i32(int32(r.Errno))
	e.str(r.Str)
	e.bytes(r.Data)
	return e.b
}

// UnmarshalReply parses a reply. The reply's Data aliases b, so b must
// not change while the reply is in use; the kernel copies it into user
// memory.
func UnmarshalReply(b []byte) (Reply, error) {
	d := &dec{b: b}
	r := Reply{Ret: d.u64(), Errno: kernel.Errno(d.i32()), Str: d.str(), Data: d.bytes()}
	return r, d.err
}

// StatWireSize is the byte length of a marshalled Stat.
const StatWireSize = 8 + 1 + 2 + 4 + 4 + 8 + 4 + 8

// MarshalStat encodes a Stat into reply data.
func MarshalStat(st fs.Stat) []byte {
	e := &enc{b: make([]byte, 0, StatWireSize)}
	e.u64(st.Ino)
	e.u8(uint8(st.Type))
	e.u16(uint16(st.Mode))
	e.u32(st.UID)
	e.u32(st.GID)
	e.u64(st.Size)
	e.u32(st.Nlink)
	e.u64(st.Mtime)
	return e.b
}

// UnmarshalStat decodes MarshalStat's output.
func UnmarshalStat(b []byte) (fs.Stat, error) {
	d := &dec{b: b}
	st := fs.Stat{
		Ino: d.u64(), Type: fs.FileType(d.u8()), Mode: fs.Mode(d.u16()),
		UID: d.u32(), GID: d.u32(), Size: d.u64(), Nlink: d.u32(), Mtime: d.u64(),
	}
	return st, d.err
}
