package ciod

import (
	"reflect"
	"testing"

	"bgcnk/internal/fs"
	"bgcnk/internal/kernel"
)

// FuzzMarshal feeds arbitrary bytes to every wire decoder and checks the
// round-trip property: any message a decoder accepts must re-marshal and
// re-decode to the identical structure (the canonical-form invariant the
// ioproxy relies on), and no input may panic or over-read.
func FuzzMarshal(f *testing.F) {
	f.Add(MarshalRequest(&Request{Op: OpOpen, PID: 3, TID: 1, UID: 0, GID: 0,
		Flags: uint64(kernel.OCreat | kernel.OWronly), Mode: 0644, Path: "/gpfs/rank0.out"}))
	f.Add(MarshalRequest(&Request{Op: OpWrite, PID: 3, TID: 2, FD: 4,
		Size: 5, Data: []byte("hello")}))
	f.Add(MarshalRequest(&Request{Op: OpRename, PID: 9, Path: "/a", Path2: "/b"}))
	f.Add(MarshalReply(&Reply{Ret: 42, Errno: kernel.OK, Data: []byte("payload")}))
	f.Add(MarshalReply(&Reply{Ret: ^uint64(0), Errno: kernel.ENOENT, Str: "/cwd"}))
	f.Add(MarshalStat(fs.Stat{Ino: 7, Type: fs.TypeFile, Mode: 0600, Size: 4096, Nlink: 1}))
	// Retry/retransmit framing seeds: the shapes the RAS layer puts on
	// the wire — a re-shipped proc start (the reconnect after a CIOD
	// crash), the EIO reply surfaced after retry exhaustion, and CRC-cut
	// truncations of previously valid frames (what a corrupted or
	// half-dropped retransmission would look like to the decoders).
	f.Add(MarshalRequest(&Request{Op: OpProcStart, PID: 3, UID: 7, GID: 8}))
	f.Add(MarshalReply(&Reply{Errno: kernel.EIO}))
	retrans := MarshalReply(&Reply{Ret: 9, Data: []byte("retransmitted payload")})
	f.Add(retrans[:len(retrans)/2])
	f.Add(retrans[:len(retrans)-1])
	retry := MarshalRequest(&Request{Op: OpWrite, PID: 1, TID: 5, FD: 3,
		Size: 8, Data: []byte("deadbeef")})
	f.Add(retry[:len(retry)-3])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(encodeNames([]string{"gpfs", "lib", ""}))
	f.Fuzz(func(t *testing.T, wire []byte) {
		if req, err := UnmarshalRequest(wire); err == nil {
			again, err2 := UnmarshalRequest(MarshalRequest(req))
			if err2 != nil {
				t.Fatalf("re-decode of accepted request failed: %v", err2)
			}
			if !reflect.DeepEqual(req, again) {
				t.Fatalf("request round trip changed:\n%+v\nvs\n%+v", req, again)
			}
		}
		if rep, err := UnmarshalReply(wire); err == nil {
			again, err2 := UnmarshalReply(MarshalReply(rep))
			if err2 != nil {
				t.Fatalf("re-decode of accepted reply failed: %v", err2)
			}
			if !reflect.DeepEqual(rep, again) {
				t.Fatalf("reply round trip changed:\n%+v\nvs\n%+v", rep, again)
			}
		}
		if st, err := UnmarshalStat(wire); err == nil {
			st2, err2 := UnmarshalStat(MarshalStat(st))
			if err2 != nil || st2 != st {
				t.Fatalf("stat round trip changed: %+v vs %+v (%v)", st, st2, err2)
			}
		}
		if names, err := DecodeNames(wire); err == nil {
			if len(names) > len(wire)/4 {
				t.Fatalf("%d names decoded from %d bytes", len(names), len(wire))
			}
			again, err2 := DecodeNames(encodeNames(names))
			if err2 != nil || !reflect.DeepEqual(names, again) {
				t.Fatalf("readdir names round trip changed: %q vs %q (%v)", names, again, err2)
			}
		}
	})
}

// TestMarshalRoundTripExhaustive pins the typed round trip for every op
// code with fully populated fields (the fuzzer's seed property, asserted
// deterministically so `go test` alone covers it).
func TestMarshalRoundTripExhaustive(t *testing.T) {
	for op := OpOpen; op <= OpFsync; op++ {
		req := &Request{
			Op: op, PID: 100 + uint32(op), TID: 7, UID: 1, GID: 2,
			FD: int32(op) - 3, FD2: 9, Flags: 0xdeadbeefcafe, Mode: 0755,
			Off: -1 << 40, Whence: 2, Size: 1 << 33,
			Path: "/gpfs/some/path", Path2: "../other", Data: []byte{0, 1, 2, 255},
		}
		got, err := UnmarshalRequest(MarshalRequest(req))
		if err != nil {
			t.Fatalf("op %s: %v", OpName(op), err)
		}
		if !reflect.DeepEqual(req, got) {
			t.Fatalf("op %s round trip:\n%+v\nvs\n%+v", OpName(op), req, got)
		}
	}
}
