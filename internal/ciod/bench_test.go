package ciod

import (
	"bytes"
	"testing"

	"bgcnk/internal/ion"
	"bgcnk/internal/kernel"
	"bgcnk/internal/sim"
)

// BenchmarkMarshalRequest marshals a 1 KiB write request, the message a
// CNK write of one 1 KiB chunk ships to CIOD.
func BenchmarkMarshalRequest(b *testing.B) {
	req := &Request{Op: OpWrite, PID: 3, TID: 1, UID: 100, GID: 100, FD: 4,
		Size: 1024, Data: bytes.Repeat([]byte{0x5a}, 1024)}
	b.ReportAllocs()
	for b.Loop() {
		MarshalRequest(req)
	}
}

// BenchmarkShipRoundTrip times one shipped 1 KiB write and one shipped
// 1 KiB read of the same bytes: Client, the shared tree uplink, the
// daemon's dispatcher and proxy thread, the I/O node's buffer cache, and
// both replies back. The file is open twice, for writing and for
// reading, and every 64th op seeks both descriptors back to its start,
// so it stays 64 KiB and every block stays cached.
func BenchmarkShipRoundTrip(b *testing.B) {
	r := newIONRig(1, &ion.Config{QueueDepth: 16, CacheBlocks: 512})
	cl := r.clients[0]
	payload := bytes.Repeat([]byte{0x5a}, 1024)
	ready, rounds, bad := false, 0, 0
	r.eng.Go("cn0", func(c *sim.Coro) {
		call := func(req *Request) Reply {
			req.PID, req.TID = 1, 1
			return cl.Call(c, req)
		}
		call(&Request{Op: OpProcStart})
		open := func(flags uint64) int32 {
			return int32(call(&Request{Op: OpOpen, Path: "/gpfs/bench.out", Flags: flags, Mode: 0644}).Ret)
		}
		wfd, rfd := open(kernel.OCreat|kernel.OWronly), open(kernel.ORdonly)
		ready = true
		for i := 1; ; i++ {
			call(&Request{Op: OpWrite, FD: wfd, Size: 1024, Data: payload})
			if rep := call(&Request{Op: OpRead, FD: rfd, Size: 1024}); !bytes.Equal(rep.Data, payload) {
				bad++
			}
			if i%64 == 0 {
				call(&Request{Op: OpLseek, FD: wfd, Whence: int32(kernel.SeekSet)})
				call(&Request{Op: OpLseek, FD: rfd, Whence: int32(kernel.SeekSet)})
			}
			rounds++
		}
	})
	for !ready {
		r.eng.Step()
	}
	b.ReportAllocs()
	for b.Loop() {
		for n := rounds; rounds == n; {
			r.eng.Step()
		}
	}
	r.eng.Shutdown()
	if bad > 0 {
		b.Fatalf("%d of %d reads did not return the written bytes", bad, rounds)
	}
}
