package ciod

import (
	"testing"
	"testing/quick"

	"bgcnk/internal/collective"
	"bgcnk/internal/fs"
	"bgcnk/internal/kernel"
	"bgcnk/internal/sim"
)

func TestRequestWireRoundTrip(t *testing.T) {
	f := func(op uint8, pid, tid uint32, fd int32, flags uint64, off int64, path string, data []byte) bool {
		r := &Request{
			Op: op % 18, PID: pid, TID: tid, UID: 1, GID: 2, FD: fd,
			Flags: flags, Mode: 0644, Off: off, Whence: 1, Size: 99,
			Path: path, Path2: "p2", Data: data,
		}
		b := MarshalRequest(r)
		got, err := UnmarshalRequest(b)
		if err != nil {
			return false
		}
		return got.Op == r.Op && got.PID == r.PID && got.TID == r.TID &&
			got.FD == r.FD && got.Flags == r.Flags && got.Off == r.Off &&
			got.Path == r.Path && got.Path2 == r.Path2 && string(got.Data) == string(r.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReplyWireRoundTrip(t *testing.T) {
	r := &Reply{Ret: 42, Errno: kernel.ENOENT, Data: []byte{1, 2, 3}, Str: "/cwd"}
	got, err := UnmarshalReply(MarshalReply(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Ret != 42 || got.Errno != kernel.ENOENT || got.Str != "/cwd" || len(got.Data) != 3 {
		t.Fatalf("got %+v", got)
	}
}

// TestDecodedDataAliasesWire pins the decoders' ownership contract: a
// decoded Request.Data or Reply.Data is the payload's own bytes inside
// the received message, with its capacity clipped to its length so an
// append cannot write into the rest of the message, and nil when the
// payload is empty. Each message is marshalled at its exact length.
func TestDecodedDataAliasesWire(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1024} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*7 + 1)
		}
		req := MarshalRequest(&Request{Op: OpWrite, PID: 3, TID: 1, FD: 4, Size: uint64(n), Path: "/p", Data: payload})
		r, err := UnmarshalRequest(req)
		if err != nil {
			t.Fatalf("request, %d bytes: %v", n, err)
		}
		rep := MarshalReply(&Reply{Ret: uint64(n), Str: "/cwd", Data: payload})
		p, err := UnmarshalReply(rep)
		if err != nil {
			t.Fatalf("reply, %d bytes: %v", n, err)
		}
		for _, tc := range []struct {
			kind       string
			wire, data []byte
		}{{"request", req, r.Data}, {"reply", rep, p.Data}} {
			if cap(tc.wire) != len(tc.wire) {
				t.Errorf("%s, %d bytes: wire length %d, capacity %d", tc.kind, n, len(tc.wire), cap(tc.wire))
			}
			if n == 0 {
				if tc.data != nil {
					t.Errorf("%s: empty payload decoded as %#v, want nil", tc.kind, tc.data)
				}
				continue
			}
			if string(tc.data) != string(payload) {
				t.Fatalf("%s, %d bytes: payload changed", tc.kind, n)
			}
			// Data is the last field of both formats.
			if &tc.data[0] != &tc.wire[len(tc.wire)-n] {
				t.Errorf("%s, %d bytes: Data is a copy, not the wire's bytes", tc.kind, n)
			}
			if cap(tc.data) != n {
				t.Errorf("%s, %d bytes: Data capacity %d", tc.kind, n, cap(tc.data))
			}
		}
	}
}

func TestTruncatedMessageError(t *testing.T) {
	b := MarshalRequest(&Request{Op: OpWrite, Data: []byte("hello")})
	if _, err := UnmarshalRequest(b[:len(b)-3]); err == nil {
		t.Fatal("truncated request must error")
	}
	if _, err := UnmarshalReply([]byte{1, 2}); err == nil {
		t.Fatal("truncated reply must error")
	}
}

func TestStatWireRoundTrip(t *testing.T) {
	st := fs.Stat{Ino: 9, Type: fs.TypeDir, Mode: 0755, UID: 3, GID: 4, Size: 100, Nlink: 2, Mtime: 77}
	got, err := UnmarshalStat(MarshalStat(st))
	if err != nil {
		t.Fatal(err)
	}
	if got != st {
		t.Fatalf("got %+v want %+v", got, st)
	}
}

// shipped runs one client coroutine against a live CIOD server and returns
// the replies of the requested calls.
func shipped(t *testing.T, reqs []*Request) []Reply {
	t.Helper()
	eng := sim.NewEngine()
	tree := collective.NewTree(eng, collective.DefaultConfig(), []int{0})
	filesystem := fs.New()
	filesystem.MustMkdirAll("/gpfs/job")
	NewServer(eng, tree.ION(), filesystem)
	cl := NewClient(tree.CN(0))
	var reps []Reply
	eng.Go("cn", func(c *sim.Coro) {
		for _, r := range reqs {
			reps = append(reps, cl.Call(c, r))
		}
	})
	eng.RunUntilIdle()
	eng.Shutdown()
	if len(reps) != len(reqs) {
		t.Fatalf("got %d replies for %d requests", len(reps), len(reqs))
	}
	return reps
}

func TestFunctionShipOpenWriteReadClose(t *testing.T) {
	reps := shipped(t, []*Request{
		{Op: OpProcStart, PID: 1, UID: 0},
		{Op: OpOpen, PID: 1, TID: 1, Path: "/gpfs/job/out.dat", Flags: kernel.OCreat | kernel.ORdwr, Mode: 0644},
		{Op: OpWrite, PID: 1, TID: 1, FD: 0, Data: []byte("function shipped")},
		{Op: OpLseek, PID: 1, TID: 1, FD: 0, Off: 0, Whence: kernel.SeekSet},
		{Op: OpRead, PID: 1, TID: 1, FD: 0, Size: 16},
		{Op: OpClose, PID: 1, TID: 1, FD: 0},
	})
	for i, r := range reps {
		if r.Errno != kernel.OK {
			t.Fatalf("call %d failed: %v", i, r.Errno)
		}
	}
	if string(reps[4].Data) != "function shipped" {
		t.Fatalf("read back %q", reps[4].Data)
	}
	if reps[2].Ret != 16 {
		t.Fatalf("write returned %d", reps[2].Ret)
	}
}

func TestCallWithoutProcStartFails(t *testing.T) {
	reps := shipped(t, []*Request{
		{Op: OpOpen, PID: 99, TID: 1, Path: "/x", Flags: kernel.ORdonly},
	})
	if reps[0].Errno != kernel.ESRCH {
		t.Fatalf("errno = %v, want ESRCH", reps[0].Errno)
	}
}

func TestProxyStateMirrorsProcess(t *testing.T) {
	// Working directory and seek offsets live in the ioproxy, mirroring
	// the CN process (paper Section IV-A).
	reps := shipped(t, []*Request{
		{Op: OpProcStart, PID: 1, UID: 0},
		{Op: OpChdir, PID: 1, TID: 1, Path: "/gpfs/job"},
		{Op: OpGetcwd, PID: 1, TID: 1},
		{Op: OpOpen, PID: 1, TID: 1, Path: "rel.txt", Flags: kernel.OCreat | kernel.OWronly, Mode: 0644},
		{Op: OpWrite, PID: 1, TID: 1, FD: 0, Data: []byte("x")},
		{Op: OpStat, PID: 1, TID: 1, Path: "/gpfs/job/rel.txt"},
	})
	if reps[2].Str != "/gpfs/job" {
		t.Fatalf("cwd = %q", reps[2].Str)
	}
	if reps[5].Errno != kernel.OK {
		t.Fatal("relative open did not resolve against proxy cwd")
	}
	st, _ := UnmarshalStat(reps[5].Data)
	if st.Size != 1 {
		t.Fatalf("stat size = %d", st.Size)
	}
}

func TestProxyCredentialsEnforced(t *testing.T) {
	eng := sim.NewEngine()
	tree := collective.NewTree(eng, collective.DefaultConfig(), []int{0})
	filesystem := fs.New()
	filesystem.MustMkdirAll("/secure")
	filesystem.Chmod("/", "/secure", 0700, fs.Root)
	NewServer(eng, tree.ION(), filesystem)
	cl := NewClient(tree.CN(0))
	var rep Reply
	eng.Go("cn", func(c *sim.Coro) {
		cl.Call(c, &Request{Op: OpProcStart, PID: 1, UID: 1000, GID: 1000})
		rep = cl.Call(c, &Request{Op: OpOpen, PID: 1, TID: 1, Path: "/secure/f", Flags: kernel.OCreat | kernel.OWronly, Mode: 0644})
	})
	eng.RunUntilIdle()
	eng.Shutdown()
	if rep.Errno != kernel.EACCES {
		t.Fatalf("errno = %v, want EACCES (proxy must mirror user creds)", rep.Errno)
	}
}

func TestOneProxyThreadPerAppThread(t *testing.T) {
	eng := sim.NewEngine()
	tree := collective.NewTree(eng, collective.DefaultConfig(), []int{0})
	srv := NewServer(eng, tree.ION(), fs.New())
	cl := NewClient(tree.CN(0))
	eng.Go("cn", func(c *sim.Coro) {
		cl.Call(c, &Request{Op: OpProcStart, PID: 5, UID: 0})
		for tid := uint32(1); tid <= 3; tid++ {
			cl.Call(c, &Request{Op: OpGetcwd, PID: 5, TID: tid})
		}
	})
	eng.RunUntilIdle()
	eng.Shutdown()
	if n := srv.ProxyThreads(5); n != 3 {
		t.Fatalf("proxy threads = %d, want 3 (one per app thread)", n)
	}
	if srv.LiveProxies() != 1 {
		t.Fatalf("live proxies = %d", srv.LiveProxies())
	}
}

func TestProcExitTearsDownProxy(t *testing.T) {
	eng := sim.NewEngine()
	tree := collective.NewTree(eng, collective.DefaultConfig(), []int{0})
	srv := NewServer(eng, tree.ION(), fs.New())
	cl := NewClient(tree.CN(0))
	eng.Go("cn", func(c *sim.Coro) {
		cl.Call(c, &Request{Op: OpProcStart, PID: 5, UID: 0})
		cl.Call(c, &Request{Op: OpProcExit, PID: 5})
	})
	eng.RunUntilIdle()
	eng.Shutdown()
	if srv.LiveProxies() != 0 {
		t.Fatal("proxy survived proc exit")
	}
	if srv.Proxies != 1 {
		t.Fatalf("Proxies counter = %d", srv.Proxies)
	}
}

func TestLoopbackMatchesServerSemantics(t *testing.T) {
	eng := sim.NewEngine()
	filesystem := fs.New()
	lb := NewLoopback(eng, filesystem)
	var reps []Reply
	eng.Go("cn", func(c *sim.Coro) {
		reps = append(reps, lb.Call(c, &Request{Op: OpProcStart, PID: 1, UID: 0}))
		reps = append(reps, lb.Call(c, &Request{Op: OpOpen, PID: 1, TID: 1, Path: "/f", Flags: kernel.OCreat | kernel.OWronly, Mode: 0644}))
		reps = append(reps, lb.Call(c, &Request{Op: OpWrite, PID: 1, TID: 1, FD: 0, Data: []byte("lb")}))
	})
	eng.RunUntilIdle()
	eng.Shutdown()
	for i, r := range reps {
		if r.Errno != kernel.OK {
			t.Fatalf("loopback call %d: %v", i, r.Errno)
		}
	}
	data, errno := filesystem.ReadFile("/f", fs.Root)
	if errno != kernel.OK || string(data) != "lb" {
		t.Fatalf("loopback write lost: %v %q", errno, data)
	}
}

func TestShippedCallChargesRoundTripTime(t *testing.T) {
	eng := sim.NewEngine()
	tree := collective.NewTree(eng, collective.DefaultConfig(), []int{0})
	NewServer(eng, tree.ION(), fs.New())
	cl := NewClient(tree.CN(0))
	var took sim.Cycles
	eng.Go("cn", func(c *sim.Coro) {
		start := c.Now()
		cl.Call(c, &Request{Op: OpProcStart, PID: 1})
		took = c.Now() - start
	})
	eng.RunUntilIdle()
	eng.Shutdown()
	min := 2 * collective.DefaultConfig().Latency
	if took < min {
		t.Fatalf("round trip %d cycles; must include two tree traversals (%d)", took, min)
	}
}

func TestReaddirShipped(t *testing.T) {
	reps := shipped(t, []*Request{
		{Op: OpProcStart, PID: 1, UID: 0},
		{Op: OpMkdir, PID: 1, TID: 1, Path: "/dir", Mode: 0755},
		{Op: OpOpen, PID: 1, TID: 1, Path: "/dir/a", Flags: kernel.OCreat | kernel.OWronly, Mode: 0644},
		{Op: OpOpen, PID: 1, TID: 1, Path: "/dir/b", Flags: kernel.OCreat | kernel.OWronly, Mode: 0644},
		{Op: OpReaddir, PID: 1, TID: 1, Path: "/dir"},
	})
	names, err := DecodeNames(reps[4].Data)
	if err != nil || len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("readdir: %v %v", err, names)
	}
}

// TestDecodeNamesBoundsCount: a count the payload cannot hold (each name
// needs at least its 4-byte length), a truncated name and a truncated
// count are errors. Before the bound, the first case asked for 64 GiB.
func TestDecodeNamesBoundsCount(t *testing.T) {
	for _, wire := range [][]byte{
		{0xff, 0xff, 0xff, 0xff},
		{0, 0, 0, 3, 0, 0, 0, 1, 'a', 0, 0, 0, 0},
		{0, 0, 0, 1, 0, 0, 0, 9, 'a'},
		{0, 0},
	} {
		if names, err := DecodeNames(wire); err == nil {
			t.Errorf("% x decoded to %q", wire, names)
		}
	}
}
