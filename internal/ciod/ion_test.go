package ciod

import (
	"bytes"
	"fmt"
	"testing"

	"bgcnk/internal/collective"
	"bgcnk/internal/fs"
	"bgcnk/internal/ion"
	"bgcnk/internal/kernel"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// ionRig is one daemon serving nCN compute-node clients through one I/O
// node.
type ionRig struct {
	eng     *sim.Engine
	tree    *collective.Tree
	fsys    *fs.FS
	node    *ion.Node
	srv     *Server
	clients map[int]*Client
	units   map[int]*upc.Set
}

// newIONRig builds the rig. A nil cfg leaves the I/O node unarmed;
// otherwise the tree shares its uplink and the node is built from cfg
// with a buffer cache.
func newIONRig(nCN int, cfg *ion.Config) *ionRig {
	eng := sim.NewEngine()
	ids := make([]int, nCN)
	for i := range ids {
		ids[i] = i
	}
	tree := collective.NewTree(eng, collective.DefaultConfig(), ids)
	fsys := fs.New()
	fsys.MustMkdirAll("/gpfs")
	var node *ion.Node
	if cfg != nil {
		tree.ShareUplink()
		node = ion.NewNode(*cfg, ion.NewCache(fsys, cfg.CacheBlocks))
	}
	srv := NewServer(eng, tree.ION(), fsys)
	srv.AttachION(node)
	r := &ionRig{eng: eng, tree: tree, fsys: fsys, node: node, srv: srv,
		clients: make(map[int]*Client), units: make(map[int]*upc.Set)}
	for _, id := range ids {
		cl := NewClient(tree.CN(id))
		cl.AttachION(node)
		u := new(upc.Set)
		cl.AttachUPC(u)
		r.clients[id] = cl
		r.units[id] = u
	}
	return r
}

// TestIONPathEndToEnd drives several compute nodes through one ION-armed
// daemon: every write lands in the buffer cache, fsync makes it durable,
// and reads see cached extents before any flush.
func TestIONPathEndToEnd(t *testing.T) {
	r := newIONRig(4, &ion.Config{QueueDepth: 4, CacheBlocks: 32})
	for cn := 0; cn < 4; cn++ {
		cn := cn
		cl := r.clients[cn]
		r.eng.Go(fmt.Sprintf("cn%d", cn), func(c *sim.Coro) {
			pid := uint32(cn + 1)
			if rep := cl.Call(c, &Request{Op: OpProcStart, PID: pid}); rep.Errno != kernel.OK {
				t.Errorf("cn%d proc start: %v", cn, rep.Errno)
				return
			}
			path := fmt.Sprintf("/gpfs/rank%d.out", cn)
			rep := cl.Call(c, &Request{Op: OpOpen, PID: pid, TID: 1, Path: path,
				Flags: kernel.OCreat | kernel.ORdwr, Mode: 0644})
			if rep.Errno != kernel.OK {
				t.Errorf("cn%d open: %v", cn, rep.Errno)
				return
			}
			fd := int32(rep.Ret)
			payload := bytes.Repeat([]byte{byte('A' + cn)}, 600)
			if rep := cl.Call(c, &Request{Op: OpWrite, PID: pid, TID: 1, FD: fd, Data: payload}); rep.Ret != 600 {
				t.Errorf("cn%d write ret %d: %v", cn, rep.Ret, rep.Errno)
			}
			// The cached read must see the unflushed write.
			cl.Call(c, &Request{Op: OpLseek, PID: pid, TID: 1, FD: fd, Whence: int32(kernel.SeekSet)})
			if rep := cl.Call(c, &Request{Op: OpRead, PID: pid, TID: 1, FD: fd, Size: 600}); !bytes.Equal(rep.Data, payload) {
				t.Errorf("cn%d read-back mismatch (%d bytes)", cn, len(rep.Data))
			}
			if rep := cl.Call(c, &Request{Op: OpFsync, PID: pid, TID: 1, FD: fd}); rep.Errno != kernel.OK {
				t.Errorf("cn%d fsync: %v", cn, rep.Errno)
			}
			cl.Call(c, &Request{Op: OpClose, PID: pid, TID: 1, FD: fd})
			cl.Call(c, &Request{Op: OpProcExit, PID: pid})
		})
	}
	r.eng.RunUntilIdle()
	r.eng.Shutdown()
	for cn := 0; cn < 4; cn++ {
		data, errno := r.fsys.ReadFile(fmt.Sprintf("/gpfs/rank%d.out", cn), fs.Root)
		if errno != kernel.OK || !bytes.Equal(data, bytes.Repeat([]byte{byte('A' + cn)}, 600)) {
			t.Fatalf("cn%d file not durable after fsync+close: %v len=%d", cn, errno, len(data))
		}
	}
	st := r.node.Stats()
	if st.Admitted == 0 || st.Flushes == 0 {
		t.Fatalf("ion stats show no traffic: %+v", st)
	}
	if st.Depth != 0 {
		t.Fatalf("credits leaked: depth %d after idle", st.Depth)
	}
}

// TestIONWriteCoalescing queues adjacent same-fd writes on one proxy
// thread and checks the daemon merges them into one batch.
func TestIONWriteCoalescing(t *testing.T) {
	r := newIONRig(1, &ion.Config{QueueDepth: 8, CacheBlocks: 16, CoalesceMax: 4})
	cl := r.clients[0]
	ep := r.tree.CN(0)
	var fd int32
	r.eng.Go("cn0", func(c *sim.Coro) {
		cl.Call(c, &Request{Op: OpProcStart, PID: 1})
		rep := cl.Call(c, &Request{Op: OpOpen, PID: 1, TID: 1, Path: "/gpfs/coal.out",
			Flags: kernel.OCreat | kernel.OWronly, Mode: 0644})
		fd = int32(rep.Ret)
		// Fire three writes back-to-back without waiting for replies, so
		// they pile up on the same proxy thread's queue and the coalescer
		// sees them together. Tags are far from the client's own stream.
		for i := 0; i < 3; i++ {
			req := &Request{Op: OpWrite, PID: 1, TID: 1, FD: fd,
				Data: bytes.Repeat([]byte{byte('0' + i)}, 100)}
			tag := uint32(1000 + i)
			r.node.Acquire(c, 0, nil)
			ep.Send(-1, tag, MarshalRequest(req))
		}
		for i := 0; i < 3; i++ {
			msg := ep.RecvTag(c, uint32(1000+i))
			rep, err := UnmarshalReply(msg.Data)
			if err != nil || rep.Errno != kernel.OK || rep.Ret != 100 {
				t.Errorf("burst write %d: %v %+v", i, err, rep)
			}
		}
		cl.Call(c, &Request{Op: OpFsync, PID: 1, TID: 1, FD: fd})
	})
	r.eng.RunUntilIdle()
	r.eng.Shutdown()
	if st := r.node.Stats(); st.Coalesced == 0 {
		t.Fatalf("no coalescing despite queued same-fd writes: %+v", st)
	}
	data, _ := r.fsys.ReadFile("/gpfs/coal.out", fs.Root)
	want := append(append(bytes.Repeat([]byte{'0'}, 100), bytes.Repeat([]byte{'1'}, 100)...),
		bytes.Repeat([]byte{'2'}, 100)...)
	if !bytes.Equal(data, want) {
		t.Fatalf("coalesced writes corrupted the file: len=%d", len(data))
	}
}

// TestIONBackpressureStalls saturates a depth-1 ingress queue from two
// compute nodes: both must finish correctly and at least one must record
// stall cycles on its own chip's UPC unit.
func TestIONBackpressureStalls(t *testing.T) {
	r := newIONRig(2, &ion.Config{QueueDepth: 1, CacheBlocks: 16})
	for cn := 0; cn < 2; cn++ {
		cn := cn
		cl := r.clients[cn]
		r.eng.Go(fmt.Sprintf("cn%d", cn), func(c *sim.Coro) {
			pid := uint32(cn + 1)
			cl.Call(c, &Request{Op: OpProcStart, PID: pid})
			rep := cl.Call(c, &Request{Op: OpOpen, PID: pid, TID: 1,
				Path: fmt.Sprintf("/gpfs/bp%d", cn), Flags: kernel.OCreat | kernel.OWronly, Mode: 0644})
			fd := int32(rep.Ret)
			for i := 0; i < 8; i++ {
				cl.Call(c, &Request{Op: OpWrite, PID: pid, TID: 1, FD: fd,
					Data: bytes.Repeat([]byte{byte(i)}, 512)})
			}
			cl.Call(c, &Request{Op: OpClose, PID: pid, TID: 1, FD: fd})
		})
	}
	r.eng.RunUntilIdle()
	r.eng.Shutdown()
	stalls := r.units[0].Get(upc.ChipScope, upc.IONStall) + r.units[1].Get(upc.ChipScope, upc.IONStall)
	if stalls == 0 {
		t.Fatal("depth-1 queue under two writers recorded no stalls")
	}
	for cn := 0; cn < 2; cn++ {
		data, errno := r.fsys.ReadFile(fmt.Sprintf("/gpfs/bp%d", cn), fs.Root)
		if errno != kernel.OK || len(data) != 8*512 {
			t.Fatalf("cn%d data incomplete under backpressure: %v len=%d", cn, errno, len(data))
		}
	}
	if st := r.node.Stats(); st.Depth != 0 || st.MaxDepth != 1 {
		t.Fatalf("credit accounting: %+v", st)
	}
}

// TestIONAppendMultiProxy has three compute nodes append records to the
// same file through the write-back cache. O_APPEND must position each
// write at the *effective* EOF — cached unflushed extents included — so
// after flush no record is lost, torn, or overwritten, whatever the
// interleaving of the three proxies.
func TestIONAppendMultiProxy(t *testing.T) {
	const nCN, records, recLen = 3, 4, 128
	r := newIONRig(nCN, &ion.Config{QueueDepth: 2, CacheBlocks: 8})
	for cn := 0; cn < nCN; cn++ {
		cn := cn
		cl := r.clients[cn]
		r.eng.Go(fmt.Sprintf("cn%d", cn), func(c *sim.Coro) {
			pid := uint32(cn + 1)
			cl.Call(c, &Request{Op: OpProcStart, PID: pid})
			rep := cl.Call(c, &Request{Op: OpOpen, PID: pid, TID: 1, Path: "/gpfs/shared.log",
				Flags: kernel.OCreat | kernel.OWronly | kernel.OAppend, Mode: 0644})
			if rep.Errno != kernel.OK {
				t.Errorf("cn%d open: %v", cn, rep.Errno)
				return
			}
			fd := int32(rep.Ret)
			for i := 0; i < records; i++ {
				rec := bytes.Repeat([]byte{byte('a' + cn)}, recLen)
				if rep := cl.Call(c, &Request{Op: OpWrite, PID: pid, TID: 1, FD: fd, Data: rec}); rep.Ret != recLen {
					t.Errorf("cn%d append %d ret %d: %v", cn, i, rep.Ret, rep.Errno)
				}
			}
			cl.Call(c, &Request{Op: OpFsync, PID: pid, TID: 1, FD: fd})
			cl.Call(c, &Request{Op: OpClose, PID: pid, TID: 1, FD: fd})
		})
	}
	r.eng.RunUntilIdle()
	r.eng.Shutdown()
	data, errno := r.fsys.ReadFile("/gpfs/shared.log", fs.Root)
	if errno != kernel.OK || len(data) != nCN*records*recLen {
		t.Fatalf("appended file: errno %v len %d, want %d", errno, len(data), nCN*records*recLen)
	}
	got := make(map[byte]int)
	for off := 0; off < len(data); off += recLen {
		rec := data[off : off+recLen]
		for _, b := range rec {
			if b != rec[0] {
				t.Fatalf("torn record at offset %d", off)
			}
		}
		got[rec[0]]++
	}
	for cn := 0; cn < nCN; cn++ {
		if got[byte('a'+cn)] != records {
			t.Fatalf("cn%d records lost: found %d of %d (%v)", cn, got[byte('a'+cn)], records, got)
		}
	}
}

// TestIONCrashFlushesEIOAndDropsCache arms an ion_crash fault: the whole
// I/O node dies after N served calls, armed or not. The caller sees the
// death and rides the retry path to completion. On the armed node the
// unflushed write is lost with the cache and the credit pool drains back
// to zero depth.
func TestIONCrashFlushesEIOAndDropsCache(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  *ion.Config
	}{
		{"unarmed", nil},
		{"armed", &ion.Config{QueueDepth: 4, CacheBlocks: 16}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			r := newIONRig(1, mode.cfg)
			inj := ras.NewInjector(r.eng, ras.NewLog(), ras.Plan{Seed: 7, IONCrashEvery: 4})
			r.srv.SetFaults(inj.Node(-1), 20_000)
			cl := r.clients[0]
			cl.SetRetryPolicy(DefaultRetryPolicy())
			var errs []kernel.Errno
			finished := false
			r.eng.Go("cn0", func(c *sim.Coro) {
				cl.Call(c, &Request{Op: OpProcStart, PID: 1})
				rep := cl.Call(c, &Request{Op: OpOpen, PID: 1, TID: 1, Path: "/gpfs/victim",
					Flags: kernel.OCreat | kernel.OWronly, Mode: 0644})
				fd := int32(rep.Ret)
				for i := 0; i < 6; i++ {
					rep := cl.Call(c, &Request{Op: OpWrite, PID: 1, TID: 1, FD: fd, Data: []byte("unflushed")})
					errs = append(errs, rep.Errno)
				}
				finished = true
			})
			r.eng.RunUntilIdle()
			r.eng.Shutdown()
			if r.srv.Crashes == 0 {
				t.Fatal("ion_crash plan never fired")
			}
			if !finished {
				t.Fatal("the caller never finished its writes")
			}
			sawEIO := false
			for _, e := range errs {
				if e == kernel.EIO || e == kernel.ESRCH {
					sawEIO = true
				}
			}
			if !sawEIO {
				t.Fatalf("no caller saw the ION die: errnos %v", errs)
			}
			if mode.cfg == nil {
				return
			}
			if r.node.Cache().DirtyBlocks() != 0 {
				t.Fatal("dirty blocks survived the ION crash")
			}
			if st := r.node.Stats(); st.Depth != 0 {
				t.Fatalf("credits leaked through the crash: depth %d", st.Depth)
			}
		})
	}
}

// TestIONPathDeterministic runs the contended end-to-end scenario twice
// and requires identical counter sets — the bit-identity contract the
// machine-level harness relies on.
func TestIONPathDeterministic(t *testing.T) {
	runOnce := func() (string, string) {
		r := newIONRig(4, &ion.Config{QueueDepth: 2, CacheBlocks: 8})
		for cn := 0; cn < 4; cn++ {
			cn := cn
			cl := r.clients[cn]
			r.eng.Go(fmt.Sprintf("cn%d", cn), func(c *sim.Coro) {
				pid := uint32(cn + 1)
				cl.Call(c, &Request{Op: OpProcStart, PID: pid})
				rep := cl.Call(c, &Request{Op: OpOpen, PID: pid, TID: 1,
					Path: fmt.Sprintf("/gpfs/d%d", cn), Flags: kernel.OCreat | kernel.OWronly, Mode: 0644})
				fd := int32(rep.Ret)
				for i := 0; i < 5; i++ {
					cl.Call(c, &Request{Op: OpWrite, PID: pid, TID: 1, FD: fd,
						Data: bytes.Repeat([]byte{byte(cn)}, 300)})
				}
				cl.Call(c, &Request{Op: OpFsync, PID: pid, TID: 1, FD: fd})
				cl.Call(c, &Request{Op: OpClose, PID: pid, TID: 1, FD: fd})
			})
		}
		r.eng.RunUntilIdle()
		r.eng.Shutdown()
		stalls := ""
		for cn := 0; cn < 4; cn++ {
			stalls += fmt.Sprint(r.units[cn].Get(upc.ChipScope, upc.IONStallCycles), ";")
		}
		return fmt.Sprintf("%+v", r.node.Stats()), stalls
	}
	s1, st1 := runOnce()
	s2, st2 := runOnce()
	if s1 != s2 || st1 != st2 {
		t.Fatalf("runs diverged:\n%s / %s\nvs\n%s / %s", s1, st1, s2, st2)
	}
}
