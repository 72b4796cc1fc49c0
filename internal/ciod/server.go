package ciod

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"bgcnk/internal/collective"
	"bgcnk/internal/fs"
	"bgcnk/internal/ion"
	"bgcnk/internal/kernel"
	"bgcnk/internal/obs"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// Costs on the I/O-node side (Linux syscall execution plus the CIOD shared
// buffer handoff of paper Fig 2).
const (
	costDispatch = sim.Cycles(600)  // CIOD retrieve + route via shared buffer
	costExecute  = sim.Cycles(2500) // Linux syscall on the I/O node
	// costCoalescedWrite is what each extra same-fd write merged into one
	// batch costs instead of a full costExecute — the request coalescer's
	// win on the serving side.
	costCoalescedWrite = sim.Cycles(400)
)

// proxyKey identifies an ioproxy: compute-node endpoint plus process ID
// (PIDs are only unique per node).
type proxyKey struct {
	node int
	pid  uint32
}

// Server is the Control and I/O Daemon running on an I/O node: it
// retrieves messages from the collective network and directs them to
// ioproxy threads; each ioproxy is associated with a specific compute-node
// process and mirrors its filesystem state.
type Server struct {
	eng  *sim.Engine
	ep   *collective.Endpoint
	fs   *fs.FS
	prox map[proxyKey]*ioproxy

	// faults draws seeded reply drops and daemon crashes; nil on a
	// perfect machine. down is true between a crash and the respawn; gen
	// counts daemon incarnations so a respawn event scheduled before a
	// partition reboot cannot revive the daemon the reboot replaced.
	faults       *ras.NodeFaults
	restartDelay sim.Cycles
	down         bool
	gen          uint64

	// ion is this daemon's I/O node: every disposed message releases its
	// ingress credit, same-fd writes batch up to its CoalesceMax, and
	// regular-file data moves through its buffer cache when it has one.
	// Nil is the unarmed node.
	ion *ion.Node

	// obs, when non-nil, receives one io span per served batch
	// (execute→reply); node is the ION's span pid, -(tree+1).
	obs     *obs.Recorder
	obsNode int

	Calls   uint64 // function-shipped calls served
	Proxies int    // ioproxies ever created
	Crashes int    // daemon crash+restart cycles
}

// AttachObs wires the machine-wide span recorder; node is this I/O
// node's span pid (the machine uses -(tree+1)).
func (s *Server) AttachObs(r *obs.Recorder, node int) {
	s.obs = r
	s.obsNode = node
}

type ioproxy struct {
	pid     uint32
	client  *fs.Client
	threads map[uint32]*proxyThread
}

// newProxy builds the ioproxy mirroring process pid, which runs with
// credentials (uid, gid), over the daemon's filesystem.
func (s *Server) newProxy(pid, uid, gid uint32) *ioproxy {
	return &ioproxy{
		pid:     pid,
		client:  fs.NewClient(s.fs, fs.Cred{UID: uid, GID: gid}),
		threads: make(map[uint32]*proxyThread),
	}
}

// addProxy registers p under key and counts it in Proxies.
func (s *Server) addProxy(key proxyKey, p *ioproxy) {
	s.prox[key] = p
	s.Proxies++
}

// sortedKeys returns the live proxies' keys in (node, pid) order, so
// teardown visits them deterministically.
func (s *Server) sortedKeys() []proxyKey {
	return slices.SortedFunc(maps.Keys(s.prox), func(a, b proxyKey) int {
		return cmp.Or(cmp.Compare(a.node, b.node), cmp.Compare(a.pid, b.pid))
	})
}

// sortedTIDs returns the proxy's thread IDs in ascending order.
func (p *ioproxy) sortedTIDs() []uint32 { return slices.Sorted(maps.Keys(p.threads)) }

type proxyThread struct {
	queue []pendingCall
	coro  *sim.Coro
	// dead tells the proxy coroutine to exit: its process left or the
	// daemon crashed. Any reply it produces after dying is discarded.
	dead bool
}

type pendingCall struct {
	req  *Request
	from int
	tag  uint32
}

// NewServer starts CIOD on the given tree endpoint, serving filesystem f.
// The dispatcher coroutine starts immediately.
func NewServer(eng *sim.Engine, ep *collective.Endpoint, f *fs.FS) *Server {
	s := &Server{eng: eng, ep: ep, fs: f, prox: make(map[proxyKey]*ioproxy)}
	eng.Go("ciod", s.dispatcher)
	return s
}

// SetFaults wires the I/O node's seeded fault source into the daemon:
// replies may be dropped, and after a configured number of served calls
// the daemon crashes and respawns restartDelay cycles later.
func (s *Server) SetFaults(f *ras.NodeFaults, restartDelay sim.Cycles) {
	s.faults = f
	s.restartDelay = restartDelay
}

// AttachION gives the daemon its I/O node (nil: unarmed). The same Node
// must be attached to every Client sharing this daemon; the server
// releases each admitted message's ingress credit at exactly one of its
// disposal points (served, EIO-flushed, EINVAL-rejected, or dropped by a
// dead daemon), and resets the node whenever it drops its proxies.
func (s *Server) AttachION(n *ion.Node) { s.ion = n }

// dispatcher is CIOD's main loop: receive, route to the proxy thread.
func (s *Server) dispatcher(c *sim.Coro) {
	for {
		msg := s.ep.Recv(c)
		if s.down {
			// Messages addressed to a dead daemon vanish; the client's
			// timeout/retry path covers the loss.
			s.ion.Release()
			continue
		}
		c.Sleep(costDispatch)
		req, err := UnmarshalRequest(msg.Data)
		if err != nil {
			s.ep.Send(msg.From, msg.Tag, MarshalReply(&Reply{Errno: kernel.EINVAL}))
			s.ion.Release()
			continue
		}
		s.route(req, msg.From, msg.Tag)
	}
}

func (s *Server) route(req *Request, from int, tag uint32) {
	key := proxyKey{node: from, pid: req.PID}
	switch req.Op {
	case OpProcStart:
		s.addProxy(key, s.newProxy(req.PID, req.UID, req.GID))
		s.ep.Send(from, tag, MarshalReply(&Reply{}))
		s.ion.Release()
		return
	case OpProcExit:
		// Fail any calls still queued on the dying proxy's threads with
		// EIO before tearing it down — otherwise the compute-node
		// coroutines behind them would block forever on replies that can
		// no longer come.
		if p, ok := s.prox[key]; ok {
			s.flushProxyFiles(p)
			s.failProxy(p)
		}
		delete(s.prox, key)
		s.ep.Send(from, tag, MarshalReply(&Reply{}))
		s.ion.Release()
		return
	}
	p, ok := s.prox[key]
	if !ok {
		s.ep.Send(from, tag, MarshalReply(&Reply{Errno: kernel.ESRCH}))
		s.ion.Release()
		return
	}
	// One proxy thread per application thread (paper Section IV-A): the
	// thread is created lazily on its first shipped call.
	t, ok := p.threads[req.TID]
	if !ok {
		t = &proxyThread{}
		p.threads[req.TID] = t
		pid, tid := req.PID, req.TID
		t.coro = s.eng.Go(fmt.Sprintf("ioproxy.%d.%d", pid, tid), func(c *sim.Coro) {
			s.proxyLoop(c, p, t)
		})
	}
	t.queue = append(t.queue, pendingCall{req: req, from: from, tag: tag})
	t.coro.Wake()
}

func (s *Server) proxyLoop(c *sim.Coro, p *ioproxy, t *proxyThread) {
	for {
		for len(t.queue) == 0 {
			if t.dead {
				return
			}
			c.Park(sim.Forever)
		}
		if t.dead {
			return
		}
		call := t.queue[0]
		t.queue = t.queue[1:]
		// Request coalescing: adjacent queued writes to the same
		// descriptor merge into one batch that pays a single costExecute
		// plus a small per-extra cost, instead of a full syscall each —
		// the fan-in's bandwidth win. The unarmed node batches one call.
		batch := []pendingCall{call}
		if call.req.Op == OpWrite {
			for len(batch) < s.ion.CoalesceMax() && len(t.queue) > 0 {
				nxt := t.queue[0]
				if nxt.req.Op != OpWrite || nxt.req.FD != call.req.FD {
					break
				}
				batch = append(batch, nxt)
				t.queue = t.queue[1:]
			}
		}
		execStart := c.Now()
		c.Sleep(costExecute + costCoalescedWrite*sim.Cycles(len(batch)-1))
		if len(batch) > 1 {
			s.ion.Counters().Add(upc.ChipScope, upc.IONCoalesce, uint64(len(batch)-1))
		}
		for _, pc := range batch {
			if t.dead {
				// The daemon died mid-batch: the rest of the batch was
				// conceptually still queued, so it gets the same EIO flush
				// a crash gives queued calls.
				s.ep.Send(pc.from, pc.tag, MarshalReply(&Reply{Errno: kernel.EIO}))
				s.ion.Release()
				continue
			}
			rep := s.execute(c, p, pc.req)
			s.Calls++
			if t.dead {
				// Died during execution; the reply has nowhere to go (the
				// crash already flushed EIO for whatever was still queued).
				s.ion.Release()
				continue
			}
			if !s.faults.ReplyDrop() {
				s.ep.Send(pc.from, pc.tag, MarshalReply(rep))
			}
			s.ion.Release()
			if s.faults.CrashDue() {
				s.crash()
			}
			if s.faults.IONCrashDue() {
				// The whole I/O node dies: the daemon crashes exactly as
				// under CrashDue, and the buffer cache, if any, loses
				// every unflushed block.
				if !s.down {
					s.crash()
				}
				s.ion.Crash()
			}
		}
		s.obs.Emit(obs.CatIO, "ciod:execute", s.obsNode, int(p.pid), execStart, c.Now(), uint64(len(batch)))
		if t.dead {
			return
		}
	}
}

// failProxy flushes EIO replies for every call still queued on the
// proxy's threads and retires the threads, in deterministic (TID) order.
func (s *Server) failProxy(p *ioproxy) {
	for _, tid := range p.sortedTIDs() {
		t := p.threads[tid]
		for _, call := range t.queue {
			s.ep.Send(call.from, call.tag, MarshalReply(&Reply{Errno: kernel.EIO}))
			s.ion.Release()
		}
		t.retire()
	}
}

// retire discards the thread's queue and tells its coroutine to exit.
func (t *proxyThread) retire() {
	t.queue = nil
	t.dead = true
	if t.coro != nil {
		t.coro.Wake()
	}
}

// flushProxyFiles writes back dirty cache blocks for every regular file
// the proxy holds open: process exit must leave its output durable even
// without explicit closes. Ascending-fd order keeps it deterministic;
// nil coroutine models the daemon's background writeback.
func (s *Server) flushProxyFiles(p *ioproxy) {
	files := s.files(p)
	for _, f := range p.client.OpenFiles() {
		flush(nil, p.client, files, f.FD)
	}
}

// crash kills the daemon: every ioproxy dies with it (queued calls get a
// last-gasp EIO flush from the shared buffer), inbound messages are
// dropped until the control system respawns CIOD restartDelay cycles
// later. Respawned daemons know nothing of old processes, so the first
// post-restart call from a live job draws ESRCH and the compute-node
// kernel re-ships OpProcStart to reconnect.
func (s *Server) crash() {
	s.Crashes++
	s.down = true
	for _, k := range s.sortedKeys() {
		s.failProxy(s.prox[k])
	}
	s.prox = make(map[proxyKey]*ioproxy)
	delay := s.restartDelay
	if delay <= 0 {
		delay = 1
	}
	gen := s.gen
	s.eng.At(s.eng.Now()+delay, func() {
		if s.gen == gen {
			s.down = false
		}
	})
}

// DropProxies retires every ioproxy without sending anything: the proxy
// coroutines are told to exit and the map is cleared. Unlike a crash there
// is no EIO flush — the callers behind any queued calls are gone (their
// job was cleared), and replies to dead clients would only age in their
// inboxes. Queued calls' credits are not individually released either
// (their owners are dead coroutines): the I/O node is reset instead,
// which restores the whole pool and drops the job's cache residue.
func (s *Server) DropProxies() {
	for _, k := range s.sortedKeys() {
		p := s.prox[k]
		for _, tid := range p.sortedTIDs() {
			p.threads[tid].retire()
		}
	}
	s.prox = make(map[proxyKey]*ioproxy)
	s.ion.Reset(s.fs)
}

// Reset returns the daemon to its just-started state for a partition
// reboot: it comes up serving fsys (nil keeps the current filesystem),
// proxies are dropped and the I/O node reset over that filesystem, and a
// pending respawn from an earlier crash is invalidated (the rebooted
// daemon is a new incarnation).
func (s *Server) Reset(fsys *fs.FS) {
	if fsys != nil {
		s.fs = fsys
	}
	s.DropProxies()
	s.gen++
	s.down = false
}

// fileData is where a regular file's bytes live: offsets address the
// file by inode, permission checks having happened at open time. The
// I/O node's write-back buffer cache is one; fsData, the filesystem
// itself, is the other.
type fileData interface {
	Read(c *sim.Coro, ino, off uint64, count int) []byte
	Write(c *sim.Coro, ino, off uint64, data []byte)
	Size(ino uint64) uint64
	Flush(c *sim.Coro, ino uint64)
	Truncate(c *sim.Coro, ino, size uint64)
}

// fsData reads and writes regular files straight through the filesystem,
// at no cost beyond costExecute. The server passes it only inodes of open
// regular files, which the filesystem always resolves. Nothing is ever
// dirty, so Flush does nothing, and neither does Truncate: the path
// operation already resized the inode.
type fsData struct{ fs *fs.FS }

func (d fsData) Read(_ *sim.Coro, ino, off uint64, count int) []byte {
	if count <= 0 {
		return nil
	}
	b, _ := d.fs.ReadInode(ino, off, count)
	return b
}

func (d fsData) Write(_ *sim.Coro, ino, off uint64, data []byte) { d.fs.WriteInode(ino, off, data) }

func (d fsData) Size(ino uint64) uint64 {
	n, _ := d.fs.InodeSize(ino)
	return n
}

func (fsData) Flush(*sim.Coro, uint64)            {}
func (fsData) Truncate(*sim.Coro, uint64, uint64) {}

// files picks where the proxy's regular-file bytes live: the I/O node's
// buffer cache when it has one, otherwise the filesystem the proxy
// opened them on.
func (s *Server) files(p *ioproxy) fileData {
	if ca := s.ion.Cache(); ca != nil {
		return ca
	}
	return fsData{p.client.FS}
}

// regular resolves fd to the inode and offset a read or write addresses,
// with the errno the fs client would give: EBADF for a closed
// descriptor or one opened without the access (deny is the access mode
// that lacks it), EISDIR for anything but a regular file.
func regular(cl *fs.Client, fd int32, deny uint64) (ino, off, flags uint64, errno kernel.Errno) {
	ino, off, flags, isFile, errno := cl.FileInfo(int(fd))
	switch {
	case errno != kernel.OK:
	case flags&3 == deny:
		errno = kernel.EBADF
	case !isFile:
		errno = kernel.EISDIR
	}
	return ino, off, flags, errno
}

// flush writes back the dirty data of fd when it names a regular file,
// and returns EBADF when it names nothing.
func flush(c *sim.Coro, cl *fs.Client, files fileData, fd int) kernel.Errno {
	ino, _, _, isFile, errno := cl.FileInfo(fd)
	if errno == kernel.OK && isFile {
		files.Flush(c, ino)
	}
	return errno
}

// execute performs the request against the proxy's filesystem client —
// "the ioproxy decodes the message, demarshals the arguments, and performs
// the system call that was requested by the compute node process".
// Regular-file bytes and sizes come from the proxy's fileData, and stat
// and fstat flush the file first, so every answer is POSIX over unflushed
// data.
func (s *Server) execute(c *sim.Coro, p *ioproxy, r *Request) *Reply {
	cl := p.client
	files := s.files(p)
	switch r.Op {
	case OpOpen:
		fd, errno := cl.Open(r.Path, r.Flags, fs.Mode(r.Mode))
		if errno == kernel.OK && r.Flags&kernel.OTrunc != 0 && r.Flags&3 != kernel.ORdonly {
			// Open just truncated the inode underneath any cache; trim
			// cached blocks too so stale data cannot resurface.
			if ino, _, _, isFile, e := cl.FileInfo(fd); e == kernel.OK && isFile {
				files.Truncate(c, ino, 0)
			}
		}
		return &Reply{Ret: uint64(int64(fd)), Errno: errno}
	case OpClose:
		// Flush-on-close (close-to-open consistency, as NFS gives the
		// real ION): data must be durable once the descriptor is gone.
		flush(c, cl, files, int(r.FD))
		return &Reply{Errno: cl.Close(int(r.FD))}
	case OpRead:
		ino, off, _, errno := regular(cl, r.FD, kernel.OWronly)
		if errno != kernel.OK {
			return &Reply{Errno: errno}
		}
		data := files.Read(c, ino, off, int(r.Size))
		cl.SetOffset(int(r.FD), off+uint64(len(data)))
		return &Reply{Ret: uint64(len(data)), Data: data}
	case OpWrite:
		ino, off, flags, errno := regular(cl, r.FD, kernel.ORdonly)
		if errno != kernel.OK {
			return &Reply{Errno: errno}
		}
		if flags&kernel.OAppend != 0 {
			off = files.Size(ino) // effective EOF, unflushed extents included
		}
		files.Write(c, ino, off, r.Data)
		cl.SetOffset(int(r.FD), off+uint64(len(r.Data)))
		return &Reply{Ret: uint64(len(r.Data))}
	case OpLseek:
		off, whence := r.Off, int(r.Whence)
		if whence == kernel.SeekEnd {
			// The end is the effective size, unflushed extents included.
			if ino, _, _, isFile, errno := cl.FileInfo(int(r.FD)); errno == kernel.OK && isFile {
				off, whence = int64(files.Size(ino))+off, kernel.SeekSet
			}
		}
		pos, errno := cl.Lseek(int(r.FD), off, whence)
		return &Reply{Ret: pos, Errno: errno}
	case OpStat:
		if st, errno := cl.Stat(r.Path); errno == kernel.OK && st.Type == fs.TypeFile {
			files.Flush(c, st.Ino)
		}
		st, errno := cl.Stat(r.Path)
		if errno != kernel.OK {
			return &Reply{Errno: errno}
		}
		return &Reply{Ret: st.Size, Data: MarshalStat(st)}
	case OpFstat:
		flush(c, cl, files, int(r.FD))
		st, errno := cl.Fstat(int(r.FD))
		if errno != kernel.OK {
			return &Reply{Errno: errno}
		}
		return &Reply{Ret: st.Size, Data: MarshalStat(st)}
	case OpUnlink:
		return &Reply{Errno: cl.Unlink(r.Path)}
	case OpRename:
		return &Reply{Errno: cl.Rename(r.Path, r.Path2)}
	case OpMkdir:
		return &Reply{Errno: cl.Mkdir(r.Path, fs.Mode(r.Mode))}
	case OpRmdir:
		return &Reply{Errno: cl.Rmdir(r.Path)}
	case OpDup:
		fd, errno := cl.Dup(int(r.FD))
		return &Reply{Ret: uint64(int64(fd)), Errno: errno}
	case OpGetcwd:
		return &Reply{Str: cl.Cwd()}
	case OpChdir:
		return &Reply{Errno: cl.Chdir(r.Path)}
	case OpTruncate:
		// Stat resolves the path as Truncate does, so st names the
		// truncated file whenever Truncate succeeds.
		st, _ := cl.Stat(r.Path)
		errno := cl.Truncate(r.Path, r.Size)
		if errno == kernel.OK {
			files.Truncate(c, st.Ino, r.Size)
		}
		return &Reply{Errno: errno}
	case OpReaddir:
		names, errno := cl.Readdir(r.Path)
		if errno != kernel.OK {
			return &Reply{Errno: errno}
		}
		return &Reply{Data: encodeNames(names)}
	case OpFsync:
		return &Reply{Errno: flush(c, cl, files, int(r.FD))}
	}
	return &Reply{Errno: kernel.ENOSYS}
}

// encodeNames renders an OpReaddir reply payload: a u32 count, then each
// name with its u32 length.
func encodeNames(names []string) []byte {
	e := &enc{}
	e.u32(uint32(len(names)))
	for _, n := range names {
		e.str(n)
	}
	return e.b
}

// DecodeNames parses an OpReaddir reply payload. Every name takes at
// least its 4-byte length, so a count the bytes left cannot hold is
// rejected before anything is allocated, and decoding stops at the first
// truncated name.
func DecodeNames(b []byte) ([]string, error) {
	d := &dec{b: b}
	n := d.u32()
	if d.err == nil && uint64(n) > uint64(len(d.b))/4 {
		return nil, fmt.Errorf("ciod: readdir reply claims %d names in %d bytes", n, len(d.b))
	}
	names := make([]string, 0, n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		names = append(names, d.str())
	}
	if d.err != nil {
		return nil, d.err
	}
	return names, nil
}

// FileTable returns the mirrored open-file table of the ioproxy serving
// (node, pid), in ascending-fd order, or nil if no such proxy is alive.
// Checkpoints record this table: the ioproxy's descriptor state IS the
// compute process's file state (paper Section IV-A), so capturing it here
// is what lets a restarted job resume its I/O mid-file.
func (s *Server) FileTable(node int, pid uint32) []fs.OpenFileState {
	p, ok := s.prox[proxyKey{node: node, pid: pid}]
	if !ok {
		return nil
	}
	return p.client.OpenFiles()
}

// RestoreFiles rebuilds the (node, pid) ioproxy's descriptor table from a
// checkpoint image, creating the proxy if the restarted process has not
// shipped a call yet. Returns ESRCH only if no filesystem is mounted.
func (s *Server) RestoreFiles(node int, pid uint32, uid, gid uint32, files []fs.OpenFileState) kernel.Errno {
	key := proxyKey{node: node, pid: pid}
	p, ok := s.prox[key]
	if !ok {
		p = s.newProxy(pid, uid, gid)
		s.addProxy(key, p)
	}
	return p.client.RestoreFiles(files)
}

// LiveProxies reports the number of ioproxies currently alive.
func (s *Server) LiveProxies() int { return len(s.prox) }

// ProxyThreads reports the proxy-thread count for a PID, summed over
// nodes (PIDs are per-node; tests typically have one node).
func (s *Server) ProxyThreads(pid uint32) int {
	n := 0
	for k, p := range s.prox {
		if k.pid == pid {
			n += len(p.threads)
		}
	}
	return n
}
