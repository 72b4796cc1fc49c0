package ctrlsys

import (
	"fmt"

	"bgcnk/internal/machine"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// Journal record kinds. One kind per scheduler state transition; the WAL
// itself treats them as opaque. Kind numbers are part of the durable
// format — append, never renumber.
const (
	recJobSubmit    = 1  // job entered the queue
	recPartAlloc    = 2  // partition block reserved (base -1 = drain-virtual)
	recPartBoot     = 3  // partition boot issued with its job seed
	recJobStart     = 4  // job launched on its partition
	recCkptCommit   = 5  // resilience resume point made durable
	recJobComplete  = 6  // job finished; body carries the full JobResult
	recPartFree     = 7  // partition block released
	recOrphanKill   = 8  // recovery killed a started-but-unfinished job
	recStrike       = 9  // midplane struck by a job-killing fault
	recBlacklist    = 10 // midplane drained after too many strikes
	recRecoverBegin = 11 // recovery incarnation started reconciling
	recRecoverEnd   = 12 // reconciliation finished
)

// JournalConfig arms the service node's write-ahead journal.
type JournalConfig struct {
	Enabled bool
	// Dir is the journal directory on the control store
	// (default "/ctrl/wal").
	Dir string
	// SegmentBytes is the rotation threshold (default wal's).
	SegmentBytes int
}

func (c JournalConfig) normalized() JournalConfig {
	if c.Dir == "" {
		c.Dir = "/ctrl/wal"
	}
	return c
}

// jenc/jdec are the journal-body codec, in the same strict little-endian
// style as the checkpoint image codec: every length is bounded, every
// read checked, and a decode must consume the body exactly.
type jenc struct{ b []byte }

func (e *jenc) u8(v uint8) { e.b = append(e.b, v) }
func (e *jenc) b1(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *jenc) u32(v uint32)  { e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }
func (e *jenc) i32(v int32)   { e.u32(uint32(v)) }
func (e *jenc) u64(v uint64)  { e.u32(uint32(v)); e.u32(uint32(v >> 32)) }
func (e *jenc) str(s string)  { e.u32(uint32(len(s))); e.b = append(e.b, s...) }
func (e *jenc) blob(b []byte) { e.u32(uint32(len(b))); e.b = append(e.b, b...) }

const (
	jMaxStr   = 4096
	jMaxSlice = 1 << 20
)

type jdec struct {
	b   []byte
	off int
	err error
}

func (d *jdec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("ctrlsys: journal body: "+format, args...)
	}
}

func (d *jdec) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off+1 > len(d.b) {
		d.fail("truncated at %d", d.off)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *jdec) b1() bool { return d.u8() != 0 }

func (d *jdec) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.b) {
		d.fail("truncated at %d", d.off)
		return 0
	}
	v := uint32(d.b[d.off]) | uint32(d.b[d.off+1])<<8 | uint32(d.b[d.off+2])<<16 | uint32(d.b[d.off+3])<<24
	d.off += 4
	return v
}

func (d *jdec) i32() int32 { return int32(d.u32()) }

func (d *jdec) u64() uint64 {
	lo := d.u32()
	hi := d.u32()
	return uint64(lo) | uint64(hi)<<32
}

func (d *jdec) str() string {
	n := int(d.u32())
	if d.err != nil {
		return ""
	}
	if n > jMaxStr || d.off+n > len(d.b) {
		d.fail("string of %d bytes at %d", n, d.off)
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *jdec) blob() []byte {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if n > jMaxSlice || d.off+n > len(d.b) {
		d.fail("blob of %d bytes at %d", n, d.off)
		return nil
	}
	b := make([]byte, n)
	copy(b, d.b[d.off:d.off+n])
	d.off += n
	return b
}

func (d *jdec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("ctrlsys: journal body: %d trailing bytes", len(d.b)-d.off)
	}
	return nil
}

// marshalJob encodes the job spec a submit record carries. Replay keeps
// it, so Drain can reject a re-presented queue that differs from what
// the node accepted.
func marshalJob(j Job) []byte {
	var e jenc
	e.i32(int32(j.ID))
	e.str(j.Name)
	e.i32(int32(j.Midplanes))
	e.u64(uint64(j.Work))
	e.i32(int32(j.Exchanges))
	e.u64(uint64(j.IOBytes))
	return e.b
}

func unmarshalJob(b []byte) (Job, error) {
	d := jdec{b: b}
	j := Job{
		ID:        int(d.i32()),
		Name:      d.str(),
		Midplanes: int(d.i32()),
		Work:      sim.Cycles(d.u64()),
		Exchanges: int(d.i32()),
	}
	j.IOBytes = int(d.u64())
	return j, d.finish()
}

// idBody is the one-integer body shared by start/free/orphan records.
func idBody(id int) []byte {
	var e jenc
	e.i32(int32(id))
	return e.b
}

func decodeID(b []byte) (int, error) {
	d := jdec{b: b}
	id := int(d.i32())
	return id, d.finish()
}

func tripleBody(a, b, c int) []byte {
	var e jenc
	e.i32(int32(a))
	e.i32(int32(b))
	e.i32(int32(c))
	return e.b
}

func decodeTriple(b []byte) (int, int, int, error) {
	d := jdec{b: b}
	x := int(d.i32())
	y := int(d.i32())
	z := int(d.i32())
	return x, y, z, d.finish()
}

func bootBody(id int, seed uint64) []byte {
	var e jenc
	e.i32(int32(id))
	e.u64(seed)
	return e.b
}

func decodeBoot(b []byte) (int, uint64, error) {
	d := jdec{b: b}
	id := int(d.i32())
	seed := d.u64()
	return id, seed, d.finish()
}

func (e *jenc) bootResult(br BootResult) {
	e.u8(uint8(br.Kind))
	e.i32(int32(br.Nodes))
	e.u64(br.ImageBytes)
	e.i32(int32(br.Waves))
	e.u64(uint64(br.ImagePhase))
	e.u64(uint64(br.PerNodePhase))
	e.u64(uint64(br.InitPhase))
	e.u64(uint64(br.Total))
}

func (d *jdec) bootResult() BootResult {
	return BootResult{
		Kind:         machine.KernelKind(d.u8()),
		Nodes:        int(d.i32()),
		ImageBytes:   d.u64(),
		Waves:        int(d.i32()),
		ImagePhase:   sim.Cycles(d.u64()),
		PerNodePhase: sim.Cycles(d.u64()),
		InitPhase:    sim.Cycles(d.u64()),
		Total:        sim.Cycles(d.u64()),
	}
}

func (e *jenc) snapshot(s upc.Snapshot) {
	// Counter dimensions are baked into the format; a journal from a
	// different build geometry must not half-decode.
	e.i32(int32(upc.NumSlots))
	e.i32(int32(upc.NumCounters))
	e.i32(int32(upc.MaxSyscalls))
	for sl := 0; sl < upc.NumSlots; sl++ {
		for c := 0; c < int(upc.NumCounters); c++ {
			e.u64(s.Vals[sl][c])
		}
		for c := 0; c < upc.MaxSyscalls; c++ {
			e.u64(s.Sys[sl][c])
		}
	}
}

func (d *jdec) snapshot() upc.Snapshot {
	var s upc.Snapshot
	if int(d.i32()) != upc.NumSlots || int(d.i32()) != int(upc.NumCounters) || int(d.i32()) != upc.MaxSyscalls {
		d.fail("counter geometry mismatch")
		return s
	}
	for sl := 0; sl < upc.NumSlots; sl++ {
		for c := 0; c < int(upc.NumCounters); c++ {
			s.Vals[sl][c] = d.u64()
		}
		for c := 0; c < upc.MaxSyscalls; c++ {
			s.Sys[sl][c] = d.u64()
		}
	}
	return s
}

func (e *jenc) attempt(a Attempt) {
	e.u64(uint64(a.Boot))
	e.u64(uint64(a.Run))
	e.i32(int32(a.ResumeEpoch))
	e.i32(int32(a.FaultMidplane))
	e.u64(uint64(a.Backoff))
	e.b1(a.Completed)
}

func (d *jdec) attempt() Attempt {
	return Attempt{
		Boot:          sim.Cycles(d.u64()),
		Run:           sim.Cycles(d.u64()),
		ResumeEpoch:   int(d.i32()),
		FaultMidplane: int(d.i32()),
		Backoff:       sim.Cycles(d.u64()),
		Completed:     d.b1(),
	}
}

// marshalJobResult flattens a complete JobResult into a journal body.
// Everything that enters DrainResult.Signature must round-trip exactly:
// a recovered drain's accounting is only bit-identical if replay hands
// back precisely what the dead node committed.
func marshalJobResult(r *JobResult) []byte {
	var e jenc
	e.b = append(e.b, marshalJob(r.Job)...)
	e.i32(int32(r.Nodes))
	e.bootResult(r.Boot)
	e.u64(uint64(r.Run))
	e.u64(uint64(r.Teardown))
	e.i32(int32(len(r.ExitCodes)))
	for _, c := range r.ExitCodes {
		e.i32(int32(c))
	}
	e.snapshot(r.Counters)
	e.u64(r.RASEvents)
	e.u64(r.RASHash)
	e.str(r.Err)
	e.i32(int32(len(r.Attempts)))
	for _, a := range r.Attempts {
		e.attempt(a)
	}
	e.i32(int32(r.Restarts))
	e.u64(uint64(r.Wasted))
	e.u64(uint64(r.RestartOverhead))
	e.b1(r.BudgetExhausted)
	e.b1(r.CrashAborted)
	return e.b
}

func (d *jdec) jobResult() *JobResult {
	r := &JobResult{}
	r.Job = Job{
		ID:        int(d.i32()),
		Name:      d.str(),
		Midplanes: int(d.i32()),
		Work:      sim.Cycles(d.u64()),
		Exchanges: int(d.i32()),
		IOBytes:   int(d.u64()),
	}
	r.Nodes = int(d.i32())
	r.Boot = d.bootResult()
	r.Run = sim.Cycles(d.u64())
	r.Teardown = sim.Cycles(d.u64())
	n := int(d.i32())
	if d.err == nil && (n < 0 || n > jMaxSlice/4) {
		d.fail("exit-code count %d", n)
	}
	if d.err == nil {
		r.ExitCodes = make([]int, n)
		for i := range r.ExitCodes {
			r.ExitCodes[i] = int(d.i32())
		}
	}
	r.Counters = d.snapshot()
	r.RASEvents = d.u64()
	r.RASHash = d.u64()
	r.Err = d.str()
	na := int(d.i32())
	if d.err == nil && (na < 0 || na > 4096) {
		d.fail("attempt count %d", na)
	}
	if d.err == nil {
		for i := 0; i < na; i++ {
			r.Attempts = append(r.Attempts, d.attempt())
		}
	}
	r.Restarts = int(d.i32())
	r.Wasted = sim.Cycles(d.u64())
	r.RestartOverhead = sim.Cycles(d.u64())
	r.BudgetExhausted = d.b1()
	r.CrashAborted = d.b1()
	return r
}

func unmarshalJobResult(b []byte) (*JobResult, error) {
	d := jdec{b: b}
	r := d.jobResult()
	return r, d.finish()
}

// resumePoint is the resilience layer's loop state at a checkpoint
// commit: everything runJobResilientFrom needs to continue the restart
// loop exactly where the dead service node left it. res holds the
// partial accounting, rasHash the per-attempt fold so far, next the
// attempt index to run, and image the freshest durable checkpoint blob
// (empty = cold restart).
type resumePoint struct {
	res     JobResult
	rasHash uint64
	next    int
	image   []byte
}

func marshalResume(rp *resumePoint) []byte {
	var e jenc
	body := marshalJobResult(&rp.res)
	e.blob(body)
	e.u64(rp.rasHash)
	e.i32(int32(rp.next))
	e.blob(rp.image)
	return e.b
}

func unmarshalResume(b []byte) (*resumePoint, error) {
	d := jdec{b: b}
	body := d.blob()
	rp := &resumePoint{rasHash: d.u64(), next: int(d.i32()), image: d.blob()}
	if err := d.finish(); err != nil {
		return nil, err
	}
	res, err := unmarshalJobResult(body)
	if err != nil {
		return nil, err
	}
	rp.res = *res
	return rp, nil
}

// completeBody pairs the job ID with its full result.
func completeBody(id int, r *JobResult) []byte {
	var e jenc
	e.i32(int32(id))
	e.blob(marshalJobResult(r))
	return e.b
}

func decodeComplete(b []byte) (int, *JobResult, error) {
	d := jdec{b: b}
	id := int(d.i32())
	body := d.blob()
	if err := d.finish(); err != nil {
		return 0, nil, err
	}
	r, err := unmarshalJobResult(body)
	return id, r, err
}

// ckptCommitRaw pairs the job ID with an already-marshalled resume
// point (the bytes the resilience loop's commit hook handed over).
func ckptCommitRaw(id int, rp []byte) []byte {
	var e jenc
	e.i32(int32(id))
	e.blob(rp)
	return e.b
}

func decodeCkptCommit(b []byte) (int, *resumePoint, error) {
	d := jdec{b: b}
	id := int(d.i32())
	body := d.blob()
	if err := d.finish(); err != nil {
		return 0, nil, err
	}
	rp, err := unmarshalResume(body)
	return id, rp, err
}
