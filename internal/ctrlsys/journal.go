package ctrlsys

import (
	"bgcnk/internal/ckpt"
	"bgcnk/internal/machine"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
	"bgcnk/internal/wire"
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

// Journal bodies are written and read with internal/wire. A length or
// count in a body is bounded only by the bytes left in it: the WAL bounds
// the body (wal.MaxBody), and replay must accept every body the node
// wrote.
func bodyDecoder(b []byte) *wire.Decoder { return wire.NewDecoder("ctrlsys: journal body", b) }

// marshalJob encodes the job spec a submit record carries. Replay keeps
// it, so Drain can reject a re-presented queue that differs from what
// the node accepted.
func marshalJob(j Job) []byte {
	var e wire.Encoder
	putJob(&e, j)
	return e.Bytes()
}

func unmarshalJob(b []byte) (Job, error) {
	d := bodyDecoder(b)
	j := getJob(d)
	return j, d.Finish()
}

func putJob(e *wire.Encoder, j Job) {
	e.I32(int32(j.ID))
	e.Str(j.Name)
	e.I32(int32(j.Midplanes))
	e.U64(uint64(j.Work))
	e.I32(int32(j.Exchanges))
	e.U64(uint64(j.IOBytes))
}

func getJob(d *wire.Decoder) Job {
	return Job{
		ID:        int(d.I32()),
		Name:      d.Str(),
		Midplanes: int(d.I32()),
		Work:      sim.Cycles(d.U64()),
		Exchanges: int(d.I32()),
		IOBytes:   int(d.U64()),
	}
}

// idBody is the one-integer body shared by start/free/orphan records.
func idBody(id int) []byte {
	var e wire.Encoder
	e.I32(int32(id))
	return e.Bytes()
}

func decodeID(b []byte) (int, error) {
	d := bodyDecoder(b)
	id := int(d.I32())
	return id, d.Finish()
}

func tripleBody(a, b, c int) []byte {
	var e wire.Encoder
	e.I32(int32(a))
	e.I32(int32(b))
	e.I32(int32(c))
	return e.Bytes()
}

func decodeTriple(b []byte) (int, int, int, error) {
	d := bodyDecoder(b)
	x := int(d.I32())
	y := int(d.I32())
	z := int(d.I32())
	return x, y, z, d.Finish()
}

func bootBody(id int, seed uint64) []byte {
	var e wire.Encoder
	e.I32(int32(id))
	e.U64(seed)
	return e.Bytes()
}

func decodeBoot(b []byte) (int, uint64, error) {
	d := bodyDecoder(b)
	id := int(d.I32())
	seed := d.U64()
	return id, seed, d.Finish()
}

func putBootResult(e *wire.Encoder, br BootResult) {
	e.U8(uint8(br.Kind))
	e.I32(int32(br.Nodes))
	e.U64(br.ImageBytes)
	e.I32(int32(br.Waves))
	e.U64(uint64(br.ImagePhase))
	e.U64(uint64(br.PerNodePhase))
	e.U64(uint64(br.InitPhase))
	e.U64(uint64(br.Total))
}

func getBootResult(d *wire.Decoder) BootResult {
	return BootResult{
		Kind:         machine.KernelKind(d.U8()),
		Nodes:        int(d.I32()),
		ImageBytes:   d.U64(),
		Waves:        int(d.I32()),
		ImagePhase:   sim.Cycles(d.U64()),
		PerNodePhase: sim.Cycles(d.U64()),
		InitPhase:    sim.Cycles(d.U64()),
		Total:        sim.Cycles(d.U64()),
	}
}

func putCounters(e *wire.Encoder, s *upc.Snapshot) {
	// Counter dimensions are baked into the format; a journal from a
	// different build geometry must not half-decode.
	e.I32(int32(upc.NumSlots))
	e.I32(int32(upc.NumCounters))
	e.I32(int32(upc.MaxSyscalls))
	ckpt.EncodeCounters(e, s)
}

func getCounters(d *wire.Decoder, s *upc.Snapshot) {
	if int(d.I32()) != upc.NumSlots || int(d.I32()) != int(upc.NumCounters) || int(d.I32()) != upc.MaxSyscalls {
		d.Fail("counter geometry mismatch")
		return
	}
	ckpt.DecodeCounters(d, s)
}

// attemptBytes is an Attempt's wire size.
const attemptBytes = 33

func putAttempt(e *wire.Encoder, a Attempt) {
	e.U64(uint64(a.Boot))
	e.U64(uint64(a.Run))
	e.I32(int32(a.ResumeEpoch))
	e.I32(int32(a.FaultMidplane))
	e.U64(uint64(a.Backoff))
	e.Bool(a.Completed)
}

func getAttempt(d *wire.Decoder) Attempt {
	return Attempt{
		Boot:          sim.Cycles(d.U64()),
		Run:           sim.Cycles(d.U64()),
		ResumeEpoch:   int(d.I32()),
		FaultMidplane: int(d.I32()),
		Backoff:       sim.Cycles(d.U64()),
		Completed:     d.Bool(),
	}
}

// marshalJobResult flattens a complete JobResult into a journal body.
// Everything that enters DrainResult.Signature must round-trip exactly:
// a recovered drain's accounting is only bit-identical if replay hands
// back precisely what the dead node committed.
func marshalJobResult(r *JobResult) []byte {
	var e wire.Encoder
	putJob(&e, r.Job)
	e.I32(int32(r.Nodes))
	putBootResult(&e, r.Boot)
	e.U64(uint64(r.Run))
	e.U64(uint64(r.Teardown))
	e.U32(uint32(len(r.ExitCodes)))
	for _, c := range r.ExitCodes {
		e.I32(int32(c))
	}
	putCounters(&e, &r.Counters)
	e.U64(r.RASEvents)
	e.U64(r.RASHash)
	e.Str(r.Err)
	e.U32(uint32(len(r.Attempts)))
	for _, a := range r.Attempts {
		putAttempt(&e, a)
	}
	e.I32(int32(r.Restarts))
	e.U64(uint64(r.Wasted))
	e.U64(uint64(r.RestartOverhead))
	e.Bool(r.BudgetExhausted)
	e.Bool(r.CrashAborted)
	return e.Bytes()
}

func unmarshalJobResult(b []byte) (*JobResult, error) {
	d := bodyDecoder(b)
	r := &JobResult{Job: getJob(d), Nodes: int(d.I32()), Boot: getBootResult(d)}
	r.Run = sim.Cycles(d.U64())
	r.Teardown = sim.Cycles(d.U64())
	r.ExitCodes = make([]int, d.Count(4))
	for i := range r.ExitCodes {
		r.ExitCodes[i] = int(d.I32())
	}
	getCounters(d, &r.Counters)
	r.RASEvents = d.U64()
	r.RASHash = d.U64()
	r.Err = d.Str()
	for range d.Count(attemptBytes) {
		r.Attempts = append(r.Attempts, getAttempt(d))
	}
	r.Restarts = int(d.I32())
	r.Wasted = sim.Cycles(d.U64())
	r.RestartOverhead = sim.Cycles(d.U64())
	r.BudgetExhausted = d.Bool()
	r.CrashAborted = d.Bool()
	return r, d.Finish()
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
	var e wire.Encoder
	e.Blob(marshalJobResult(&rp.res))
	e.U64(rp.rasHash)
	e.I32(int32(rp.next))
	e.Blob(rp.image)
	return e.Bytes()
}

func unmarshalResume(b []byte) (*resumePoint, error) {
	d := bodyDecoder(b)
	body := d.Blob()
	rp := &resumePoint{rasHash: d.U64(), next: int(d.I32()), image: d.Blob()}
	if err := d.Finish(); err != nil {
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
	var e wire.Encoder
	e.I32(int32(id))
	e.Blob(marshalJobResult(r))
	return e.Bytes()
}

func decodeComplete(b []byte) (int, *JobResult, error) {
	d := bodyDecoder(b)
	id := int(d.I32())
	body := d.Blob()
	if err := d.Finish(); err != nil {
		return 0, nil, err
	}
	r, err := unmarshalJobResult(body)
	return id, r, err
}

// ckptCommitRaw pairs the job ID with an already-marshalled resume
// point (the bytes the resilience loop's commit hook handed over).
func ckptCommitRaw(id int, rp []byte) []byte {
	var e wire.Encoder
	e.I32(int32(id))
	e.Blob(rp)
	return e.Bytes()
}

func decodeCkptCommit(b []byte) (int, *resumePoint, error) {
	d := bodyDecoder(b)
	id := int(d.I32())
	body := d.Blob()
	if err := d.Finish(); err != nil {
		return 0, nil, err
	}
	rp, err := unmarshalResume(body)
	return id, rp, err
}
