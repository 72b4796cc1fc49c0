package kernel

// JobSpec describes a job launch on one node, on either kernel, so
// experiments can run the same workload on both.
type JobSpec struct {
	Params    JobParams
	TextBytes uint64
	DataBytes uint64
	UID, GID  uint32
	// Main runs as each process's initial thread.
	Main func(ctx Context, rank int)
}

// WithDefaults returns s with its unset sizes filled in: one process per
// node, a 4 KiB guard and 1 MiB of text.
func (s JobSpec) WithDefaults() JobSpec {
	if s.Params.ProcsPerNode == 0 {
		s.Params.ProcsPerNode = 1
	}
	if s.Params.GuardBytes == 0 {
		s.Params.GuardBytes = 4096
	}
	if s.TextBytes == 0 {
		s.TextBytes = 1 << 20
	}
	return s
}

// Process is the bookkeeping both kernels keep for a process: its
// identity, its signal handlers, its threads and its exit status. Each
// kernel's process type embeds it.
type Process struct {
	PID, UID, GID uint32
	Sig           SignalTable

	Threads map[uint32]*Thread // every thread the process started, by TID
	Main    *Thread            // the first thread

	live     int
	exitCode int
	done     bool
}

// NewThread registers thread tid of p, running on os; the first becomes
// p's Main. Runtime.Spawn then runs it.
func (p *Process) NewThread(os OS, tid uint32) *Thread {
	t := &Thread{os: os, id: tid, pid: p.PID, sig: &p.Sig, State: ThreadReady}
	if p.Threads == nil {
		p.Threads = make(map[uint32]*Thread)
	}
	p.Threads[tid] = t
	if p.Main == nil {
		p.Main = t
	}
	p.live++
	return t
}

// ThreadExited counts the exit of one of p's threads with status code and
// reports whether it was the last: p is then done, with that status.
func (p *Process) ThreadExited(code int) bool {
	p.live--
	if p.live != 0 {
		return false
	}
	p.done, p.exitCode = true, code
	return true
}

// Live returns the number of p's threads that have not exited.
func (p *Process) Live() int { return p.live }

// Done reports whether every thread of the process has exited.
func (p *Process) Done() bool { return p.done }

// ExitCode returns the process exit status: its last thread's.
func (p *Process) ExitCode() int { return p.exitCode }

// Job is a launched job's processes, in rank order. P is a kernel's
// process type.
type Job[P interface {
	Done() bool
	ExitCode() int
}] struct {
	Procs []P
}

// Done reports whether every process has exited.
func (j *Job[P]) Done() bool {
	for _, p := range j.Procs {
		if !p.Done() {
			return false
		}
	}
	return true
}

// ExitCode returns the first process's exit status once every process
// has exited, and -1 before.
func (j *Job[P]) ExitCode() int {
	if !j.Done() || len(j.Procs) == 0 {
		return -1
	}
	return j.Procs[0].ExitCode()
}
