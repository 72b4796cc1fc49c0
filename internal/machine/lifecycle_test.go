package machine

// Thread lifecycle pin: one fixed script over the thread runtime both
// kernels implement — futex wait (stale word, timeout, cross-core
// wake), the futex syscall decode, pthread create/join through
// CLONE_CHILD_CLEARTID, the SIGKILL rule, a handled SIGSEGV, a thread
// killed by an L1-parity event, and the getcwd and readdir user-buffer
// formats — run on a 1-node reproducible CNK machine and a 1-node FWK
// machine with obs armed. Every step's cycle, return value and errno,
// and each run's trace hash, merged counters and obs JSON, are checked
// against rows generated before the two kernels shared their futex,
// thread-exit and signal code.

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"bgcnk/internal/kernel"
	"bgcnk/internal/mem"
	"bgcnk/internal/nptl"
	"bgcnk/internal/obs"
)

// lifecycleScript runs the pinned steps on rank 0's main thread (and the
// two pthreads it starts), appending one row per step to rows.
func lifecycleScript(m *Machine, rows *[]string) App {
	return func(ctx kernel.Context, env *Env) {
		step := func(c kernel.Context, name string, ret uint64, errno kernel.Errno) {
			*rows = append(*rows, fmt.Sprintf("%s at=%d ret=%d %v", name, c.Now(), ret, errno))
		}
		lib, err := nptl.Init(ctx)
		if err != nil {
			step(ctx, "nptl init: "+err.Error(), 0, kernel.EIO)
			return
		}
		base := m.HeapBase(ctx)
		word, handoff, buf, path := base, base+64, base+4096, base+8192

		// FUTEX_WAIT on a word that no longer holds the expected value.
		ctx.StoreU32(word, 7)
		ret, errno := ctx.Syscall(kernel.SysFutex, uint64(word), kernel.FutexWait, 0, 0)
		step(ctx, "futex_wait stale", ret, errno)

		// FUTEX_WAIT that nobody wakes: it times out after 20 000 cycles.
		ctx.StoreU32(word, 0)
		ret, errno = ctx.Syscall(kernel.SysFutex, uint64(word), kernel.FutexWait, 0, 20_000)
		step(ctx, "futex_wait timeout", ret, errno)

		// The syscall decode: an unknown op, and a wake with no waiter.
		ret, errno = ctx.Syscall(kernel.SysFutex, uint64(word), 99)
		step(ctx, "futex op 99", ret, errno)
		ret, errno = ctx.Syscall(kernel.SysFutex, uint64(word), kernel.FutexWake, 1)
		step(ctx, "futex_wake idle", ret, errno)

		// A pthread blocks on handoff on its own core; main wakes it.
		ctx.StoreU32(handoff, 0)
		waiter, errno := lib.PthreadCreate(ctx, func(c kernel.Context) {
			ret, errno := c.Syscall(kernel.SysFutex, uint64(handoff), kernel.FutexWait, 0, 0)
			step(c, fmt.Sprintf("waiter futex_wait core=%d", c.CoreID()), ret, errno)
			c.Compute(5_000)
		})
		step(ctx, "pthread_create waiter", uint64(tidOf(waiter)), errno)
		ctx.Compute(30_000)
		ctx.StoreU32(handoff, 1)
		ret, errno = ctx.Syscall(kernel.SysFutex, uint64(handoff), kernel.FutexWake, 1)
		step(ctx, fmt.Sprintf("futex_wake core=%d", ctx.CoreID()), ret, errno)
		errno = lib.PthreadJoin(ctx, waiter)
		step(ctx, "pthread_join waiter", 0, errno)

		// SIGKILL cannot be caught.
		errno = ctx.RegisterSignal(kernel.SIGKILL, func(kernel.Context, kernel.SigInfo) {})
		step(ctx, "sigaction SIGKILL", 0, errno)

		// A store to text raises a SIGSEGV the process handles.
		errno = ctx.RegisterSignal(kernel.SIGSEGV, func(c kernel.Context, info kernel.SigInfo) {
			step(c, fmt.Sprintf("SIGSEGV handler addr=%#x code=%d", uint64(info.Addr), info.Code), 0, kernel.OK)
		})
		step(ctx, "sigaction SIGSEGV", 0, errno)
		errno = ctx.Store(mem.VTextBase+256, []byte{1, 2, 3, 4})
		step(ctx, "store to text", 0, errno)

		// An L1-parity event with no SIGBUS handler kills the thread that
		// takes it; its CLONE_CHILD_CLEARTID word still wakes the joiner.
		victim, errno := lib.PthreadCreate(ctx, func(c kernel.Context) {
			c.Compute(2_000)
			m.Chips[0].Cache.ArmL1Parity(c.CoreID())
			errno := c.Touch(base+16384, 64, false)
			step(c, "victim survived parity", 0, errno)
		})
		step(ctx, "pthread_create victim", uint64(tidOf(victim)), errno)
		errno = lib.PthreadJoin(ctx, victim)
		step(ctx, "pthread_join victim", uint64(threadExitCode(m, ctx.PID(), tidOf(victim))), errno)

		// The user-buffer formats: getcwd writes a C string, readdir the
		// NUL-separated names; a buffer too small for either fails.
		ret, errno = ctx.Syscall(kernel.SysGetcwd, uint64(buf), 1)
		step(ctx, "getcwd len=1", ret, errno)
		ret, errno = ctx.Syscall(kernel.SysGetcwd, uint64(buf), 64)
		cwd, _ := ctx.LoadCString(buf, 64)
		step(ctx, fmt.Sprintf("getcwd len=64 %q", cwd), ret, errno)
		ctx.StoreCString(path, "/")
		ret, errno = ctx.Syscall(kernel.SysReaddir, uint64(path), uint64(buf), 4)
		step(ctx, "readdir len=4", ret, errno)
		ret, errno = ctx.Syscall(kernel.SysReaddir, uint64(path), uint64(buf), 256)
		names := make([]byte, 9)
		ctx.Load(buf, names)
		step(ctx, fmt.Sprintf("readdir len=256 %q", names), ret, errno)
		ctx.Compute(1_000)
	}
}

func tidOf(pt *nptl.PThread) uint32 {
	if pt == nil {
		return 0
	}
	return pt.TID
}

// threadExitCode reads an exited thread's status from its process.
func threadExitCode(m *Machine, pid, tid uint32) int {
	var th *kernel.Thread
	if m.Cfg.Kind == KindCNK {
		th = m.CNKs[0].Proc(pid).Threads[tid]
	} else {
		th = m.FWKs[0].Proc(pid).Threads[tid]
	}
	if th == nil {
		return -1
	}
	return th.ExitCode
}

// lifecycleRef holds each kernel's rows, generated before the kernels
// shared their thread runtime. The last row of each is the run summary:
// exit codes, end cycle, trace hash and FNV-64a digests of the merged
// counter table and of the obs Chrome JSON.
var lifecycleRef = map[KernelKind][]string{
	KindCNK: {
		"futex_wait stale at=77973 ret=0 EAGAIN",
		"futex_wait timeout at=98743 ret=0 ETIMEDOUT",
		"futex op 99 at=98863 ret=0 EINVAL",
		"futex_wake idle at=98983 ret=0 OK",
		"pthread_create waiter at=99349 ret=2 OK",
		"futex_wake core=0 at=129471 ret=1 OK",
		"waiter futex_wait core=1 at=129471 ret=0 OK",
		"pthread_join waiter at=134591 ret=0 OK",
		"sigaction SIGKILL at=134711 ret=0 EINVAL",
		"sigaction SIGSEGV at=134831 ret=0 OK",
		"SIGSEGV handler addr=0x1000100 code=2 at=135031 ret=0 OK",
		"store to text at=135031 ret=0 EFAULT",
		"pthread_create victim at=135391 ret=3 OK",
		"pthread_join victim at=137661 ret=135 OK",
		"getcwd len=1 at=143559 ret=0 ENAMETOOLONG",
		"getcwd len=64 \"/\" at=149505 ret=1 OK",
		"readdir len=4 at=155470 ret=0 EOVERFLOW",
		"readdir len=256 \"gpfs\\x00lib\\x00\" at=161387 ret=2 OK",
		"exit=[0] end=165664 trace=665a4adddde078d0 counters=7b5add863c4a652a obs=d3be1d8108ffd7eb",
	},
	KindFWK: {
		"futex_wait stale at=15007626 ret=0 EAGAIN",
		"futex_wait timeout at=15027976 ret=0 ETIMEDOUT",
		"futex op 99 at=15028326 ret=0 EINVAL",
		"futex_wake idle at=15028676 ret=0 OK",
		"pthread_create waiter at=15032622 ret=2 OK",
		"futex_wake core=0 at=15063064 ret=1 OK",
		"waiter futex_wait core=1 at=15063064 ret=0 OK",
		"pthread_join waiter at=15068504 ret=0 OK",
		"sigaction SIGKILL at=15068854 ret=0 EINVAL",
		"sigaction SIGSEGV at=15069204 ret=0 OK",
		"SIGSEGV handler addr=0x1000100 code=2 at=15072394 ret=0 OK",
		"store to text at=15072394 ret=0 EFAULT",
		"pthread_create victim at=15076338 ret=3 OK",
		"pthread_join victim at=15081816 ret=137 OK",
		"getcwd len=1 at=15083066 ret=0 ENAMETOOLONG",
		"getcwd len=64 \"/\" at=15087254 ret=1 OK",
		"readdir len=4 at=15091442 ret=0 EOVERFLOW",
		"readdir len=256 \"gpfs\\x00lib\\x00\" at=15092692 ret=2 OK",
		"exit=[0] end=15093782 trace=fd1cadd36619118e counters=972d8b029d79ea20 obs=e8205b76b45f7d58",
	},
}

// runPinned runs script on a machine built from cfg and returns its rows
// followed by the run summary: exit codes, end cycle, trace hash and
// FNV-64a digests of the merged counter table and of the obs Chrome JSON.
func runPinned(t *testing.T, cfg Config, script func(*Machine, *[]string) App, params kernel.JobParams) []string {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	var rows []string
	if err := m.Run(script(m, &rows), params, 0); err != nil {
		t.Fatal(err)
	}
	digest := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	return append(rows, fmt.Sprintf("exit=%v end=%d trace=%016x counters=%016x obs=%016x",
		m.ExitCodes(), uint64(m.Eng.Now()), m.Eng.Trace().Hash(),
		digest([]byte(m.MergedCounters().Text())), digest(m.TraceJSON())))
}

// TestPinnedThreadLifecycle checks every row of the lifecycle script on
// both kernels against its pinned reference.
func TestPinnedThreadLifecycle(t *testing.T) {
	for _, kind := range []KernelKind{KindCNK, KindFWK} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := Config{Nodes: 1, Kind: kind, Reproducible: kind == KindCNK, Obs: &obs.Config{}}
			checkRows(t, runPinned(t, cfg, lifecycleScript, kernel.JobParams{}), lifecycleRef[kind])
		})
	}
}

// checkRows reports each row of got that differs from want and, on any
// difference, logs got as a Go literal.
func checkRows(t *testing.T, got, want []string) {
	t.Helper()
	for i := 0; i < max(len(got), len(want)); i++ {
		g, w := "(none)", "(none)"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("row %d:\n got  %s\n want %s", i, g, w)
		}
	}
	if t.Failed() {
		t.Logf("rows as a Go literal:\n\t%s", strings.Join(quoteRows(got), "\n\t"))
	}
}

func quoteRows(rows []string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%q,", r)
	}
	return out
}
