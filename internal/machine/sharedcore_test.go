package machine

// Shared-core and syscall pin: one fixed script in which two threads
// share a core, run on a 1-node reproducible CNK machine with a budget of
// three threads per core and on a 1-node FWK machine with obs armed.
// Three pthreads hold cores 1-3 while a fourth shares the main thread's
// core: main's futex wait hands the core to it, it yields with and
// without a thread waiting for the core, and it exits while main waits;
// on the FWK the long computations also span timer ticks, whose
// round-robin switches the two. A thread leaves through the exit call,
// and main then makes one call each of the memory, identity and
// persistent-memory calls and the calls each kernel refuses. Every
// step's cycle, return value and errno, and each run's trace hash,
// merged counters and obs JSON, are checked against rows generated
// before the two kernels shared their core handoff, process bookkeeping
// and syscall front end.

import (
	"fmt"
	"testing"

	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/nptl"
	"bgcnk/internal/obs"
)

// sharedCoreScript runs the pinned steps on rank 0's main thread and the
// four pthreads it starts, appending one row per step to rows.
func sharedCoreScript(m *Machine, rows *[]string) App {
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
		word, gate, buf := base, base+64, base+4096
		ctx.StoreU32(word, 0)
		ctx.StoreU32(gate, 0)

		// Three pthreads each compute on a core of their own, then wait
		// on gate; the third leaves through the exit call.
		var held []*nptl.PThread
		for i := 1; i <= 3; i++ {
			pt, errno := lib.PthreadCreate(ctx, func(c kernel.Context) {
				step(c, fmt.Sprintf("p%d start core=%d", i, c.CoreID()), 0, kernel.OK)
				c.Compute(3_000_000)
				ret, errno := c.Syscall(kernel.SysFutex, uint64(gate), kernel.FutexWait, 0, 0)
				step(c, fmt.Sprintf("p%d futex_wait gate core=%d", i, c.CoreID()), ret, errno)
				if i == 3 {
					c.Syscall(kernel.SysExit, 7)
				}
			})
			step(ctx, fmt.Sprintf("pthread_create p%d", i), uint64(tidOf(pt)), errno)
			held = append(held, pt)
		}
		ctx.Compute(20_000)

		// A fourth pthread shares the main thread's core.
		sharer, errno := lib.PthreadCreate(ctx, func(c kernel.Context) {
			step(c, fmt.Sprintf("p4 start core=%d", c.CoreID()), 0, kernel.OK)
			ret, errno := c.Syscall(kernel.SysYield)
			step(c, fmt.Sprintf("p4 yield core=%d", c.CoreID()), ret, errno)
			c.StoreU32(word, 1)
			ret, errno = c.Syscall(kernel.SysFutex, uint64(word), kernel.FutexWake, 1)
			step(c, "p4 futex_wake main", ret, errno)
			ret, errno = c.Syscall(kernel.SysYield)
			step(c, fmt.Sprintf("p4 yield after wake core=%d", c.CoreID()), ret, errno)
			c.Compute(2_000_000)
			step(c, fmt.Sprintf("p4 computed core=%d", c.CoreID()), 0, kernel.OK)
		})
		step(ctx, "pthread_create p4", uint64(tidOf(sharer)), errno)

		// Main blocks on word, handing its core to whichever thread
		// waits for it; the fourth pthread wakes it.
		ret, errno := ctx.Syscall(kernel.SysFutex, uint64(word), kernel.FutexWait, 0, 0)
		step(ctx, fmt.Sprintf("main futex_wait word core=%d", ctx.CoreID()), ret, errno)
		ctx.Compute(2_000_000)
		step(ctx, "main computed", 0, kernel.OK)
		ret, errno = ctx.Syscall(kernel.SysYield)
		step(ctx, "main yield", ret, errno)
		errno = lib.PthreadJoin(ctx, sharer)
		step(ctx, "pthread_join p4", 0, errno)

		// Open the gate for the first three and join them.
		ctx.StoreU32(gate, 1)
		ret, errno = ctx.Syscall(kernel.SysFutex, uint64(gate), kernel.FutexWake, 3)
		step(ctx, "futex_wake gate", ret, errno)
		for i, pt := range held {
			errno := lib.PthreadJoin(ctx, pt)
			step(ctx, fmt.Sprintf("pthread_join p%d", i+1), uint64(threadExitCode(m, ctx.PID(), tidOf(pt))), errno)
		}
		ret, errno = ctx.Syscall(kernel.SysYield)
		step(ctx, "main yield alone", ret, errno)

		// Identity and time.
		ret, errno = ctx.Syscall(kernel.SysGetpid)
		step(ctx, "getpid", ret, errno)
		ret, errno = ctx.Syscall(kernel.SysGettid)
		step(ctx, "gettid", ret, errno)
		ret, errno = ctx.Syscall(kernel.SysUname, uint64(buf))
		ver, _ := ctx.LoadCString(buf, 64)
		step(ctx, fmt.Sprintf("uname %q", ver), ret, errno)
		ret, errno = ctx.Syscall(kernel.SysGettimeofday)
		step(ctx, "gettimeofday", ret, errno)
		ret, errno = ctx.Syscall(kernel.SysSetTidAddress, uint64(buf+256))
		step(ctx, "set_tid_address", ret, errno)

		// Memory.
		brk, errno := ctx.Syscall(kernel.SysBrk, 0)
		step(ctx, "brk query", brk, errno)
		ret, errno = ctx.Syscall(kernel.SysBrk, brk+1<<20)
		step(ctx, "brk grow", ret, errno)
		ctx.Compute(1_000)
		va, errno := ctx.Syscall(kernel.SysMmap, 0, 64<<10,
			kernel.ProtRead|kernel.ProtWrite, kernel.MapAnonymous|kernel.MapPrivate, ^uint64(0), 0)
		step(ctx, "mmap", va, errno)
		errno = ctx.Touch(hw.VAddr(va), 4096, true)
		step(ctx, "touch mmap", 0, errno)
		ret, errno = ctx.Syscall(kernel.SysMprotect, va, 4096, kernel.ProtRead)
		step(ctx, "mprotect", ret, errno)
		ret, errno = ctx.Syscall(kernel.SysMunmap, va, 64<<10)
		step(ctx, "munmap", ret, errno)
		ret, errno = ctx.Syscall(kernel.SysShmGet, uint64(buf+512))
		size, _ := ctx.LoadU64(buf + 512)
		step(ctx, fmt.Sprintf("shmget size=%d", size), ret, errno)
		ctx.StoreCString(buf+1024, "pin")
		ret, errno = ctx.Syscall(kernel.SysPersistOpen, uint64(buf+1024), 1<<20)
		step(ctx, "persist_open", ret, errno)

		// The calls each kernel refuses.
		for _, num := range []kernel.Sys{kernel.SysFork, kernel.SysExec, kernel.SysClone, kernel.SysSigaction, kernel.SysSigreturn} {
			ret, errno = ctx.Syscall(num)
			step(ctx, num.String(), ret, errno)
		}
		ctx.Compute(1_000)
	}
}

// sharedCoreRef holds each kernel's rows, generated before the kernels
// shared their core handoff, process bookkeeping and syscall front end.
// The last row of each is the run summary, as in lifecycleRef.
var sharedCoreRef = map[KernelKind][]string{
	KindCNK: {
		"pthread_create p1 at=78173 ret=2 OK",
		"p1 start core=1 at=78173 ret=0 OK",
		"pthread_create p2 at=78537 ret=3 OK",
		"p2 start core=2 at=78537 ret=0 OK",
		"pthread_create p3 at=78901 ret=4 OK",
		"p3 start core=3 at=78901 ret=0 OK",
		"pthread_create p4 at=99915 ret=5 OK",
		"p4 start core=0 at=100081 ret=0 OK",
		"p4 yield core=0 at=100201 ret=0 OK",
		"p4 futex_wake main at=100321 ret=1 OK",
		"main futex_wait word core=0 at=100441 ret=0 OK",
		"main computed at=2100441 ret=0 OK",
		"p4 yield after wake core=0 at=2100561 ret=0 OK",
		"p4 computed core=0 at=4100561 ret=0 OK",
		"main yield at=4100561 ret=0 OK",
		"pthread_join p4 at=4100727 ret=0 OK",
		"futex_wake gate at=4100849 ret=3 OK",
		"p1 futex_wait gate core=1 at=4100849 ret=0 OK",
		"p2 futex_wait gate core=2 at=4100849 ret=0 OK",
		"p3 futex_wait gate core=3 at=4100849 ret=0 OK",
		"pthread_join p1 at=4101015 ret=0 OK",
		"pthread_join p2 at=4101181 ret=0 OK",
		"pthread_join p3 at=4101347 ret=7 OK",
		"main yield alone at=4101467 ret=0 OK",
		"getpid at=4101587 ret=1 OK",
		"gettid at=4101707 ret=1 OK",
		"uname \"2.6.19.2\" at=4101875 ret=0 OK",
		"gettimeofday at=4101995 ret=4101995 OK",
		"set_tid_address at=4102115 ret=1 OK",
		"brk query at=4102235 ret=19931136 OK",
		"brk grow at=4102355 ret=20979712 OK",
		"mmap at=4104125 ret=110624768 OK",
		"touch mmap at=4104381 ret=0 OK",
		"mprotect at=4104501 ret=0 OK",
		"munmap at=4104621 ret=0 OK",
		"shmget size=1048576 at=4104789 ret=3758096384 OK",
		"persist_open at=4104957 ret=4026531840 OK",
		"fork at=4105077 ret=0 ENOSYS",
		"exec at=4105197 ret=0 ENOSYS",
		"clone at=4105317 ret=0 EINVAL",
		"sigaction at=4105437 ret=0 EINVAL",
		"sigreturn at=4105557 ret=0 EINVAL",
		"exit=[0] end=4109834 trace=5f8c281ebbee91e6 counters=4332dc1d690a8d35 obs=7cdf10e598322345",
	},
	KindFWK: {
		"p1 start core=1 at=15011174 ret=0 OK",
		"pthread_create p1 at=15011176 ret=2 OK",
		"p2 start core=2 at=15015118 ret=0 OK",
		"pthread_create p2 at=15015120 ret=3 OK",
		"p3 start core=3 at=15019062 ret=0 OK",
		"pthread_create p3 at=15019064 ret=4 OK",
		"pthread_create p4 at=15043008 ret=5 OK",
		"p4 start core=0 at=15043494 ret=0 OK",
		"p4 yield core=0 at=15043844 ret=0 OK",
		"p4 futex_wake main at=15044194 ret=1 OK",
		"main futex_wait word core=0 at=15045744 ret=0 OK",
		"p4 yield after wake core=0 at=15923297 ret=0 OK",
		"main computed at=18749244 ret=0 OK",
		"p4 computed core=0 at=19054294 ret=0 OK",
		"main yield at=19054294 ret=0 OK",
		"pthread_join p4 at=19054690 ret=0 OK",
		"futex_wake gate at=19055132 ret=3 OK",
		"p1 futex_wait gate core=1 at=19055132 ret=0 OK",
		"p2 futex_wait gate core=2 at=19055132 ret=0 OK",
		"p3 futex_wait gate core=3 at=19055132 ret=0 OK",
		"pthread_join p1 at=19055618 ret=0 OK",
		"pthread_join p2 at=19056104 ret=0 OK",
		"pthread_join p3 at=19056590 ret=7 OK",
		"main yield alone at=19056940 ret=0 OK",
		"getpid at=19057290 ret=1 OK",
		"gettid at=19057640 ret=1 OK",
		"uname \"2.6.30-fwk\" at=19060928 ret=0 OK",
		"gettimeofday at=19061278 ret=19061278 OK",
		"set_tid_address at=19061628 ret=1 OK",
		"brk query at=19061978 ret=17833984 OK",
		"brk grow at=19062328 ret=18882560 OK",
		"mmap at=19063678 ret=554700800 OK",
		"touch mmap at=19066822 ret=0 OK",
		"mprotect at=19067172 ret=0 OK",
		"munmap at=19067522 ret=0 OK",
		"shmget size=0 at=19068078 ret=0 ENOSYS",
		"persist_open at=19068430 ret=0 ENOSYS",
		"fork at=19068780 ret=0 EINVAL",
		"exec at=19069130 ret=0 EINVAL",
		"clone at=19069480 ret=0 EINVAL",
		"sigaction at=19069830 ret=0 EINVAL",
		"sigreturn at=19070180 ret=0 EINVAL",
		"exit=[0] end=19071180 trace=9028f1020cc140a4 counters=bce050b0a3d00fe7 obs=b0518844638fb4b0",
	},
}

// TestPinnedSharedCores checks every row of the shared-core script on
// both kernels against its pinned reference.
func TestPinnedSharedCores(t *testing.T) {
	for _, kind := range []KernelKind{KindCNK, KindFWK} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := Config{Nodes: 1, Kind: kind, Obs: &obs.Config{}}
			if kind == KindCNK {
				cfg.Reproducible, cfg.MaxThreadsPerCore = true, 3
			}
			got := runPinned(t, cfg, sharedCoreScript, kernel.JobParams{ShmBytes: 1 << 20})
			checkRows(t, got, sharedCoreRef[kind])
		})
	}
}
