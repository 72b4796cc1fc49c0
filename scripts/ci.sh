#!/bin/sh
# CI gate: vet, gofmt, build, the full test suite under the race
# detector, the fuzz seed-corpus regressions, and a short live fuzz pass
# on each fuzz target. Run from the repository root:
#
#   ./scripts/ci.sh            # full gate
#   FUZZTIME=0 ./scripts/ci.sh # skip the live fuzz pass (regressions still run)
set -eu

cd "$(dirname "$0")/.."
FUZZTIME="${FUZZTIME:-10s}"

# gate runs `go test` with its arguments, but first checks each
# alternative of the first level of the -run pattern (the part before
# any /) with `go test -list` and fails if one names no test, benchmark,
# fuzz target or example in the packages given: a -run that matches
# nothing passes silently, so a renamed or deleted test would leave its
# gate green with nothing run.
gate() {
	pattern= pkgs= prev=
	for arg in "$@"; do
		if [ "$prev" = -run ]; then pattern=$arg; fi
		case $arg in ./*) pkgs="$pkgs $arg" ;; esac
		prev=$arg
	done
	set -f # an alternative such as .* must not expand as a glob
	for alt in $(printf '%s' "${pattern%%/*}" | tr '|' ' '); do
		if ! go test -list "$alt" $pkgs | grep -Eq '^(Test|Benchmark|Fuzz|Example)'; then
			echo "-run alternative $alt matches no test in$pkgs" >&2
			exit 1
		fi
	done
	set +f
	go test "$@"
}

echo "== go vet"
go vet ./...

echo "== gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt -l lists files that are not formatted:"
	echo "$unformatted"
	exit 1
fi

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

echo "== fuzz seed-corpus regressions"
gate -run 'Fuzz' ./internal/fs/ ./internal/ciod/ ./internal/ctrlsys/ ./internal/ctrlsys/wal/ ./internal/ckpt/ ./internal/obs/

# Durable formats: the checkpoint image, the boot personality, the
# journal bodies and the WAL record framing all encode and decode through
# internal/wire. Each primitive must keep its byte layout and the decoder
# each rejection (truncation, a length or count beyond the bytes left, a
# bool byte other than 0 or 1, trailing bytes); every format must encode
# to digests pinned before the formats shared the codec; replay must
# accept every body the node writes, up to the WAL's body cap; and a
# completion whose reserved last byte is not 0 must be rejected.
echo "== durable formats: wire codec + pinned encodings + large journal bodies"
go test ./internal/wire/
gate -run 'TestPinnedEncodings|TestJournalReplaysLargeBodies|TestCompletionReservedByte' ./internal/ctrlsys/

# Kernels: CNK and the FWK share the core handoff (kernel.CPU), the
# process bookkeeping (kernel.Process, JobSpec and Job), the thread
# runtime (futexes, thread start and exit, signal delivery) and the
# syscall front end (kernel.Serve: the syscall span, ESRCH for a missing
# process, and the calls both answer alike); each kernel supplies only
# Resume, the process half of Leave and its own calls. They also share
# one file-call path, ciod's decode from user memory, executor and store
# back, which CNK reaches by shipping and the FWK calls on its own
# client. The lifecycle script must match its pinned rows on both
# kernels (every step's cycle, return value and errno, the trace hash,
# the merged counters and the obs JSON), and so must the shared-core
# script (two threads on one core: a futex wait handing the core over,
# yields with and without a waiting thread, an exit while another thread
# waits, the FWK's tick round-robin, and one call of each non-file
# syscall) and the file-call script on CNK and the FWK, each with and
# without an ION (every call's return cycle and output digest too); the
# kernel, CNK, FWK and NPTL suites must pass repeatedly under -race
# (among them TestHugeIOCount on both kernels, which read through the
# executor: a write whose count no buffer can hold fails with EFAULT, a
# read of any larger count, 1<<63 included, returns the short file's
# bytes, and a 64 MiB write from unmapped memory fails with EFAULT
# without allocating its count on the host); the FWK's fork and exec
# must hand out the same frames in every fresh kernel, so repeated runs
# must give identical page-to-frame maps; and the FWQ render, the one
# golden that runs pthreads on both kernels, must match byte-for-byte.
echo "== kernels: pinned thread lifecycle + shared cores + file calls + kernel suites + fork/exec frames + fig5-7 golden"
gate -race -count=3 -run 'TestPinnedThreadLifecycle|TestPinnedSharedCores|TestPinnedFileCalls' ./internal/machine/
go test -race -count=3 ./internal/kernel/ ./internal/cnk/ ./internal/fwk/ ./internal/nptl/
gate -count=5 -run 'TestForkExecFramesReproducible' ./internal/fwk/
gate -run 'TestGolden/fig5-7' ./internal/experiments/

# The fault matrix is part of the -race suite above, but gate on it
# explicitly: every cell's fault must fire and replay bit-identically
# against its committed reference row, and the recovery-under-fault
# replay must hold; together they are the RAS layer's contract. A nil
# injector, fault source, RAS log or counter set is the unarmed handle,
# so every method must be callable on nil and read zero. A CIOD client
# retries only with a fault source: one without never times out or
# retries, and blocks for its reply.
echo "== fault matrix"
gate -run 'TestFaultMatrix|TestRecoveryUnderFaultDeterminism|TestFaultsOffChangesNothing|TestCIODRetryExhaustionSurfacesEIO|TestCIODCrashRecovery' ./internal/machine/
gate -run 'TestNilReceivers' ./internal/ras/ ./internal/upc/

# Control-system contracts, gated explicitly for the same reason: every
# drain runs one commit pipeline and one queue replay, so the parallel
# drain must be bit-identical to serial and to its pinned signature, the
# checkpoint-off drain, the checkpointed drain on a perfect machine
# (journal on and off) and the seeded queue replays must match their
# pinned values, and a node must reject a second, different queue (all
# under -race); a reused machine must match a fresh one; and the
# boot-scaling table and the throughput drain must match their goldens
# byte-for-byte (regenerate with -update after model changes).
echo "== control system: determinism + pinned drains + boot and throughput goldens"
gate -race -run 'TestParallelDrainMatchesSerial|TestCkptOffSignatureUnchanged|TestFaultFreeCkptDrainMatchesPinned|TestScheduleFIFOBackfill|TestRedrainRejectsChangedQueue' ./internal/ctrlsys/
gate -run 'TestRebootedMachineMatchesFresh' ./internal/machine/
gate -run 'TestGolden/boot' ./internal/experiments/
gate -run 'TestGolden/throughput' ./internal/experiments/

# Resilience contracts: a checkpoint/restart run must be bit-identical to
# the fault-free run (work signature + exit codes, both kernels, under
# -race), every fault class must recover or fail with the typed budget
# error, and the mtbf sweep must match its golden byte-for-byte.
echo "== resilience: restart determinism + mtbf golden"
gate -race -run 'TestRestartDeterminism|TestResilienceFaultClassMatrix' ./internal/ctrlsys/
gate -run 'TestGolden/mtbf' ./internal/experiments/

# Crash-only control system: Drain's in-place recovery is the one
# recovery path. Every crash class x seed must recover to a drain
# bit-identical to the crash-free one at 1/2/8 workers (under -race),
# double-crash-during-recovery included, replaying committed results and
# killing, resuming or requeueing orphaned jobs; that crash-free
# reference, journaled or not, must match its pinned signature; a crash
# plan needs the journal, so Drain must refuse one without it before
# appending anything, and the node must not take the plan; a
# recovered-then-rebooted machine must match a fresh one; and the
# crash-rate sweep must match its golden byte-for-byte.
echo "== crash-only service node: crash matrix + recovery + crashes golden"
gate -race -run 'TestCrashMatrixDeterminism|TestDoubleCrashDuringRecovery|TestJournaledDrainMatchesPinned|TestCrashPlanNeedsJournal' ./internal/ctrlsys/
gate -run 'TestRecoveredMachineMatchesFresh' ./internal/machine/
gate -run 'TestGolden/crashes' ./internal/experiments/

# I/O-node contracts: armed and unarmed I/O nodes share one CIOD serve
# path, so every reply of a fixed script of shipped calls must match its
# pinned row in both modes, and an ion_crash must kill the daemon in both
# (under -race); neither the tree nor the decoders copy a payload, so a
# delivered message must be the sender's slice, a decoded payload must
# lie inside its message with its capacity clipped (nil when empty), an
# ION cache read inside one block must be that block's bytes with its
# capacity clipped and one across blocks a fresh slice, a write-back of
# several block slices must equal one write of their concatenation, and
# the ION cache must lose no write to a second proxy's fill of the same
# block, to a write that lands during an eviction's write-back or to a
# fill that another fill evicts, and a flush must not write back a block
# truncated away during its sleep (under -race); with the subsystem armed, the whole machine (shared
# uplink, ingress credits, coalescer, write-back cache) must be
# cycle-reproducible and survive reboot identically, and the checkpointed
# drain through the ION cache must restart bit-identically at 1/2/8
# workers (under -race); an unarmed machine must grow no ION nodes or
# counters and must not depend on CNsPerION; the ion_crash fault class
# must replay cycle-exactly; and the ioscale sweep must match its golden
# byte-for-byte.
echo "== I/O-node aggregation: pinned replies + payload ownership + determinism + ion_crash + ioscale golden"
gate -race -run 'TestPinnedReplies|TestIONCrashFlushesEIOAndDropsCache|TestDecodedDataAliasesWire' ./internal/ciod/
gate -race -run 'TestDeliveredDataIsSendersSlice|TestWriteInodeSeveralSlices|TestReadAliasesOneBlock|TestConcurrentFillKeepsWrite|TestWriteDuringEvictionSurvives|TestFillEvictedByAnotherFillRefills|TestFlushSkipsTruncatedBlocks' ./internal/collective/ ./internal/fs/ ./internal/ion/
gate -race -run 'TestIONMachineDeterminism|TestIONRebootMatchesFresh|TestIONOffChangesNothing|TestSealCheckpointFlushesIONCache' ./internal/machine/
gate -race -run 'TestRestartDeterminismThroughIONCache' ./internal/ctrlsys/
gate -run 'TestFaultMatrix/.*/ion_crash' ./internal/machine/
gate -run 'TestGolden/ioscale' ./internal/experiments/

# Fault-tolerant torus contracts: every transfer must arrive at its
# pinned reference cycle on the one send path, armed or not, a healthy
# send must copy no payload and allocate at most once, healthy
# fault-region routes must be the dimension-ordered ones, and a
# coordinate outside the torus must be refused rather than numbered as
# another node (under -race); the armed hard-fault matrix (link_fail
# and node_fail x seeds x both kernels) must replay cycle-exactly and
# bit-identically at 1/2/8 workers (under -race); a plan with no hard
# network faults must leave the fault layer unarmed; an unroutable plan
# must be refused at boot; the net-fault control-system consequences
# (localization, blacklist, typed budget error) must hold; and the
# degrade sweep must match its golden byte-for-byte.
echo "== fault-tolerant torus: cost table + fault matrix + degrade golden"
gate -race -run 'TestTransferCosts|TestSendPacketAllocs|TestHealthyRoutesAreDimensionOrdered|TestCoordOutsideDimsPanics' ./internal/torus/
gate -race -run 'TestTorusFaultMatrix|TestTorusFaultsOffChangesNothing|TestUnroutablePartitionFailsBoot' ./internal/machine/
gate -race -run 'TestLinkFaultLocalizedAndSurvived|TestNodeFaultExhaustsBudgetTyped' ./internal/ctrlsys/
gate -run 'TestGolden/degrade' ./internal/experiments/

# Sim fast-path contracts, gated explicitly: the event queue must replay
# seeded event and coroutine workloads AND full machine fault-replay
# runs to their pinned references (trace hashes, final cycles, exit
# codes, UPC counter and RAS log digests), and every pop of seeded random
# pushes and pops must return the least (time, seq) a model holds;
# every kernel x workload cell of the determinism battery must match its
# pinned reference row, and the replica runner must merge bit-identical
# results at 1, 2, and 8 workers — from the raw pool up through the
# rendered experiment artifacts. The global barrier and the combine route
# are one rendezvous (barrier.Network): both must resume their
# participants in participant order on every run, and one script of
# rounds broken by a node death must match its pinned rows on each; the
# collective tree's receives (any tag, by tag, and with a deadline met,
# expired or sim.Forever) must match theirs. All under -race.
echo "== sim fast path: pinned event-queue references + queue-order model + pinned battery + replica worker invariance + rendezvous order and pins + tree receives"
gate -race -run 'TestDifferential|TestDeterminismBattery' ./internal/sim/ ./internal/machine/
gate -race -run 'TestReplicaWorkerInvariance' ./internal/sim/replica/
gate -race -run 'TestRenderWorkerInvariance' ./internal/experiments/
gate -race -count=5 -run 'TestBarrierResumesInParticipantOrder|TestCombineResumesInParticipantOrder|TestPinnedRendezvous|TestPinnedTreeReceives' ./internal/barrier/ ./internal/collective/

# Coroutine switch contracts: the iter.Pull handoff must keep kill/unwind,
# shutdown order, the pinned workload tables (runRandomCoros among them),
# the queue-order model and allocation-free Park/Wake, and a timed park
# resumed in place must keep every event's cycle and order (bare Step,
# Run limits, same-cycle events, pending signals, the pinned advance-hook
# table), repeated under -race.
echo "== coroutine switch: kill/unwind + pinned coros + in-place parks + alloc-free park/wake"
gate -race -count=10 -run 'TestCoro|TestShutdown|TestEngineShutdown|TestDifferential|TestPark' ./internal/sim/

# Cache model contracts: the tag pages, each allocated by the first fill
# into one of its 256 sets and kept and cleared by a flush, must replay
# the pinned CacheSim digests (dense and sparse streams, both L3
# mappings, store misses and refresh stalls read from the UPC unit) and
# reject lines beyond the tag width; a chip must build in a
# few dozen allocations and at most 64 KiB; DDR must keep its contents
# across a reset in self-refresh and lose them otherwise, zeroing the
# chunks it keeps; and a chip that touched a line per core and a DDR word
# must touch them again after a reset without allocating. Under -race.
echo "== hw cache model: pinned digests + tag range + chip allocations + DDR reset"
gate -race -run 'TestCache|TestChip|TestNewChip|TestSelfRefresh|TestResetWithoutSelfRefresh' ./internal/hw/

# Observability contracts: arming the span/sampler layer must change
# NOTHING (cycle-exact vs the unarmed machine, fault injector on), the
# armed trace must be byte-identical across kernels x seeds x reruns and
# across drain worker counts (under -race), the syscall ABI conformance
# table must hold with its documented divergences, the cross-subsystem
# soak invariants (ION credit conservation, counter monotonicity, no
# leaked partitions, journaled-crash completion) must hold, and the
# tracescale sweep must match its golden byte-for-byte.
echo "== observability: inertness + trace determinism + conformance + soak + tracescale golden"
gate -race -run 'TestObsOffChangesNothing|TestObsArmedDeterminism|TestObsSurvivesClearJobsResetsOnReboot|TestSyscallConformance|TestSoak' ./internal/machine/
gate -race -run 'TestObsDrainWorkerInvariance|TestObsDrainResilientSpans' ./internal/ctrlsys/
gate -run 'TestGolden/tracescale' ./internal/experiments/

# Every Go benchmark in the module must still run (one iteration each):
# the root experiment benchmarks, the sim engine and coroutine switch,
# the hw cache model and TLB, the torus send path, the CIOD request
# marshal and shipped write+read round trip, the checkpoint-image codec,
# the control-system boot, drain and journal-body codec, the obs trace
# codec and JSON export, and the fs inode and descriptor paths.
echo "== go test -bench (one iteration of every benchmark)"
go test -run '^$' -bench . -benchtime 1x . ./internal/sim/ ./internal/hw/ ./internal/torus/ ./internal/ciod/ ./internal/ckpt/ ./internal/ctrlsys/ ./internal/obs/ ./internal/fs/

# perfbench is a nested module, so ./... above skips it: vet it and run
# its tests, which include the workloads' pinned model digests.
echo "== perfbench: vet + tests"
(cd perfbench && go vet ./... && go test ./...)

if [ "$FUZZTIME" != "0" ]; then
	echo "== live fuzzing ($FUZZTIME per target)"
	go test -fuzz=FuzzFS -fuzztime="$FUZZTIME" ./internal/fs/
	go test -fuzz=FuzzMarshal -fuzztime="$FUZZTIME" ./internal/ciod/
	go test -fuzz=FuzzPersonality -fuzztime="$FUZZTIME" ./internal/ctrlsys/
	go test -fuzz=FuzzJournalBody -fuzztime="$FUZZTIME" ./internal/ctrlsys/
	go test -fuzz=FuzzCheckpointImage -fuzztime="$FUZZTIME" ./internal/ckpt/
	go test -fuzz=FuzzJournal -fuzztime="$FUZZTIME" ./internal/ctrlsys/wal/
	go test -fuzz=FuzzTraceCodec -fuzztime="$FUZZTIME" ./internal/obs/
fi

echo "CI gate passed."
