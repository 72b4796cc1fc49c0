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
go test -run 'Fuzz' ./internal/fs/ ./internal/ciod/ ./internal/ctrlsys/ ./internal/ctrlsys/wal/ ./internal/ckpt/ ./internal/obs/

# Durable formats: the checkpoint image, the boot personality, the
# journal bodies and the WAL record framing all encode and decode through
# internal/wire. Each primitive must keep its byte layout and the decoder
# each rejection (truncation, a length or count beyond the bytes left, a
# bool byte other than 0 or 1, trailing bytes); every format must encode
# to digests pinned before the formats shared the codec; and replay must
# accept every body the node writes, up to the WAL's body cap.
echo "== durable formats: wire codec + pinned encodings + large journal bodies"
go test ./internal/wire/
go test -run 'TestPinnedEncodings|TestJournalReplaysLargeBodies' ./internal/ctrlsys/

# Thread runtime: CNK and the FWK share one futex table, thread exit and
# signal delivery (kernel.Runtime), and each kernel supplies only its
# scheduler hooks. The lifecycle script must match its pinned rows on
# both kernels (every step's cycle, return value and errno, the trace
# hash, the merged counters and the obs JSON), the kernel, CNK, FWK and
# NPTL suites must pass repeatedly under -race, and the FWQ render, the
# one golden that runs pthreads on both kernels, must match byte-for-byte.
echo "== kernels: pinned thread lifecycle + kernel suites + fig5-7 golden"
go test -race -count=3 -run 'TestPinnedThreadLifecycle' ./internal/machine/
go test -race -count=3 ./internal/kernel/ ./internal/cnk/ ./internal/fwk/ ./internal/nptl/
go test -run 'TestGolden/fig5-7' ./internal/experiments/

# The fault matrix is part of the -race suite above, but gate on it
# explicitly: every cell's fault must fire and replay bit-identically
# against its committed reference row, and the recovery-under-fault
# replay must hold; together they are the RAS layer's contract. A nil
# injector, fault source, RAS log or counter set is the unarmed handle,
# so every method must be callable on nil and read zero.
echo "== fault matrix"
go test -run 'TestFaultMatrix|TestRecoveryUnderFaultDeterminism|TestFaultsOffChangesNothing|TestCIODRetryExhaustionSurfacesEIO|TestCIODCrashRecovery' ./internal/machine/
go test -run 'TestNilReceivers' ./internal/ras/ ./internal/upc/

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
go test -race -run 'TestParallelDrainMatchesSerial|TestCkptOffSignatureUnchanged|TestFaultFreeCkptDrainMatchesPinned|TestScheduleFIFOBackfill|TestRedrainRejectsChangedQueue' ./internal/ctrlsys/
go test -run 'TestRebootedMachineMatchesFresh' ./internal/machine/
go test -run 'TestGolden/boot' ./internal/experiments/
go test -run 'TestGolden/throughput' ./internal/experiments/

# Resilience contracts: a checkpoint/restart run must be bit-identical to
# the fault-free run (work signature + exit codes, both kernels, under
# -race), every fault class must recover or fail with the typed budget
# error, and the mtbf sweep must match its golden byte-for-byte.
echo "== resilience: restart determinism + mtbf golden"
go test -race -run 'TestRestartDeterminism|TestResilienceFaultClassMatrix' ./internal/ctrlsys/
go test -run 'TestGolden/mtbf' ./internal/experiments/

# Crash-only control system: every crash class x seed must recover to a
# drain bit-identical to the crash-free one at 1/2/8 workers (under
# -race), double-crash-during-recovery included, and that crash-free
# reference, journaled or not, must match its pinned signature; a crash
# with the journal off must surface the typed ErrServiceNodeCrash next to
# any budget errors; a recovered-then-rebooted machine must match a fresh
# one; and the crash-rate sweep must match its golden byte-for-byte.
echo "== crash-only service node: crash matrix + recovery + crashes golden"
go test -race -run 'TestCrashMatrixDeterminism|TestDoubleCrashDuringRecovery|TestServiceNodeCrashTyped|TestRecoverReplaysCompletedDrain|TestRecoverKillsOrphansAndScansLive|TestJournaledDrainMatchesPinned' ./internal/ctrlsys/
go test -run 'TestRecoveredMachineMatchesFresh' ./internal/machine/
go test -run 'TestGolden/crashes' ./internal/experiments/

# I/O-node contracts: armed and unarmed I/O nodes share one CIOD serve
# path, so every reply of a fixed script of shipped calls must match its
# pinned row in both modes, and an ion_crash must kill the daemon in both
# (under -race); with the subsystem armed, the whole machine (shared
# uplink, ingress credits, coalescer, write-back cache) must be
# cycle-reproducible and survive reboot identically, and the checkpointed
# drain through the ION cache must restart bit-identically at 1/2/8
# workers (under -race); an unarmed machine must grow no ION nodes or
# counters and must not depend on CNsPerION; the ion_crash fault class
# must replay cycle-exactly; and the ioscale sweep must match its golden
# byte-for-byte.
echo "== I/O-node aggregation: pinned replies + determinism + ion_crash + ioscale golden"
go test -race -run 'TestPinnedReplies|TestIONCrashFlushesEIOAndDropsCache' ./internal/ciod/
go test -race -run 'TestIONMachineDeterminism|TestIONRebootMatchesFresh|TestIONOffChangesNothing|TestSealCheckpointFlushesIONCache' ./internal/machine/
go test -race -run 'TestRestartDeterminismThroughIONCache' ./internal/ctrlsys/
go test -run 'TestFaultMatrix/.*/ion_crash' ./internal/machine/
go test -run 'TestGolden/ioscale' ./internal/experiments/

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
go test -race -run 'TestTransferCosts|TestSendPacketAllocs|TestHealthyRoutesAreDimensionOrdered|TestCoordOutsideDimsPanics' ./internal/torus/
go test -race -run 'TestTorusFaultMatrix|TestTorusFaultsOffChangesNothing|TestUnroutablePartitionFailsBoot' ./internal/machine/
go test -race -run 'TestLinkFaultLocalizedAndSurvived|TestNodeFaultExhaustsBudgetTyped' ./internal/ctrlsys/
go test -run 'TestGolden/degrade' ./internal/experiments/

# Sim fast-path contracts, gated explicitly: the timer-wheel scheduler
# must replay seeded event workloads AND full machine fault-replay runs
# bit-identically to the reference heap (trace hashes, exit codes, UPC
# counters, RAS logs), every kernel x workload cell of the determinism
# battery must match its pinned reference row, and the replica runner
# must merge bit-identical results at 1, 2, and 8 workers — from the raw
# pool up through the rendered experiment artifacts, and a barrier must
# resume its participants in participant order on every run. All under
# -race.
echo "== sim fast path: heap-vs-wheel differential + pinned battery + replica worker invariance + barrier order"
go test -race -run 'TestDifferential|TestDeterminismBattery' ./internal/sim/ ./internal/machine/
go test -race -run 'TestReplicaWorkerInvariance' ./internal/sim/replica/
go test -race -run 'TestRenderWorkerInvariance' ./internal/experiments/
go test -race -count=5 -run 'TestBarrierResumesInParticipantOrder' ./internal/barrier/

# Coroutine switch contracts: the iter.Pull handoff must keep kill/unwind,
# shutdown order, the pinned runRandomCoros table and allocation-free
# Park/Wake, and a timed park resumed in place must keep every event's
# cycle and order (bare Step, Run limits, same-cycle events, pending
# signals, the pinned advance-hook table), repeated under -race.
echo "== coroutine switch: kill/unwind + pinned coros + in-place parks + alloc-free park/wake"
go test -race -count=10 -run 'TestCoro|TestShutdown|TestEngineShutdown|TestDifferential|TestPark' ./internal/sim/

# Cache model contracts: the tag pages, each allocated by the first fill
# into one of its 256 sets and kept and cleared by a flush, must replay
# the pinned CacheSim digests (dense and sparse streams, both L3
# mappings) and reject lines beyond the tag width; a chip must build in a
# few dozen allocations and at most 64 KiB; DDR must keep its contents
# across a reset in self-refresh and lose them otherwise, zeroing the
# chunks it keeps; and a chip that touched a line per core and a DDR word
# must touch them again after a reset without allocating. Under -race.
echo "== hw cache model: pinned digests + tag range + chip allocations + DDR reset"
go test -race -run 'TestCache|TestChip|TestNewChip|TestSelfRefresh|TestResetWithoutSelfRefresh' ./internal/hw/

# Observability contracts: arming the span/sampler layer must change
# NOTHING (cycle-exact vs the unarmed machine, fault injector on), the
# armed trace must be byte-identical across kernels x seeds x reruns and
# across drain worker counts (under -race), the syscall ABI conformance
# table must hold with its documented divergences, the cross-subsystem
# soak invariants (ION credit conservation, counter monotonicity, no
# leaked partitions, journaled-crash completion) must hold, and the
# tracescale sweep must match its golden byte-for-byte.
echo "== observability: inertness + trace determinism + conformance + soak + tracescale golden"
go test -race -run 'TestObsOffChangesNothing|TestObsArmedDeterminism|TestObsSurvivesClearJobsResetsOnReboot|TestSyscallConformance|TestSoak' ./internal/machine/
go test -race -run 'TestObsDrainWorkerInvariance|TestObsDrainResilientSpans' ./internal/ctrlsys/
go test -run 'TestGolden/tracescale' ./internal/experiments/

# Every Go benchmark in the module must still run (one iteration each):
# the root experiment benchmarks, the sim engine and coroutine switch,
# the hw cache model and TLB, the torus send path, the checkpoint-image
# codec, and the control-system boot, drain and journal-body codec.
echo "== go test -bench (one iteration of every benchmark)"
go test -run '^$' -bench . -benchtime 1x . ./internal/sim/ ./internal/hw/ ./internal/torus/ ./internal/ckpt/ ./internal/ctrlsys/

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
