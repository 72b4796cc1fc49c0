package ciod

import (
	"fmt"
	"hash/fnv"
	"testing"

	"bgcnk/internal/ion"
	"bgcnk/internal/kernel"
	"bgcnk/internal/sim"
)

// replyScript is one fixed sequence of shipped calls from PID 1, thread 1.
// It covers the replies a serving daemon builds from file state: every
// open mode, access-mode and directory errors, each seek origin, reads
// at and past EOF, writes over and after unflushed data, stat after
// unflushed writes, truncate both ways, dup's shared offset, calls on a
// descriptor that was never opened, and a read whose count no file could
// hold.
var replyScript = []*Request{
	{Op: OpProcStart},
	{Op: OpOpen, Path: "/gpfs/f", Flags: kernel.OCreat | kernel.ORdwr, Mode: 0644}, // fd 0
	{Op: OpWrite, FD: 0, Data: []byte("hello, shipped world")},
	{Op: OpLseek, FD: 0, Whence: kernel.SeekSet},
	{Op: OpRead, FD: 0, Size: 5},
	{Op: OpLseek, FD: 0, Off: 2, Whence: kernel.SeekCur},
	{Op: OpRead, FD: 0, Size: 100}, // short at EOF
	{Op: OpRead, FD: 0, Size: 10},  // past EOF
	{Op: OpLseek, FD: 0, Off: 4, Whence: kernel.SeekEnd},
	{Op: OpWrite, FD: 0, Data: []byte("!")}, // leaves a hole
	{Op: OpLseek, FD: 0, Off: -7, Whence: kernel.SeekEnd},
	{Op: OpRead, FD: 0, Size: 7},
	{Op: OpLseek, FD: 0, Off: -1, Whence: kernel.SeekSet},   // EINVAL
	{Op: OpLseek, FD: 0, Off: -100, Whence: kernel.SeekEnd}, // EINVAL
	{Op: OpWrite, FD: 0},                                    // zero length
	{Op: OpStat, Path: "/gpfs/f"},
	{Op: OpFstat, FD: 0},
	{Op: OpOpen, Path: "/gpfs/f", Flags: kernel.OWronly},                  // fd 1
	{Op: OpRead, FD: 1, Size: 4},                                          // EBADF
	{Op: OpOpen, Path: "/gpfs/f", Flags: kernel.ORdonly},                  // fd 2
	{Op: OpWrite, FD: 2, Data: []byte("no")},                              // EBADF
	{Op: OpOpen, Path: "/gpfs/f", Flags: kernel.OWronly | kernel.OAppend}, // fd 3
	{Op: OpLseek, FD: 0, Whence: kernel.SeekSet},
	{Op: OpWrite, FD: 0, Data: []byte("HELLO")},
	{Op: OpWrite, FD: 1, Data: []byte("0123456789abcdefghijklmnopqrstuvwxyz")}, // extends the file
	{Op: OpWrite, FD: 3, Data: []byte("[tail]")},                               // after both
	{Op: OpLseek, FD: 3, Whence: kernel.SeekCur},
	{Op: OpStat, Path: "/gpfs/f"},
	{Op: OpOpen, Path: "/gpfs/dir", Flags: kernel.ORdonly}, // fd 4
	{Op: OpRead, FD: 4, Size: 8},                           // EISDIR
	{Op: OpDup, FD: 2},                                     // fd 5
	{Op: OpRead, FD: 5, Size: 3},
	{Op: OpRead, FD: 2, Size: 3}, // continues where fd 5 stopped
	{Op: OpLseek, FD: 5, Whence: kernel.SeekCur},
	{Op: OpTruncate, Path: "/gpfs/f", Size: 7},
	{Op: OpLseek, FD: 2, Whence: kernel.SeekSet},
	{Op: OpRead, FD: 2, Size: 64},
	{Op: OpTruncate, Path: "/gpfs/f", Size: 12},
	{Op: OpLseek, FD: 2, Whence: kernel.SeekSet},
	{Op: OpRead, FD: 2, Size: 64},
	{Op: OpTruncate, Path: "/gpfs/dir", Size: 0}, // EISDIR
	{Op: OpWrite, FD: 0, Data: []byte("kept?")},
	{Op: OpOpen, Path: "/gpfs/f", Flags: kernel.OWronly | kernel.OTrunc}, // fd 6
	{Op: OpFstat, FD: 6},
	{Op: OpLseek, FD: 2, Whence: kernel.SeekSet},
	{Op: OpRead, FD: 2, Size: 64},
	{Op: OpWrite, FD: 6, Data: []byte("after trunc")},
	{Op: OpLseek, FD: 2, Off: -5, Whence: kernel.SeekEnd},
	{Op: OpRead, FD: 2, Size: 64},
	{Op: OpFsync, FD: 6},
	{Op: OpFsync, FD: 99}, // EBADF
	{Op: OpFstat, FD: 99}, // EBADF
	{Op: OpClose, FD: 99}, // EBADF
	{Op: OpClose, FD: 6},
	{Op: OpClose, FD: 0},
	{Op: OpStat, Path: "/gpfs/f"},
	{Op: OpProcExit},
	{Op: OpProcStart},
	{Op: OpOpen, Path: "/gpfs/f", Flags: kernel.ORdonly}, // fd 0
	{Op: OpRead, FD: 0, Size: 1 << 62},                   // CNK ships the count unchecked
	{Op: OpProcExit},
}

// runReplyScript ships replyScript through a one-client newIONRig built
// from cfg and renders each reply as one row: op, errno, ret, FNV-64a of
// the reply data and the cycle the reply reached the caller.
func runReplyScript(t *testing.T, cfg *ion.Config) []string {
	t.Helper()
	r := newIONRig(1, cfg)
	r.fsys.MustMkdirAll("/gpfs/dir")
	cl := r.clients[0]
	var rows []string
	r.eng.Go("cn0", func(c *sim.Coro) {
		for _, req := range replyScript {
			req := *req
			req.PID, req.TID = 1, 1
			rep := cl.Call(c, &req)
			h := fnv.New64a()
			h.Write(rep.Data)
			rows = append(rows, fmt.Sprintf("%s %v ret=%d data=%016x at=%d",
				OpName(req.Op), rep.Errno, rep.Ret, h.Sum64(), c.Now()))
		}
	})
	r.eng.RunUntilIdle()
	r.eng.Shutdown()
	if len(rows) != len(replyScript) {
		t.Fatalf("%d replies for %d calls", len(rows), len(replyScript))
	}
	return rows
}

// unarmedReplies and armedReplies are replyScript's replies, one row per
// call. Stat data differs between them because the armed daemon's cached
// writes reach the filesystem, and tick its mtime clock, only when
// flushed.
var unarmedReplies = []string{
	"proc_start OK ret=0 data=cbf29ce484222325 at=3277",
	"open OK ret=0 data=cbf29ce484222325 at=9061",
	"write OK ret=20 data=cbf29ce484222325 at=14858",
	"lseek OK ret=0 data=cbf29ce484222325 at=20635",
	"read OK ret=5 data=a430d84680aabd0b at=26417",
	"lseek OK ret=7 data=cbf29ce484222325 at=32194",
	"read OK ret=13 data=668bf1744deab518 at=37984",
	"read OK ret=0 data=cbf29ce484222325 at=43761",
	"lseek OK ret=24 data=cbf29ce484222325 at=49538",
	"write OK ret=1 data=cbf29ce484222325 at=55316",
	"lseek OK ret=18 data=cbf29ce484222325 at=61093",
	"read OK ret=7 data=61e37c6d2ac247a4 at=66877",
	"lseek EINVAL ret=0 data=cbf29ce484222325 at=72654",
	"lseek EINVAL ret=0 data=cbf29ce484222325 at=78431",
	"write OK ret=0 data=cbf29ce484222325 at=84208",
	"stat OK ret=25 data=be19785f4f0635b1 at=90031",
	"fstat OK ret=25 data=be19785f4f0635b1 at=95847",
	"open OK ret=1 data=cbf29ce484222325 at=101631",
	"read EBADF ret=0 data=cbf29ce484222325 at=107408",
	"open OK ret=2 data=cbf29ce484222325 at=113192",
	"write EBADF ret=0 data=cbf29ce484222325 at=118971",
	"open OK ret=3 data=cbf29ce484222325 at=124755",
	"lseek OK ret=0 data=cbf29ce484222325 at=130532",
	"write OK ret=5 data=cbf29ce484222325 at=136314",
	"write OK ret=36 data=cbf29ce484222325 at=142127",
	"write OK ret=6 data=cbf29ce484222325 at=147910",
	"lseek OK ret=42 data=cbf29ce484222325 at=153687",
	"stat OK ret=42 data=342fbe5059a274d7 at=159510",
	"open OK ret=4 data=cbf29ce484222325 at=165296",
	"read EISDIR ret=0 data=cbf29ce484222325 at=171073",
	"dup OK ret=5 data=cbf29ce484222325 at=176850",
	"read OK ret=3 data=4e7b6a181d5dda58 at=182630",
	"read OK ret=3 data=57360a1822548b15 at=188410",
	"lseek OK ret=6 data=cbf29ce484222325 at=194187",
	"truncate OK ret=0 data=cbf29ce484222325 at=199971",
	"lseek OK ret=0 data=cbf29ce484222325 at=205748",
	"read OK ret=7 data=8f3c28601af603b8 at=211532",
	"truncate OK ret=0 data=cbf29ce484222325 at=217316",
	"lseek OK ret=0 data=cbf29ce484222325 at=223093",
	"read OK ret=12 data=68869e404875a028 at=228882",
	"truncate EISDIR ret=0 data=cbf29ce484222325 at=234668",
	"write OK ret=5 data=cbf29ce484222325 at=240450",
	"open OK ret=6 data=cbf29ce484222325 at=246234",
	"fstat OK ret=0 data=d571fbcdc87f32e1 at=252050",
	"lseek OK ret=0 data=cbf29ce484222325 at=257827",
	"read OK ret=0 data=cbf29ce484222325 at=263604",
	"write OK ret=11 data=cbf29ce484222325 at=269392",
	"lseek OK ret=6 data=cbf29ce484222325 at=275169",
	"read OK ret=5 data=8c28a4a7272b50a5 at=280951",
	"fsync OK ret=0 data=cbf29ce484222325 at=286728",
	"fsync EBADF ret=0 data=cbf29ce484222325 at=292505",
	"fstat EBADF ret=0 data=cbf29ce484222325 at=298282",
	"close EBADF ret=0 data=cbf29ce484222325 at=304059",
	"close OK ret=0 data=cbf29ce484222325 at=309836",
	"close OK ret=0 data=cbf29ce484222325 at=315613",
	"stat OK ret=11 data=9f2103c5ef8c1733 at=321436",
	"proc_exit OK ret=0 data=cbf29ce484222325 at=324713",
	"proc_start OK ret=0 data=cbf29ce484222325 at=327990",
	"open OK ret=0 data=cbf29ce484222325 at=333774",
	"read OK ret=11 data=a947ef4c25165223 at=339562",
	"proc_exit OK ret=0 data=cbf29ce484222325 at=342839",
}

var armedReplies = []string{
	"proc_start OK ret=0 data=cbf29ce484222325 at=3294",
	"open OK ret=0 data=cbf29ce484222325 at=9095",
	"write OK ret=20 data=cbf29ce484222325 at=16409",
	"lseek OK ret=0 data=cbf29ce484222325 at=22203",
	"read OK ret=5 data=a430d84680aabd0b at=28002",
	"lseek OK ret=7 data=cbf29ce484222325 at=33796",
	"read OK ret=13 data=668bf1744deab518 at=39603",
	"read OK ret=0 data=cbf29ce484222325 at=45397",
	"lseek OK ret=24 data=cbf29ce484222325 at=51191",
	"write OK ret=1 data=cbf29ce484222325 at=56986",
	"lseek OK ret=18 data=cbf29ce484222325 at=62780",
	"read OK ret=7 data=61e37c6d2ac247a4 at=68581",
	"lseek EINVAL ret=0 data=cbf29ce484222325 at=74375",
	"lseek EINVAL ret=0 data=cbf29ce484222325 at=80169",
	"write OK ret=0 data=cbf29ce484222325 at=85963",
	"stat OK ret=25 data=be19725f4f062b7f at=93303",
	"fstat OK ret=25 data=be19725f4f062b7f at=99136",
	"open OK ret=1 data=cbf29ce484222325 at=104937",
	"read EBADF ret=0 data=cbf29ce484222325 at=110731",
	"open OK ret=2 data=cbf29ce484222325 at=116532",
	"write EBADF ret=0 data=cbf29ce484222325 at=122328",
	"open OK ret=3 data=cbf29ce484222325 at=128129",
	"lseek OK ret=0 data=cbf29ce484222325 at=133923",
	"write OK ret=5 data=cbf29ce484222325 at=139722",
	"write OK ret=36 data=cbf29ce484222325 at=145552",
	"write OK ret=6 data=cbf29ce484222325 at=151352",
	"lseek OK ret=42 data=cbf29ce484222325 at=157146",
	"stat OK ret=42 data=342fba5059a26e0b at=164486",
	"open OK ret=4 data=cbf29ce484222325 at=170289",
	"read EISDIR ret=0 data=cbf29ce484222325 at=176083",
	"dup OK ret=5 data=cbf29ce484222325 at=181877",
	"read OK ret=3 data=4e7b6a181d5dda58 at=187674",
	"read OK ret=3 data=57360a1822548b15 at=193471",
	"lseek OK ret=6 data=cbf29ce484222325 at=199265",
	"truncate OK ret=0 data=cbf29ce484222325 at=205066",
	"lseek OK ret=0 data=cbf29ce484222325 at=210860",
	"read OK ret=7 data=8f3c28601af603b8 at=216661",
	"truncate OK ret=0 data=cbf29ce484222325 at=222462",
	"lseek OK ret=0 data=cbf29ce484222325 at=228256",
	"read OK ret=12 data=68869e404875a028 at=234062",
	"truncate EISDIR ret=0 data=cbf29ce484222325 at=239865",
	"write OK ret=5 data=cbf29ce484222325 at=245664",
	"open OK ret=6 data=cbf29ce484222325 at=251465",
	"fstat OK ret=0 data=d571e5cdc87f0d7f at=257298",
	"lseek OK ret=0 data=cbf29ce484222325 at=263092",
	"read OK ret=0 data=cbf29ce484222325 at=268886",
	"write OK ret=11 data=cbf29ce484222325 at=276191",
	"lseek OK ret=6 data=cbf29ce484222325 at=281985",
	"read OK ret=5 data=8c28a4a7272b50a5 at=287784",
	"fsync OK ret=0 data=cbf29ce484222325 at=295078",
	"fsync EBADF ret=0 data=cbf29ce484222325 at=300872",
	"fstat EBADF ret=0 data=cbf29ce484222325 at=306666",
	"close EBADF ret=0 data=cbf29ce484222325 at=312460",
	"close OK ret=0 data=cbf29ce484222325 at=318254",
	"close OK ret=0 data=cbf29ce484222325 at=324048",
	"stat OK ret=11 data=9f2121c5ef8c4a2d at=329888",
	"proc_exit OK ret=0 data=cbf29ce484222325 at=333182",
	"proc_start OK ret=0 data=cbf29ce484222325 at=336476",
	"open OK ret=0 data=cbf29ce484222325 at=342277",
	"read OK ret=11 data=a947ef4c25165223 at=348082",
	"proc_exit OK ret=0 data=cbf29ce484222325 at=351376",
}

// TestPinnedReplies checks every reply of replyScript, served unarmed and
// through an armed I/O node (shared uplink, four credits, an eight-block
// cache), against its pinned row.
func TestPinnedReplies(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  *ion.Config
		want []string
	}{
		{"unarmed", nil, unarmedReplies},
		{"armed", &ion.Config{QueueDepth: 4, CacheBlocks: 8}, armedReplies},
	} {
		got := runReplyScript(t, mode.cfg)
		for i := range got {
			if i >= len(mode.want) || got[i] != mode.want[i] {
				want := "(none)"
				if i < len(mode.want) {
					want = mode.want[i]
				}
				t.Errorf("%s call %d:\n got  %s\n want %s", mode.name, i, got[i], want)
			}
		}
		if len(mode.want) != len(got) {
			t.Errorf("%s: %d pinned rows for %d calls", mode.name, len(mode.want), len(got))
		}
	}
}
