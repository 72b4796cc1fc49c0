package machine

// Resent-write pin: with most CIOD replies lost, a shipped write is
// often executed, its reply dropped and the same message resent, so a
// payload must stay intact in every message a resend may still carry.
// One rank writes distinct 1 KiB payloads, reading an earlier one back
// between writes, on CNK with and without an armed ION. Every call's
// return value, errno, return cycle and read digest, the retry and
// timeout counts and the ION file's size and digest are checked against
// rows generated before a thread reused its request buffer.

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"bgcnk/internal/fs"
	"bgcnk/internal/ion"
	"bgcnk/internal/kernel"
	"bgcnk/internal/ras"
	"bgcnk/internal/upc"
)

// resentPath is the file the resent-write script writes on the ION.
const resentPath = "/gpfs/resent"

// resentWritesScript has rank 0 write writes distinct 1 KiB payloads and,
// after each, seek back and read the payload before it, appending one row
// per call to rows.
func resentWritesScript(m *Machine, writes int, rows *[]string) App {
	return func(ctx kernel.Context, env *Env) {
		if env.Rank != 0 {
			return
		}
		base := m.HeapBase(ctx)
		path, data, out := base, base+4096, base+8192
		call := func(name string, num kernel.Sys, args ...uint64) uint64 {
			ret, errno := ctx.Syscall(num, args...)
			*rows = append(*rows, fmt.Sprintf("%s ret=%d %v at=%d", name, ret, errno, ctx.Now()))
			return ret
		}
		ctx.StoreCString(path, resentPath)
		fd := call("open", kernel.SysOpen, uint64(path), kernel.OCreat|kernel.ORdwr, 0644)
		payload := make([]byte, 1024)
		for i := 0; i < writes; i++ {
			for j := range payload {
				payload[j] = byte(i*37 + j*11 + 5)
			}
			ctx.Store(data, payload)
			call(fmt.Sprintf("write %d", i), kernel.SysWrite, fd, uint64(data), 1024)
			if i == 0 {
				continue
			}
			end := call("lseek cur", kernel.SysLseek, fd, 0, uint64(kernel.SeekCur))
			call("lseek back", kernel.SysLseek, fd, end-2048, uint64(kernel.SeekSet))
			ctx.Store(out, make([]byte, 1024))
			call("read", kernel.SysRead, fd, uint64(out), 1024)
			got := make([]byte, 1024)
			ctx.Load(out, got)
			h := fnv.New64a()
			h.Write(got)
			*rows = append(*rows, fmt.Sprintf("read digest %016x", h.Sum64()))
			call("lseek end", kernel.SysLseek, fd, end, uint64(kernel.SeekSet))
		}
		call("fsync", kernel.SysFsync, fd)
		call("close", kernel.SysClose, fd)
	}
}

// resentMachines are the two configurations the resent-write script
// runs on: CNK with every CIOD reply lost with probability 0.4, with and
// without an armed ION.
var resentMachines = []struct {
	name string
	cfg  Config
}{
	{"CNK", Config{Nodes: 1, Kind: KindCNK, Reproducible: true,
		Faults: &ras.Plan{Seed: 5, CIODDrop: 0.4}}},
	{"CNK+ION", Config{Nodes: 1, Kind: KindCNK, Reproducible: true,
		Faults: &ras.Plan{Seed: 5, CIODDrop: 0.4},
		ION:    &ion.Config{QueueDepth: 2, CacheBlocks: 2}}},
}

// resentRef holds each machine's rows. The last row is the run summary:
// exit codes, end cycle, the retry and timeout counts, and the ION file's
// size and FNV-64a digest.
var resentRef = map[string][]string{
	"CNK": {
		"open ret=1 OK at=147234",
		"write 0 ret=1024 OK at=155851",
		"write 1 ret=1024 OK at=226932",
		"lseek cur ret=3072 OK at=364829",
		"lseek back ret=1024 OK at=434726",
		"read ret=1024 OK at=505935",
		"read digest 1a8bc2e6a5ec9b25",
		"lseek end ret=3072 OK at=577304",
		"write 2 ret=0 EIO at=937724",
		"lseek cur ret=8192 OK at=1007621",
		"lseek back ret=6144 OK at=1013518",
		"read ret=1024 OK at=1020599",
		"read digest 508e5a4fd3186b25",
		"lseek end ret=8192 OK at=1026496",
		"write 3 ret=1024 OK at=1033577",
		"lseek cur ret=9216 OK at=1039474",
		"lseek back ret=7168 OK at=1109371",
		"read ret=0 OK at=1247268",
		"read digest 51d88627df287325",
		"lseek end ret=9216 OK at=1317165",
		"write 4 ret=1024 OK at=1324246",
		"lseek cur ret=10240 OK at=1394143",
		"lseek back ret=8192 OK at=1464040",
		"read ret=1024 OK at=1471121",
		"read digest 6e9a5ff41511d725",
		"lseek end ret=10240 OK at=1477018",
		"write 5 ret=1024 OK at=1484099",
		"lseek cur ret=11264 OK at=1553996",
		"lseek back ret=9216 OK at=1559893",
		"read ret=1024 OK at=1630974",
		"read digest 9ee279b98ee33325",
		"lseek end ret=11264 OK at=1700871",
		"write 6 ret=1024 OK at=1707952",
		"lseek cur ret=12288 OK at=1921849",
		"lseek back ret=10240 OK at=1927746",
		"read ret=1024 OK at=1934827",
		"read digest 9ee279b98ee33325",
		"lseek end ret=12288 OK at=1940724",
		"write 7 ret=1024 OK at=1947805",
		"lseek cur ret=13312 OK at=1953702",
		"lseek back ret=11264 OK at=2023599",
		"read ret=1024 OK at=2030680",
		"read digest 32e2246d3a6a6325",
		"lseek end ret=13312 OK at=2036577",
		"write 8 ret=1024 OK at=2043658",
		"lseek cur ret=14336 OK at=2113555",
		"lseek back ret=0 EIO at=2473975",
		"read ret=1024 OK at=2481056",
		"read digest fd81163823648725",
		"lseek end ret=14336 OK at=2550953",
		"write 9 ret=1024 OK at=2558034",
		"lseek cur ret=15360 OK at=2563931",
		"lseek back ret=13312 OK at=2633828",
		"read ret=0 OK at=2771725",
		"read digest 51d88627df287325",
		"lseek end ret=15360 OK at=2777622",
		"write 10 ret=1024 OK at=2784703",
		"lseek cur ret=16384 OK at=2790600",
		"lseek back ret=14336 OK at=2796497",
		"read ret=1024 OK at=2867578",
		"read digest b2b9b2e18727d325",
		"lseek end ret=16384 OK at=2937475",
		"write 11 ret=1024 OK at=3076556",
		"lseek cur ret=19456 OK at=3082453",
		"lseek back ret=17408 OK at=3152350",
		"read ret=1024 OK at=3159431",
		"read digest b19a19774ad10725",
		"lseek end ret=19456 OK at=3165328",
		"write 12 ret=1024 OK at=3172409",
		"lseek cur ret=20480 OK at=3178306",
		"lseek back ret=18432 OK at=3184203",
		"read ret=1024 OK at=3191284",
		"read digest b19a19774ad10725",
		"lseek end ret=20480 OK at=3329181",
		"write 13 ret=1024 OK at=3400262",
		"lseek cur ret=22528 OK at=3470159",
		"lseek back ret=20480 OK at=3476056",
		"read ret=1024 OK at=3483137",
		"read digest 29d73505f55a5325",
		"lseek end ret=22528 OK at=3621034",
		"write 14 ret=1024 OK at=3628115",
		"lseek cur ret=23552 OK at=3842012",
		"lseek back ret=21504 OK at=3847909",
		"read ret=0 OK at=3985806",
		"read digest 51d88627df287325",
		"lseek end ret=23552 OK at=3991703",
		"write 15 ret=1024 OK at=3998784",
		"lseek cur ret=24576 OK at=4004681",
		"lseek back ret=22528 OK at=4010578",
		"read ret=1024 OK at=4081659",
		"read digest de8826f58c2ee725",
		"lseek end ret=24576 OK at=4151556",
		"write 16 ret=1024 OK at=4158637",
		"lseek cur ret=25600 OK at=4228534",
		"lseek back ret=23552 OK at=4366431",
		"read ret=1024 OK at=4373512",
		"read digest de8826f58c2ee725",
		"lseek end ret=25600 OK at=4379409",
		"write 17 ret=1024 OK at=4386490",
		"lseek cur ret=26624 OK at=4524387",
		"lseek back ret=24576 OK at=4662284",
		"read ret=1024 OK at=4733365",
		"read digest e6a864607709a325",
		"lseek end ret=26624 OK at=4739262",
		"write 18 ret=1024 OK at=4746343",
		"lseek cur ret=27648 OK at=4816240",
		"lseek back ret=25600 OK at=4822137",
		"read ret=1024 OK at=4829218",
		"read digest e6a864607709a325",
		"lseek end ret=27648 OK at=4835115",
		"write 19 ret=1024 OK at=4906196",
		"lseek cur ret=29696 OK at=4912093",
		"lseek back ret=27648 OK at=4917990",
		"read ret=0 OK at=5055887",
		"read digest 51d88627df287325",
		"lseek end ret=29696 OK at=5061784",
		"write 20 ret=1024 OK at=5068865",
		"lseek cur ret=30720 OK at=5138762",
		"lseek back ret=28672 OK at=5208659",
		"read ret=1024 OK at=5215740",
		"read digest 70ed9acf23956725",
		"lseek end ret=30720 OK at=5221637",
		"write 21 ret=1024 OK at=5228718",
		"lseek cur ret=31744 OK at=5298615",
		"lseek back ret=29696 OK at=5304512",
		"read ret=1024 OK at=5311593",
		"read digest 510a1d9389287b25",
		"lseek end ret=31744 OK at=5317490",
		"write 22 ret=1024 OK at=5388571",
		"lseek cur ret=33792 OK at=5394468",
		"lseek back ret=31744 OK at=5608365",
		"read ret=1024 OK at=5679446",
		"read digest e3b8e10ce8254325",
		"lseek end ret=33792 OK at=5685343",
		"write 23 ret=1024 OK at=5692424",
		"lseek cur ret=34816 OK at=5698321",
		"lseek back ret=32768 OK at=5912218",
		"read ret=1024 OK at=5919299",
		"read digest e3b8e10ce8254325",
		"lseek end ret=34816 OK at=5925196",
		"fsync ret=0 OK at=5931093",
		"close ret=0 OK at=5936990",
		"exit=[0] end=5997290 retries=75 timeouts=77 file=34816:c674db74409b1725",
	},
	"CNK+ION": {
		"open ret=1 OK at=147268",
		"write 0 ret=1024 OK at=157402",
		"write 1 ret=1024 OK at=228500",
		"lseek cur ret=3072 OK at=366414",
		"lseek back ret=1024 OK at=436328",
		"read ret=1024 OK at=507554",
		"read digest 1a8bc2e6a5ec9b25",
		"lseek end ret=3072 OK at=578940",
		"write 2 ret=0 EIO at=939360",
		"lseek cur ret=8192 OK at=1009274",
		"lseek back ret=6144 OK at=1015188",
		"read ret=1024 OK at=1022286",
		"read digest 508e5a4fd3186b25",
		"lseek end ret=8192 OK at=1028200",
		"write 3 ret=1024 OK at=1038298",
		"lseek cur ret=9216 OK at=1044212",
		"lseek back ret=7168 OK at=1114126",
		"read ret=0 OK at=1252040",
		"read digest 51d88627df287325",
		"lseek end ret=9216 OK at=1321954",
		"write 4 ret=1024 OK at=1329052",
		"lseek cur ret=10240 OK at=1398966",
		"lseek back ret=8192 OK at=1468880",
		"read ret=1024 OK at=1475978",
		"read digest 6e9a5ff41511d725",
		"lseek end ret=10240 OK at=1481892",
		"write 5 ret=1024 OK at=1488990",
		"lseek cur ret=11264 OK at=1558904",
		"lseek back ret=9216 OK at=1564818",
		"read ret=1024 OK at=1635916",
		"read digest 9ee279b98ee33325",
		"lseek end ret=11264 OK at=1705830",
		"write 6 ret=1024 OK at=1712928",
		"lseek cur ret=12288 OK at=1926842",
		"lseek back ret=10240 OK at=1932756",
		"read ret=1024 OK at=1939854",
		"read digest 9ee279b98ee33325",
		"lseek end ret=12288 OK at=1945768",
		"write 7 ret=1024 OK at=1955866",
		"lseek cur ret=13312 OK at=1961780",
		"lseek back ret=11264 OK at=2031694",
		"read ret=1024 OK at=2038792",
		"read digest 32e2246d3a6a6325",
		"lseek end ret=13312 OK at=2044706",
		"write 8 ret=1024 OK at=2051804",
		"lseek cur ret=14336 OK at=2121718",
		"lseek back ret=0 EIO at=2482138",
		"read ret=1024 OK at=2489236",
		"read digest fd81163823648725",
		"lseek end ret=14336 OK at=2559150",
		"write 9 ret=1024 OK at=2566248",
		"lseek cur ret=15360 OK at=2572162",
		"lseek back ret=13312 OK at=2642076",
		"read ret=0 OK at=2779990",
		"read digest 51d88627df287325",
		"lseek end ret=15360 OK at=2785904",
		"write 10 ret=1024 OK at=2793002",
		"lseek cur ret=16384 OK at=2798916",
		"lseek back ret=14336 OK at=2804830",
		"read ret=1024 OK at=2875928",
		"read digest b2b9b2e18727d325",
		"lseek end ret=16384 OK at=2945842",
		"write 11 ret=1024 OK at=3084940",
		"lseek cur ret=19456 OK at=3090854",
		"lseek back ret=17408 OK at=3160768",
		"read ret=1024 OK at=3167866",
		"read digest b19a19774ad10725",
		"lseek end ret=19456 OK at=3173780",
		"write 12 ret=1024 OK at=3180878",
		"lseek cur ret=20480 OK at=3186792",
		"lseek back ret=18432 OK at=3192706",
		"read ret=1024 OK at=3199804",
		"read digest b19a19774ad10725",
		"lseek end ret=20480 OK at=3337718",
		"write 13 ret=1024 OK at=3408816",
		"lseek cur ret=22528 OK at=3478730",
		"lseek back ret=20480 OK at=3484644",
		"read ret=1024 OK at=3491742",
		"read digest 29d73505f55a5325",
		"lseek end ret=22528 OK at=3629656",
		"write 14 ret=1024 OK at=3636754",
		"lseek cur ret=23552 OK at=3850668",
		"lseek back ret=21504 OK at=3856582",
		"read ret=0 OK at=3994496",
		"read digest 51d88627df287325",
		"lseek end ret=23552 OK at=4000410",
		"write 15 ret=1024 OK at=4007508",
		"lseek cur ret=24576 OK at=4013422",
		"lseek back ret=22528 OK at=4019336",
		"read ret=1024 OK at=4090434",
		"read digest de8826f58c2ee725",
		"lseek end ret=24576 OK at=4160348",
		"write 16 ret=1024 OK at=4170446",
		"lseek cur ret=25600 OK at=4240360",
		"lseek back ret=23552 OK at=4378274",
		"read ret=1024 OK at=4385372",
		"read digest de8826f58c2ee725",
		"lseek end ret=25600 OK at=4391286",
		"write 17 ret=1024 OK at=4398384",
		"lseek cur ret=26624 OK at=4536298",
		"lseek back ret=24576 OK at=4674212",
		"read ret=1024 OK at=4745310",
		"read digest e6a864607709a325",
		"lseek end ret=26624 OK at=4751224",
		"write 18 ret=1024 OK at=4758322",
		"lseek cur ret=27648 OK at=4828236",
		"lseek back ret=25600 OK at=4834150",
		"read ret=1024 OK at=4841248",
		"read digest e6a864607709a325",
		"lseek end ret=27648 OK at=4847162",
		"write 19 ret=1024 OK at=4921260",
		"lseek cur ret=29696 OK at=4927174",
		"lseek back ret=27648 OK at=4933088",
		"read ret=0 OK at=5071002",
		"read digest 51d88627df287325",
		"lseek end ret=29696 OK at=5076916",
		"write 20 ret=1024 OK at=5084014",
		"lseek cur ret=30720 OK at=5153928",
		"lseek back ret=28672 OK at=5223842",
		"read ret=1024 OK at=5230940",
		"read digest 70ed9acf23956725",
		"lseek end ret=30720 OK at=5236854",
		"write 21 ret=1024 OK at=5243952",
		"lseek cur ret=31744 OK at=5313866",
		"lseek back ret=29696 OK at=5319780",
		"read ret=1024 OK at=5326878",
		"read digest 510a1d9389287b25",
		"lseek end ret=31744 OK at=5332792",
		"write 22 ret=1024 OK at=5406890",
		"lseek cur ret=33792 OK at=5412804",
		"lseek back ret=31744 OK at=5626718",
		"read ret=1024 OK at=5697816",
		"read digest e3b8e10ce8254325",
		"lseek end ret=33792 OK at=5703730",
		"write 23 ret=1024 OK at=5710828",
		"lseek cur ret=34816 OK at=5716742",
		"lseek back ret=32768 OK at=5930656",
		"read ret=1024 OK at=5937754",
		"read digest e3b8e10ce8254325",
		"lseek end ret=34816 OK at=5943668",
		"fsync ret=0 OK at=5951382",
		"close ret=0 OK at=5957296",
		"exit=[0] end=6017596 retries=75 timeouts=77 file=34816:c674db74409b1725",
	},
}

func runResentWrites(t *testing.T, cfg Config) []string {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	var rows []string
	if err := m.Run(resentWritesScript(m, 24, &rows), kernel.JobParams{}, 0); err != nil {
		t.Fatal(err)
	}
	file, errno := m.IONFS[0].ReadFile(resentPath, fs.Root)
	if errno != kernel.OK {
		t.Fatalf("read %s on the ION: %v", resentPath, errno)
	}
	c := m.MergedCounters()
	if c.Total(upc.CIODRetry) == 0 {
		t.Error("no CIOD call was resent")
	}
	h := fnv.New64a()
	h.Write(file)
	return append(rows, fmt.Sprintf("exit=%v end=%d retries=%d timeouts=%d file=%d:%016x",
		m.ExitCodes(), uint64(m.Eng.Now()), c.Total(upc.CIODRetry), c.Total(upc.CIODTimeout), len(file), h.Sum64()))
}

// TestPinnedResentWrites checks the resent-write script's rows on both
// machines against resentRef.
func TestPinnedResentWrites(t *testing.T) {
	for _, mc := range resentMachines {
		t.Run(mc.name, func(t *testing.T) {
			got, want := runResentWrites(t, mc.cfg), resentRef[mc.name]
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
		})
	}
}
