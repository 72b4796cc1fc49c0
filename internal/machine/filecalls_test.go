package machine

// File-call pin: one ordered script of the 17 file system calls and
// their error cases (bad descriptors, access modes, EOF, O_APPEND,
// SEEK_END and a bad whence, O_EXCL, O_TRUNC, short getcwd and readdir
// buffers, stat with and without a buffer, counts no buffer can hold,
// unmapped paths and buffers) plus a file-backed mmap, run on four
// one-node machines: CNK, CNK with an armed ION, the FWK, and the FWK
// with an armed ION and a filesystem latency. Every call's return value,
// errno, return cycle and an FNV digest of its output buffer, and each
// machine's end cycle, trace hash and merged counters, are checked
// against rows generated before the two kernels shared one file-call
// path.

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"bgcnk/internal/hw"
	"bgcnk/internal/ion"
	"bgcnk/internal/kernel"
)

// unmappedVA lies below every kernel's text segment: no mapping covers it.
const unmappedVA = 0x100

// fileCallScript runs the pinned calls on rank 0's main thread,
// appending one row per call to rows. Paths live at base and base+1024,
// write data at base+4096, and each call's output lands in the 512-byte
// window at base+8192, which is cleared before the call and digested
// after it.
func fileCallScript(m *Machine, rows *[]string) App {
	return func(ctx kernel.Context, env *Env) {
		base := m.HeapBase(ctx)
		path, path2, data, out := base, base+1024, base+4096, base+8192
		const window = 512
		digest := func(va hw.VAddr, n int) uint64 {
			b := make([]byte, n)
			ctx.Load(va, b)
			h := fnv.New64a()
			h.Write(b)
			return h.Sum64()
		}
		call := func(name string, num kernel.Sys, args ...uint64) uint64 {
			ctx.Store(out, make([]byte, window))
			ret, errno := ctx.Syscall(num, args...)
			at := ctx.Now()
			*rows = append(*rows, fmt.Sprintf("%s ret=%d %v at=%d out=%016x", name, ret, errno, at, digest(out, window)))
			return ret
		}
		str := func(va hw.VAddr, s string) uint64 {
			ctx.StoreCString(va, s)
			return uint64(va)
		}
		pattern := make([]byte, 6000)
		for i := range pattern {
			pattern[i] = byte(i*7 + 3)
		}
		ctx.Store(data, pattern)

		call("mkdir /d", kernel.SysMkdir, str(path, "/d"), 0755)
		call("mkdir /d again", kernel.SysMkdir, str(path, "/d"), 0755)
		call("chdir /d", kernel.SysChdir, str(path, "/d"))
		call("getcwd", kernel.SysGetcwd, uint64(out), 256)
		call("getcwd short", kernel.SysGetcwd, uint64(out), 2)
		call("open missing", kernel.SysOpen, str(path, "f"), kernel.ORdonly, 0)
		fd := call("open creat", kernel.SysOpen, str(path, "f"), kernel.OCreat|kernel.ORdwr, 0644)
		call("open excl", kernel.SysOpen, str(path, "/d/f"), kernel.OCreat|kernel.OExcl|kernel.OWronly, 0644)
		call("write 600", kernel.SysWrite, fd, uint64(data), 600)
		call("write 5000", kernel.SysWrite, fd, uint64(data), 5000)
		call("write bad fd", kernel.SysWrite, 99, uint64(data), 8)
		call("write 1<<62", kernel.SysWrite, fd, uint64(data), 1<<62)
		call("lseek set 0", kernel.SysLseek, fd, 0, uint64(kernel.SeekSet))
		call("read 100", kernel.SysRead, fd, uint64(out), 100)
		call("read 512", kernel.SysRead, fd, uint64(out), window)
		call("lseek end 0", kernel.SysLseek, fd, 0, uint64(kernel.SeekEnd))
		call("read at EOF", kernel.SysRead, fd, uint64(out), 64)
		call("lseek end -10", kernel.SysLseek, fd, ^uint64(9), uint64(kernel.SeekEnd))
		call("read 1<<62", kernel.SysRead, fd, uint64(out), 1<<62)
		call("lseek bad whence", kernel.SysLseek, fd, 0, 7)
		call("lseek negative", kernel.SysLseek, fd, ^uint64(999), uint64(kernel.SeekSet))
		call("lseek cur 3", kernel.SysLseek, fd, 3, uint64(kernel.SeekCur))
		call("read bad fd", kernel.SysRead, 99, uint64(out), 8)
		rfd := call("open rdonly", kernel.SysOpen, str(path, "/d/f"), kernel.ORdonly, 0)
		call("write rdonly", kernel.SysWrite, rfd, uint64(data), 8)
		call("read rdonly", kernel.SysRead, rfd, uint64(out), 32)
		wfd := call("open append", kernel.SysOpen, str(path, "f"), kernel.OWronly|kernel.OAppend, 0)
		call("read wronly", kernel.SysRead, wfd, uint64(out), 8)
		call("write append", kernel.SysWrite, wfd, uint64(data+100), 16)
		call("lseek cur append", kernel.SysLseek, wfd, 0, uint64(kernel.SeekCur))
		call("fstat", kernel.SysFstat, fd, uint64(out))
		call("fstat no buffer", kernel.SysFstat, fd, 0)
		call("fstat bad fd", kernel.SysFstat, 99, uint64(out))
		call("stat", kernel.SysStat, str(path, "/d/f"), uint64(out))
		call("stat no buffer", kernel.SysStat, str(path, "f"), 0)
		call("stat missing", kernel.SysStat, str(path, "/nope"), uint64(out))
		call("stat dir", kernel.SysStat, str(path, "/d"), uint64(out))
		dfd := call("open dir", kernel.SysOpen, str(path, "/d"), kernel.ORdonly, 0)
		call("read dir", kernel.SysRead, dfd, uint64(out), 16)
		call("write dir", kernel.SysWrite, dfd, uint64(data), 16)
		call("lseek end dir", kernel.SysLseek, dfd, 0, uint64(kernel.SeekEnd))
		call("open dir wronly", kernel.SysOpen, str(path, "/d"), kernel.OWronly, 0)
		dup := call("dup", kernel.SysDup, fd)
		call("dup bad fd", kernel.SysDup, 99)
		call("lseek set 4", kernel.SysLseek, fd, 4, uint64(kernel.SeekSet))
		call("read dup", kernel.SysRead, dup, uint64(out), 6)
		call("lseek cur orig", kernel.SysLseek, fd, 0, uint64(kernel.SeekCur))
		call("fsync", kernel.SysFsync, fd)
		call("fsync bad fd", kernel.SysFsync, 99)
		call("close dup", kernel.SysClose, dup)
		call("close dup again", kernel.SysClose, dup)
		call("read after close dup", kernel.SysRead, fd, uint64(out), 6)

		mapped := call("mmap file", kernel.SysMmap, 0, 8192, kernel.ProtRead, kernel.MapPrivate, fd, 4)
		*rows = append(*rows, fmt.Sprintf("mapping %016x", digest(hw.VAddr(mapped), 8192)))
		call("mmap bad fd", kernel.SysMmap, 0, 4096, kernel.ProtRead, kernel.MapPrivate, 99, 0)
		call("mmap wronly fd", kernel.SysMmap, 0, 4096, kernel.ProtRead, kernel.MapPrivate, wfd, 0)

		tfd := call("open trunc", kernel.SysOpen, str(path, "f"), kernel.OWronly|kernel.OTrunc, 0)
		call("fstat after trunc", kernel.SysFstat, fd, uint64(out))
		call("read after trunc", kernel.SysRead, fd, uint64(out), 64)
		call("write past EOF", kernel.SysWrite, tfd, uint64(data), 3)
		call("lseek set 40", kernel.SysLseek, tfd, 40, uint64(kernel.SeekSet))
		call("write sparse", kernel.SysWrite, tfd, uint64(data+8), 5)
		call("lseek set 0 read", kernel.SysLseek, fd, 0, uint64(kernel.SeekSet))
		call("read sparse", kernel.SysRead, fd, uint64(out), 100)
		call("truncate 100", kernel.SysTruncate, str(path, "/d/f"), 100)
		call("stat after truncate", kernel.SysStat, str(path, "/d/f"), uint64(out))
		call("truncate missing", kernel.SysTruncate, str(path, "/nope"), 1)
		call("truncate dir", kernel.SysTruncate, str(path, "/d"), 1)
		call("mkdir /d/sub", kernel.SysMkdir, str(path, "/d/sub"), 0700)
		str(path2, "/d/g")
		call("rename", kernel.SysRename, str(path, "/d/f"), uint64(path2))
		call("rename missing", kernel.SysRename, str(path, "/d/f"), uint64(path2))
		call("readdir", kernel.SysReaddir, str(path, "/d"), uint64(out), 256)
		call("readdir short", kernel.SysReaddir, str(path, "/d"), uint64(out), 4)
		call("readdir file", kernel.SysReaddir, str(path, "/d/g"), uint64(out), 256)
		call("readdir missing", kernel.SysReaddir, str(path, "/nope"), uint64(out), 256)
		call("fstat renamed", kernel.SysFstat, fd, uint64(out))
		call("rmdir non-empty", kernel.SysRmdir, str(path, "/d"))
		call("rmdir file", kernel.SysRmdir, str(path, "/d/g"))
		call("rmdir sub", kernel.SysRmdir, str(path, "sub"))
		call("unlink", kernel.SysUnlink, str(path, "/d/g"))
		call("unlink again", kernel.SysUnlink, str(path, "/d/g"))
		call("unlink dir", kernel.SysUnlink, str(path, "/d"))
		call("read unlinked", kernel.SysRead, fd, uint64(out), 8)
		call("chdir missing", kernel.SysChdir, str(path, "/nope"))
		call("chdir /", kernel.SysChdir, str(path, "/"))
		call("rmdir /d", kernel.SysRmdir, str(path, "/d"))

		// Unmapped paths and buffers.
		call("open unmapped path", kernel.SysOpen, unmappedVA, kernel.ORdonly, 0)
		call("stat unmapped path", kernel.SysStat, unmappedVA, uint64(out))
		call("rename unmapped new", kernel.SysRename, str(path, "/gpfs"), unmappedVA)
		call("mkdir unmapped path", kernel.SysMkdir, unmappedVA, 0755)
		gfd := call("open /gpfs/o", kernel.SysOpen, str(path, "/gpfs/o"), kernel.OCreat|kernel.ORdwr, 0600)
		call("write unmapped buffer", kernel.SysWrite, gfd, unmappedVA, 64)
		call("write 16", kernel.SysWrite, gfd, uint64(data), 16)
		call("lseek set 0 gpfs", kernel.SysLseek, gfd, 0, uint64(kernel.SeekSet))
		call("read unmapped buffer", kernel.SysRead, gfd, unmappedVA, 8)
		call("lseek cur gpfs", kernel.SysLseek, gfd, 0, uint64(kernel.SeekCur))
		call("fstat unmapped buffer", kernel.SysFstat, gfd, unmappedVA)
		call("getcwd unmapped buffer", kernel.SysGetcwd, unmappedVA, 64)
		call("readdir unmapped buffer", kernel.SysReaddir, str(path, "/"), unmappedVA, 256)

		for _, f := range []uint64{fd, rfd, wfd, dfd, tfd, gfd} {
			call(fmt.Sprintf("close %d", f), kernel.SysClose, f)
		}
		call("close bad fd", kernel.SysClose, 99)
	}
}

// fileCallMachines are the four configurations the script runs on.
var fileCallMachines = []struct {
	name string
	cfg  Config
}{
	{"CNK", Config{Nodes: 1, Kind: KindCNK, Reproducible: true}},
	{"CNK+ION", Config{Nodes: 1, Kind: KindCNK, Reproducible: true,
		ION: &ion.Config{QueueDepth: 2, CacheBlocks: 2}}},
	{"FWK", Config{Nodes: 1, Kind: KindFWK, Seed: 3}},
	{"FWK+ION", Config{Nodes: 1, Kind: KindFWK, Seed: 3, FSLatency: 4_000,
		ION: &ion.Config{QueueDepth: 2, CacheBlocks: 2}}},
}

// fileCallRef holds each machine's rows, generated before the kernels
// shared one file-call path. The last row of each is the run summary:
// exit codes, end cycle, trace hash and an FNV-64a digest of the merged
// counter table.
var fileCallRef = map[string][]string{
	"CNK": {
		"mkdir /d ret=0 OK at=83632 out=7da144b97d054b25",
		"mkdir /d again ret=0 EEXIST at=90267 out=7da144b97d054b25",
		"chdir /d ret=0 OK at=96166 out=7da144b97d054b25",
		"getcwd ret=2 OK at=102065 out=b2fbfeddfcc3aefe",
		"getcwd short ret=0 ENAMETOOLONG at=107964 out=7da144b97d054b25",
		"open missing ret=18446744073709551615 ENOENT at=113862 out=7da144b97d054b25",
		"open creat ret=0 OK at=119760 out=7da144b97d054b25",
		"open excl ret=18446744073709551615 EEXIST at=125661 out=7da144b97d054b25",
		"write 600 ret=600 OK at=133112 out=7da144b97d054b25",
		"write 5000 ret=5000 OK at=150381 out=7da144b97d054b25",
		"write bad fd ret=0 EBADF at=156286 out=7da144b97d054b25",
		"write 1<<62 ret=0 EFAULT at=156406 out=7da144b97d054b25",
		"lseek set 0 ret=0 OK at=162303 out=7da144b97d054b25",
		"read 100 ret=100 OK at=168300 out=bbfd8e20675e4c69",
		"read 512 ret=512 OK at=174789 out=ea2a32021f6a9cd5",
		"lseek end 0 ret=5600 OK at=180686 out=7da144b97d054b25",
		"read at EOF ret=0 OK at=186583 out=7da144b97d054b25",
		"lseek end -10 ret=5590 OK at=192480 out=7da144b97d054b25",
		"read 1<<62 ret=10 OK at=198387 out=d5c5a9a3b2c05ff4",
		"lseek bad whence ret=0 EINVAL at=204284 out=7da144b97d054b25",
		"lseek negative ret=0 EINVAL at=210181 out=7da144b97d054b25",
		"lseek cur 3 ret=5603 OK at=216078 out=7da144b97d054b25",
		"read bad fd ret=0 EBADF at=221975 out=7da144b97d054b25",
		"open rdonly ret=1 OK at=227876 out=7da144b97d054b25",
		"write rdonly ret=0 EBADF at=233781 out=7da144b97d054b25",
		"read rdonly ret=32 OK at=239710 out=40511bd3f77af3a5",
		"open append ret=2 OK at=245608 out=7da144b97d054b25",
		"read wronly ret=0 EBADF at=251505 out=7da144b97d054b25",
		"write append ret=16 OK at=257418 out=7da144b97d054b25",
		"lseek cur append ret=5616 OK at=263315 out=7da144b97d054b25",
		"fstat ret=5616 OK at=269251 out=8edfa3d0704f7504",
		"fstat no buffer ret=5616 OK at=275187 out=7da144b97d054b25",
		"fstat bad fd ret=0 EBADF at=281084 out=7da144b97d054b25",
		"stat ret=5616 OK at=287024 out=8edfa3d0704f7504",
		"stat no buffer ret=5616 OK at=292961 out=7da144b97d054b25",
		"stat missing ret=0 ENOENT at=298863 out=7da144b97d054b25",
		"stat dir ret=0 OK at=304801 out=60ffe9baf219f64c",
		"open dir ret=3 OK at=310700 out=7da144b97d054b25",
		"read dir ret=0 EISDIR at=316597 out=7da144b97d054b25",
		"write dir ret=0 EBADF at=322510 out=7da144b97d054b25",
		"lseek end dir ret=0 OK at=328407 out=7da144b97d054b25",
		"open dir wronly ret=18446744073709551615 EISDIR at=334306 out=7da144b97d054b25",
		"dup ret=4 OK at=340203 out=7da144b97d054b25",
		"dup bad fd ret=18446744073709551615 EBADF at=346100 out=7da144b97d054b25",
		"lseek set 4 ret=4 OK at=351997 out=7da144b97d054b25",
		"read dup ret=6 OK at=357900 out=b3323c35d3798824",
		"lseek cur orig ret=10 OK at=363797 out=7da144b97d054b25",
		"fsync ret=0 OK at=369694 out=7da144b97d054b25",
		"fsync bad fd ret=0 EBADF at=375591 out=7da144b97d054b25",
		"close dup ret=0 OK at=381488 out=7da144b97d054b25",
		"close dup again ret=0 EBADF at=387385 out=7da144b97d054b25",
		"read after close dup ret=6 OK at=393288 out=da64346c420da58c",
		"mmap file ret=110624768 OK at=417543 out=7da144b97d054b25",
		"mapping 7d34d04bf0dfe921",
		"mmap bad fd ret=0 EBADF at=436376 out=7da144b97d054b25",
		"mmap wronly fd ret=0 EBADF at=448050 out=7da144b97d054b25",
		"open trunc ret=4 OK at=453948 out=7da144b97d054b25",
		"fstat after trunc ret=0 OK at=459884 out=910b98a510e5f3d0",
		"read after trunc ret=0 OK at=465781 out=7da144b97d054b25",
		"write past EOF ret=3 OK at=471681 out=7da144b97d054b25",
		"lseek set 40 ret=40 OK at=477578 out=7da144b97d054b25",
		"write sparse ret=5 OK at=483480 out=7da144b97d054b25",
		"lseek set 0 read ret=0 OK at=489377 out=7da144b97d054b25",
		"read sparse ret=45 OK at=495319 out=5e59038bd736fce2",
		"truncate 100 ret=0 OK at=501220 out=7da144b97d054b25",
		"stat after truncate ret=100 OK at=507160 out=196b8171c0e0d12f",
		"truncate missing ret=0 ENOENT at=513062 out=7da144b97d054b25",
		"truncate dir ret=0 EISDIR at=518961 out=7da144b97d054b25",
		"mkdir /d/sub ret=0 OK at=524864 out=7da144b97d054b25",
		"rename ret=0 OK at=530817 out=7da144b97d054b25",
		"rename missing ret=0 ENOENT at=536722 out=7da144b97d054b25",
		"readdir ret=2 OK at=542637 out=29d5df93c31a96f0",
		"readdir short ret=0 EOVERFLOW at=548552 out=7da144b97d054b25",
		"readdir file ret=0 ENOTDIR at=554453 out=7da144b97d054b25",
		"readdir missing ret=0 ENOENT at=560355 out=7da144b97d054b25",
		"fstat renamed ret=100 OK at=566291 out=196b8171c0e0d12f",
		"rmdir non-empty ret=0 ENOTEMPTY at=572190 out=7da144b97d054b25",
		"rmdir file ret=0 ENOTDIR at=578091 out=7da144b97d054b25",
		"rmdir sub ret=0 OK at=583991 out=7da144b97d054b25",
		"unlink ret=0 OK at=589892 out=7da144b97d054b25",
		"unlink again ret=0 ENOENT at=595793 out=7da144b97d054b25",
		"unlink dir ret=0 EISDIR at=601692 out=7da144b97d054b25",
		"read unlinked ret=8 OK at=607597 out=7da144b97d054b25",
		"chdir missing ret=0 ENOENT at=613499 out=7da144b97d054b25",
		"chdir / ret=0 OK at=619397 out=7da144b97d054b25",
		"rmdir /d ret=0 OK at=625296 out=7da144b97d054b25",
		"open unmapped path ret=0 EFAULT at=625416 out=7da144b97d054b25",
		"stat unmapped path ret=0 EFAULT at=625536 out=7da144b97d054b25",
		"rename unmapped new ret=0 EFAULT at=625656 out=7da144b97d054b25",
		"mkdir unmapped path ret=0 EFAULT at=625776 out=7da144b97d054b25",
		"open /gpfs/o ret=5 OK at=631680 out=7da144b97d054b25",
		"write unmapped buffer ret=0 EFAULT at=631800 out=7da144b97d054b25",
		"write 16 ret=16 OK at=637713 out=7da144b97d054b25",
		"lseek set 0 gpfs ret=0 OK at=643610 out=7da144b97d054b25",
		"read unmapped buffer ret=0 EFAULT at=649515 out=7da144b97d054b25",
		"lseek cur gpfs ret=8 OK at=655412 out=7da144b97d054b25",
		"fstat unmapped buffer ret=0 EFAULT at=661348 out=7da144b97d054b25",
		"getcwd unmapped buffer ret=0 EFAULT at=667246 out=7da144b97d054b25",
		"readdir unmapped buffer ret=0 EFAULT at=673163 out=7da144b97d054b25",
		"close 0 ret=0 OK at=679060 out=7da144b97d054b25",
		"close 1 ret=0 OK at=684957 out=7da144b97d054b25",
		"close 2 ret=0 OK at=690854 out=7da144b97d054b25",
		"close 3 ret=0 OK at=696751 out=7da144b97d054b25",
		"close 4 ret=0 OK at=702648 out=7da144b97d054b25",
		"close 5 ret=0 OK at=708545 out=7da144b97d054b25",
		"close bad fd ret=0 EBADF at=714442 out=7da144b97d054b25",
		"exit=[0] end=717719 trace=a64215ffe1990a3d counters=a8b57d3208f57650",
	},
	"CNK+ION": {
		"mkdir /d ret=0 OK at=83666 out=7da144b97d054b25",
		"mkdir /d again ret=0 EEXIST at=90318 out=7da144b97d054b25",
		"chdir /d ret=0 OK at=96234 out=7da144b97d054b25",
		"getcwd ret=2 OK at=102150 out=b2fbfeddfcc3aefe",
		"getcwd short ret=0 ENAMETOOLONG at=108066 out=7da144b97d054b25",
		"open missing ret=18446744073709551615 ENOENT at=113981 out=7da144b97d054b25",
		"open creat ret=0 OK at=119896 out=7da144b97d054b25",
		"open excl ret=18446744073709551615 EEXIST at=125814 out=7da144b97d054b25",
		"write 600 ret=600 OK at=134782 out=7da144b97d054b25",
		"write 5000 ret=5000 OK at=153568 out=7da144b97d054b25",
		"write bad fd ret=0 EBADF at=159490 out=7da144b97d054b25",
		"write 1<<62 ret=0 EFAULT at=159610 out=7da144b97d054b25",
		"lseek set 0 ret=0 OK at=165524 out=7da144b97d054b25",
		"read 100 ret=100 OK at=171538 out=bbfd8e20675e4c69",
		"read 512 ret=512 OK at=178044 out=ea2a32021f6a9cd5",
		"lseek end 0 ret=5600 OK at=183958 out=7da144b97d054b25",
		"read at EOF ret=0 OK at=189872 out=7da144b97d054b25",
		"lseek end -10 ret=5590 OK at=195786 out=7da144b97d054b25",
		"read 1<<62 ret=10 OK at=201710 out=d5c5a9a3b2c05ff4",
		"lseek bad whence ret=0 EINVAL at=207624 out=7da144b97d054b25",
		"lseek negative ret=0 EINVAL at=213538 out=7da144b97d054b25",
		"lseek cur 3 ret=5603 OK at=219452 out=7da144b97d054b25",
		"read bad fd ret=0 EBADF at=225366 out=7da144b97d054b25",
		"open rdonly ret=1 OK at=231284 out=7da144b97d054b25",
		"write rdonly ret=0 EBADF at=237206 out=7da144b97d054b25",
		"read rdonly ret=32 OK at=243152 out=40511bd3f77af3a5",
		"open append ret=2 OK at=249067 out=7da144b97d054b25",
		"read wronly ret=0 EBADF at=254981 out=7da144b97d054b25",
		"write append ret=16 OK at=260911 out=7da144b97d054b25",
		"lseek cur append ret=5616 OK at=266825 out=7da144b97d054b25",
		"fstat ret=5616 OK at=274578 out=f0ceaf8febd88c16",
		"fstat no buffer ret=5616 OK at=280531 out=7da144b97d054b25",
		"fstat bad fd ret=0 EBADF at=286445 out=7da144b97d054b25",
		"stat ret=5616 OK at=292402 out=f0ceaf8febd88c16",
		"stat no buffer ret=5616 OK at=298356 out=7da144b97d054b25",
		"stat missing ret=0 ENOENT at=304275 out=7da144b97d054b25",
		"stat dir ret=0 OK at=310230 out=60ffe9baf219f64c",
		"open dir ret=3 OK at=316146 out=7da144b97d054b25",
		"read dir ret=0 EISDIR at=322060 out=7da144b97d054b25",
		"write dir ret=0 EBADF at=327990 out=7da144b97d054b25",
		"lseek end dir ret=0 OK at=333904 out=7da144b97d054b25",
		"open dir wronly ret=18446744073709551615 EISDIR at=339820 out=7da144b97d054b25",
		"dup ret=4 OK at=345734 out=7da144b97d054b25",
		"dup bad fd ret=18446744073709551615 EBADF at=351648 out=7da144b97d054b25",
		"lseek set 4 ret=4 OK at=357562 out=7da144b97d054b25",
		"read dup ret=6 OK at=363482 out=b3323c35d3798824",
		"lseek cur orig ret=10 OK at=369396 out=7da144b97d054b25",
		"fsync ret=0 OK at=375310 out=7da144b97d054b25",
		"fsync bad fd ret=0 EBADF at=381224 out=7da144b97d054b25",
		"close dup ret=0 OK at=387138 out=7da144b97d054b25",
		"close dup again ret=0 EBADF at=393052 out=7da144b97d054b25",
		"read after close dup ret=6 OK at=398972 out=da64346c420da58c",
		"mmap file ret=110624768 OK at=423278 out=7da144b97d054b25",
		"mapping 7d34d04bf0dfe921",
		"mmap bad fd ret=0 EBADF at=442128 out=7da144b97d054b25",
		"mmap wronly fd ret=0 EBADF at=453836 out=7da144b97d054b25",
		"open trunc ret=4 OK at=459751 out=7da144b97d054b25",
		"fstat after trunc ret=0 OK at=465704 out=e7d041c34145c48f",
		"read after trunc ret=0 OK at=471618 out=7da144b97d054b25",
		"write past EOF ret=3 OK at=479035 out=7da144b97d054b25",
		"lseek set 40 ret=40 OK at=484949 out=7da144b97d054b25",
		"write sparse ret=5 OK at=490868 out=7da144b97d054b25",
		"lseek set 0 read ret=0 OK at=496782 out=7da144b97d054b25",
		"read sparse ret=45 OK at=502741 out=5e59038bd736fce2",
		"truncate 100 ret=0 OK at=508659 out=7da144b97d054b25",
		"stat after truncate ret=100 OK at=516116 out=e873fb92031c45a6",
		"truncate missing ret=0 ENOENT at=522035 out=7da144b97d054b25",
		"truncate dir ret=0 EISDIR at=527951 out=7da144b97d054b25",
		"mkdir /d/sub ret=0 OK at=533871 out=7da144b97d054b25",
		"rename ret=0 OK at=539841 out=7da144b97d054b25",
		"rename missing ret=0 ENOENT at=545763 out=7da144b97d054b25",
		"readdir ret=2 OK at=551695 out=29d5df93c31a96f0",
		"readdir short ret=0 EOVERFLOW at=557627 out=7da144b97d054b25",
		"readdir file ret=0 ENOTDIR at=563545 out=7da144b97d054b25",
		"readdir missing ret=0 ENOENT at=569464 out=7da144b97d054b25",
		"fstat renamed ret=100 OK at=575417 out=e873fb92031c45a6",
		"rmdir non-empty ret=0 ENOTEMPTY at=581333 out=7da144b97d054b25",
		"rmdir file ret=0 ENOTDIR at=587251 out=7da144b97d054b25",
		"rmdir sub ret=0 OK at=593168 out=7da144b97d054b25",
		"unlink ret=0 OK at=599086 out=7da144b97d054b25",
		"unlink again ret=0 ENOENT at=605004 out=7da144b97d054b25",
		"unlink dir ret=0 EISDIR at=610920 out=7da144b97d054b25",
		"read unlinked ret=8 OK at=616842 out=7da144b97d054b25",
		"chdir missing ret=0 ENOENT at=622761 out=7da144b97d054b25",
		"chdir / ret=0 OK at=628676 out=7da144b97d054b25",
		"rmdir /d ret=0 OK at=634592 out=7da144b97d054b25",
		"open unmapped path ret=0 EFAULT at=634712 out=7da144b97d054b25",
		"stat unmapped path ret=0 EFAULT at=634832 out=7da144b97d054b25",
		"rename unmapped new ret=0 EFAULT at=634952 out=7da144b97d054b25",
		"mkdir unmapped path ret=0 EFAULT at=635072 out=7da144b97d054b25",
		"open /gpfs/o ret=5 OK at=640993 out=7da144b97d054b25",
		"write unmapped buffer ret=0 EFAULT at=641113 out=7da144b97d054b25",
		"write 16 ret=16 OK at=648543 out=7da144b97d054b25",
		"lseek set 0 gpfs ret=0 OK at=654457 out=7da144b97d054b25",
		"read unmapped buffer ret=0 EFAULT at=660379 out=7da144b97d054b25",
		"lseek cur gpfs ret=8 OK at=666293 out=7da144b97d054b25",
		"fstat unmapped buffer ret=0 EFAULT at=673746 out=7da144b97d054b25",
		"getcwd unmapped buffer ret=0 EFAULT at=679661 out=7da144b97d054b25",
		"readdir unmapped buffer ret=0 EFAULT at=685595 out=7da144b97d054b25",
		"close 0 ret=0 OK at=691509 out=7da144b97d054b25",
		"close 1 ret=0 OK at=697423 out=7da144b97d054b25",
		"close 2 ret=0 OK at=703337 out=7da144b97d054b25",
		"close 3 ret=0 OK at=709251 out=7da144b97d054b25",
		"close 4 ret=0 OK at=715165 out=7da144b97d054b25",
		"close 5 ret=0 OK at=721079 out=7da144b97d054b25",
		"close bad fd ret=0 EBADF at=726993 out=7da144b97d054b25",
		"exit=[0] end=730287 trace=47c54ff8d5b416d2 counters=2f1abdc5dfc3b022",
	},
	"FWK": {
		"mkdir /d ret=0 OK at=15010376 out=7da144b97d054b25",
		"mkdir /d again ret=0 EEXIST at=15012362 out=7da144b97d054b25",
		"chdir /d ret=0 OK at=15013612 out=7da144b97d054b25",
		"getcwd ret=2 OK at=15014862 out=b2fbfeddfcc3aefe",
		"getcwd short ret=0 ENAMETOOLONG at=15016112 out=7da144b97d054b25",
		"open missing ret=18446744073709551615 ENOENT at=15017362 out=7da144b97d054b25",
		"open creat ret=0 OK at=15018612 out=7da144b97d054b25",
		"open excl ret=18446744073709551615 EEXIST at=15019862 out=7da144b97d054b25",
		"write 600 ret=600 OK at=15021986 out=7da144b97d054b25",
		"write 5000 ret=5000 OK at=15028848 out=7da144b97d054b25",
		"write bad fd ret=0 EBADF at=15030098 out=7da144b97d054b25",
		"write 1<<62 ret=0 EFAULT at=15031348 out=7da144b97d054b25",
		"lseek set 0 ret=0 OK at=15032598 out=7da144b97d054b25",
		"read 100 ret=100 OK at=15033848 out=bbfd8e20675e4c69",
		"read 512 ret=512 OK at=15035098 out=ea2a32021f6a9cd5",
		"lseek end 0 ret=5600 OK at=15036348 out=7da144b97d054b25",
		"read at EOF ret=0 OK at=15037598 out=7da144b97d054b25",
		"lseek end -10 ret=5590 OK at=15038848 out=7da144b97d054b25",
		"read 1<<62 ret=10 OK at=15040098 out=d5c5a9a3b2c05ff4",
		"lseek bad whence ret=0 EINVAL at=15041348 out=7da144b97d054b25",
		"lseek negative ret=0 EINVAL at=15042598 out=7da144b97d054b25",
		"lseek cur 3 ret=5603 OK at=15043848 out=7da144b97d054b25",
		"read bad fd ret=0 EBADF at=15045098 out=7da144b97d054b25",
		"open rdonly ret=1 OK at=15046348 out=7da144b97d054b25",
		"write rdonly ret=0 EBADF at=15047598 out=7da144b97d054b25",
		"read rdonly ret=32 OK at=15048848 out=40511bd3f77af3a5",
		"open append ret=2 OK at=15050098 out=7da144b97d054b25",
		"read wronly ret=0 EBADF at=15051348 out=7da144b97d054b25",
		"write append ret=16 OK at=15052598 out=7da144b97d054b25",
		"lseek cur append ret=5616 OK at=15053848 out=7da144b97d054b25",
		"fstat ret=5616 OK at=15055098 out=71ebfc6356f53c98",
		"fstat no buffer ret=5616 OK at=15056348 out=7da144b97d054b25",
		"fstat bad fd ret=0 EBADF at=15057598 out=7da144b97d054b25",
		"stat ret=5616 OK at=15058848 out=71ebfc6356f53c98",
		"stat no buffer ret=5616 OK at=15060098 out=7da144b97d054b25",
		"stat missing ret=0 ENOENT at=15061348 out=7da144b97d054b25",
		"stat dir ret=0 OK at=15062598 out=7da144b97d054b25",
		"open dir ret=3 OK at=15063848 out=7da144b97d054b25",
		"read dir ret=0 EISDIR at=15065098 out=7da144b97d054b25",
		"write dir ret=0 EBADF at=15066348 out=7da144b97d054b25",
		"lseek end dir ret=0 OK at=15067598 out=7da144b97d054b25",
		"open dir wronly ret=18446744073709551615 EISDIR at=15068848 out=7da144b97d054b25",
		"dup ret=4 OK at=15070098 out=7da144b97d054b25",
		"dup bad fd ret=18446744073709551615 EBADF at=15071348 out=7da144b97d054b25",
		"lseek set 4 ret=4 OK at=15072598 out=7da144b97d054b25",
		"read dup ret=6 OK at=15073848 out=b3323c35d3798824",
		"lseek cur orig ret=10 OK at=15075098 out=7da144b97d054b25",
		"fsync ret=0 OK at=15076348 out=7da144b97d054b25",
		"fsync bad fd ret=0 EBADF at=15077598 out=7da144b97d054b25",
		"close dup ret=0 OK at=15078848 out=7da144b97d054b25",
		"close dup again ret=0 EBADF at=15080098 out=7da144b97d054b25",
		"read after close dup ret=6 OK at=15081348 out=da64346c420da58c",
		"mmap file ret=554700800 OK at=15087478 out=7da144b97d054b25",
		"mapping 7d34d04bf0dfe921",
		"mmap bad fd ret=0 EBADF at=15103392 out=7da144b97d054b25",
		"mmap wronly fd ret=0 EBADF at=15103742 out=7da144b97d054b25",
		"open trunc ret=4 OK at=15104992 out=7da144b97d054b25",
		"fstat after trunc ret=0 OK at=15106242 out=7da144b97d054b25",
		"read after trunc ret=0 OK at=15107492 out=7da144b97d054b25",
		"write past EOF ret=3 OK at=15108742 out=7da144b97d054b25",
		"lseek set 40 ret=40 OK at=15109992 out=7da144b97d054b25",
		"write sparse ret=5 OK at=15111242 out=7da144b97d054b25",
		"lseek set 0 read ret=0 OK at=15112492 out=7da144b97d054b25",
		"read sparse ret=45 OK at=15113742 out=5e59038bd736fce2",
		"truncate 100 ret=0 OK at=15114992 out=7da144b97d054b25",
		"stat after truncate ret=100 OK at=15116242 out=6751e711f239b039",
		"truncate missing ret=0 ENOENT at=15117492 out=7da144b97d054b25",
		"truncate dir ret=0 EISDIR at=15118742 out=7da144b97d054b25",
		"mkdir /d/sub ret=0 OK at=15119992 out=7da144b97d054b25",
		"rename ret=0 OK at=15121290 out=7da144b97d054b25",
		"rename missing ret=0 ENOENT at=15122540 out=7da144b97d054b25",
		"readdir ret=2 OK at=15123790 out=29d5df93c31a96f0",
		"readdir short ret=0 EOVERFLOW at=15125040 out=7da144b97d054b25",
		"readdir file ret=0 ENOTDIR at=15126290 out=7da144b97d054b25",
		"readdir missing ret=0 ENOENT at=15127540 out=7da144b97d054b25",
		"fstat renamed ret=100 OK at=15128790 out=6751e711f239b039",
		"rmdir non-empty ret=0 ENOTEMPTY at=15130040 out=7da144b97d054b25",
		"rmdir file ret=0 ENOTDIR at=15131290 out=7da144b97d054b25",
		"rmdir sub ret=0 OK at=15132540 out=7da144b97d054b25",
		"unlink ret=0 OK at=15133790 out=7da144b97d054b25",
		"unlink again ret=0 ENOENT at=15135040 out=7da144b97d054b25",
		"unlink dir ret=0 EISDIR at=15136290 out=7da144b97d054b25",
		"read unlinked ret=8 OK at=15137540 out=7da144b97d054b25",
		"chdir missing ret=0 ENOENT at=15138790 out=7da144b97d054b25",
		"chdir / ret=0 OK at=15140040 out=7da144b97d054b25",
		"rmdir /d ret=0 OK at=15141290 out=7da144b97d054b25",
		"open unmapped path ret=0 EFAULT at=15142540 out=7da144b97d054b25",
		"stat unmapped path ret=0 EFAULT at=15143790 out=7da144b97d054b25",
		"rename unmapped new ret=0 EFAULT at=15145040 out=7da144b97d054b25",
		"mkdir unmapped path ret=0 EFAULT at=15146290 out=7da144b97d054b25",
		"open /gpfs/o ret=5 OK at=15147540 out=7da144b97d054b25",
		"write unmapped buffer ret=0 EFAULT at=15148790 out=7da144b97d054b25",
		"write 16 ret=16 OK at=15150040 out=7da144b97d054b25",
		"lseek set 0 gpfs ret=0 OK at=15151290 out=7da144b97d054b25",
		"read unmapped buffer ret=0 EFAULT at=15152540 out=7da144b97d054b25",
		"lseek cur gpfs ret=8 OK at=15153790 out=7da144b97d054b25",
		"fstat unmapped buffer ret=0 EFAULT at=15155040 out=7da144b97d054b25",
		"getcwd unmapped buffer ret=0 EFAULT at=15156290 out=7da144b97d054b25",
		"readdir unmapped buffer ret=0 EFAULT at=15157540 out=7da144b97d054b25",
		"close 0 ret=0 OK at=15158790 out=7da144b97d054b25",
		"close 1 ret=0 OK at=15160040 out=7da144b97d054b25",
		"close 2 ret=0 OK at=15161290 out=7da144b97d054b25",
		"close 3 ret=0 OK at=15162540 out=7da144b97d054b25",
		"close 4 ret=0 OK at=15163790 out=7da144b97d054b25",
		"close 5 ret=0 OK at=15165040 out=7da144b97d054b25",
		"close bad fd ret=0 EBADF at=15166290 out=7da144b97d054b25",
		"exit=[0] end=15166290 trace=e0ff5d2e7a26dc99 counters=a32ca7315367b6dd",
	},
	"FWK+ION": {
		"mkdir /d ret=0 OK at=15014376 out=7da144b97d054b25",
		"mkdir /d again ret=0 EEXIST at=15020362 out=7da144b97d054b25",
		"chdir /d ret=0 OK at=15025612 out=7da144b97d054b25",
		"getcwd ret=2 OK at=15030862 out=b2fbfeddfcc3aefe",
		"getcwd short ret=0 ENAMETOOLONG at=15036112 out=7da144b97d054b25",
		"open missing ret=18446744073709551615 ENOENT at=15041362 out=7da144b97d054b25",
		"open creat ret=0 OK at=15046612 out=7da144b97d054b25",
		"open excl ret=18446744073709551615 EEXIST at=15051862 out=7da144b97d054b25",
		"write 600 ret=600 OK at=15059811 out=7da144b97d054b25",
		"write 5000 ret=5000 OK at=15077578 out=7da144b97d054b25",
		"write bad fd ret=0 EBADF at=15082828 out=7da144b97d054b25",
		"write 1<<62 ret=0 EFAULT at=15088078 out=7da144b97d054b25",
		"lseek set 0 ret=0 OK at=15093328 out=7da144b97d054b25",
		"read 100 ret=100 OK at=15099823 out=bbfd8e20675e4c69",
		"read 512 ret=512 OK at=15106770 out=ea2a32021f6a9cd5",
		"lseek end 0 ret=5600 OK at=15112020 out=7da144b97d054b25",
		"read at EOF ret=0 OK at=15117270 out=7da144b97d054b25",
		"lseek end -10 ret=5590 OK at=15122520 out=7da144b97d054b25",
		"read 1<<62 ret=10 OK at=15128925 out=d5c5a9a3b2c05ff4",
		"lseek bad whence ret=0 EINVAL at=15134175 out=7da144b97d054b25",
		"lseek negative ret=0 EINVAL at=15139425 out=7da144b97d054b25",
		"lseek cur 3 ret=5603 OK at=15144675 out=7da144b97d054b25",
		"read bad fd ret=0 EBADF at=15149925 out=7da144b97d054b25",
		"open rdonly ret=1 OK at=15155175 out=7da144b97d054b25",
		"write rdonly ret=0 EBADF at=15160425 out=7da144b97d054b25",
		"read rdonly ret=32 OK at=15166852 out=40511bd3f77af3a5",
		"open append ret=2 OK at=15172102 out=7da144b97d054b25",
		"read wronly ret=0 EBADF at=15177352 out=7da144b97d054b25",
		"write append ret=16 OK at=15183763 out=7da144b97d054b25",
		"lseek cur append ret=5616 OK at=15189013 out=7da144b97d054b25",
		"fstat ret=5616 OK at=15194263 out=71ebfc6356f53c98",
		"fstat no buffer ret=5616 OK at=15199513 out=7da144b97d054b25",
		"fstat bad fd ret=0 EBADF at=15204763 out=7da144b97d054b25",
		"stat ret=5616 OK at=15210013 out=71ebfc6356f53c98",
		"stat no buffer ret=5616 OK at=15215263 out=7da144b97d054b25",
		"stat missing ret=0 ENOENT at=15220513 out=7da144b97d054b25",
		"stat dir ret=0 OK at=15225763 out=7da144b97d054b25",
		"open dir ret=3 OK at=15231013 out=7da144b97d054b25",
		"read dir ret=0 EISDIR at=15236263 out=7da144b97d054b25",
		"write dir ret=0 EBADF at=15241513 out=7da144b97d054b25",
		"lseek end dir ret=0 OK at=15246763 out=7da144b97d054b25",
		"open dir wronly ret=18446744073709551615 EISDIR at=15252013 out=7da144b97d054b25",
		"dup ret=4 OK at=15257263 out=7da144b97d054b25",
		"dup bad fd ret=18446744073709551615 EBADF at=15262513 out=7da144b97d054b25",
		"lseek set 4 ret=4 OK at=15267763 out=7da144b97d054b25",
		"read dup ret=6 OK at=15274164 out=b3323c35d3798824",
		"lseek cur orig ret=10 OK at=15279414 out=7da144b97d054b25",
		"fsync ret=0 OK at=15284664 out=7da144b97d054b25",
		"fsync bad fd ret=0 EBADF at=15289914 out=7da144b97d054b25",
		"close dup ret=0 OK at=15295164 out=7da144b97d054b25",
		"close dup again ret=0 EBADF at=15300414 out=7da144b97d054b25",
		"read after close dup ret=6 OK at=15306815 out=da64346c420da58c",
		"mmap file ret=554700800 OK at=15312945 out=7da144b97d054b25",
		"mapping 7d34d04bf0dfe921",
		"mmap bad fd ret=0 EBADF at=15328812 out=7da144b97d054b25",
		"mmap wronly fd ret=0 EBADF at=15329162 out=7da144b97d054b25",
		"open trunc ret=4 OK at=15334412 out=7da144b97d054b25",
		"fstat after trunc ret=0 OK at=15339662 out=7da144b97d054b25",
		"read after trunc ret=0 OK at=15344912 out=7da144b97d054b25",
		"write past EOF ret=3 OK at=15351310 out=7da144b97d054b25",
		"lseek set 40 ret=40 OK at=15356560 out=7da144b97d054b25",
		"write sparse ret=5 OK at=15362960 out=7da144b97d054b25",
		"lseek set 0 read ret=0 OK at=15368210 out=7da144b97d054b25",
		"read sparse ret=45 OK at=15374650 out=5e59038bd736fce2",
		"truncate 100 ret=0 OK at=15379900 out=7da144b97d054b25",
		"stat after truncate ret=100 OK at=15385150 out=6751e711f239b039",
		"truncate missing ret=0 ENOENT at=15390400 out=7da144b97d054b25",
		"truncate dir ret=0 EISDIR at=15395650 out=7da144b97d054b25",
		"mkdir /d/sub ret=0 OK at=15400900 out=7da144b97d054b25",
		"rename ret=0 OK at=15406198 out=7da144b97d054b25",
		"rename missing ret=0 ENOENT at=15411448 out=7da144b97d054b25",
		"readdir ret=2 OK at=15416698 out=29d5df93c31a96f0",
		"readdir short ret=0 EOVERFLOW at=15421948 out=7da144b97d054b25",
		"readdir file ret=0 ENOTDIR at=15427198 out=7da144b97d054b25",
		"readdir missing ret=0 ENOENT at=15432448 out=7da144b97d054b25",
		"fstat renamed ret=100 OK at=15437698 out=6751e711f239b039",
		"rmdir non-empty ret=0 ENOTEMPTY at=15442948 out=7da144b97d054b25",
		"rmdir file ret=0 ENOTDIR at=15448198 out=7da144b97d054b25",
		"rmdir sub ret=0 OK at=15453448 out=7da144b97d054b25",
		"unlink ret=0 OK at=15458698 out=7da144b97d054b25",
		"unlink again ret=0 ENOENT at=15463948 out=7da144b97d054b25",
		"unlink dir ret=0 EISDIR at=15469198 out=7da144b97d054b25",
		"read unlinked ret=8 OK at=15475601 out=7da144b97d054b25",
		"chdir missing ret=0 ENOENT at=15480851 out=7da144b97d054b25",
		"chdir / ret=0 OK at=15486101 out=7da144b97d054b25",
		"rmdir /d ret=0 OK at=15491351 out=7da144b97d054b25",
		"open unmapped path ret=0 EFAULT at=15496601 out=7da144b97d054b25",
		"stat unmapped path ret=0 EFAULT at=15501851 out=7da144b97d054b25",
		"rename unmapped new ret=0 EFAULT at=15507101 out=7da144b97d054b25",
		"mkdir unmapped path ret=0 EFAULT at=15512351 out=7da144b97d054b25",
		"open /gpfs/o ret=5 OK at=15517601 out=7da144b97d054b25",
		"write unmapped buffer ret=0 EFAULT at=15522851 out=7da144b97d054b25",
		"write 16 ret=16 OK at=15529262 out=7da144b97d054b25",
		"lseek set 0 gpfs ret=0 OK at=15534512 out=7da144b97d054b25",
		"read unmapped buffer ret=0 EFAULT at=15539762 out=7da144b97d054b25",
		"lseek cur gpfs ret=8 OK at=15545012 out=7da144b97d054b25",
		"fstat unmapped buffer ret=0 EFAULT at=15550262 out=7da144b97d054b25",
		"getcwd unmapped buffer ret=0 EFAULT at=15555512 out=7da144b97d054b25",
		"readdir unmapped buffer ret=0 EFAULT at=15560762 out=7da144b97d054b25",
		"close 0 ret=0 OK at=15566012 out=7da144b97d054b25",
		"close 1 ret=0 OK at=15571262 out=7da144b97d054b25",
		"close 2 ret=0 OK at=15576512 out=7da144b97d054b25",
		"close 3 ret=0 OK at=15581762 out=7da144b97d054b25",
		"close 4 ret=0 OK at=15587012 out=7da144b97d054b25",
		"close 5 ret=0 OK at=15592262 out=7da144b97d054b25",
		"close bad fd ret=0 EBADF at=15597512 out=7da144b97d054b25",
		"exit=[0] end=15597512 trace=d119615df993dbba counters=a32ca7315367b6dd",
	},
}

func runFileCalls(t *testing.T, cfg Config) []string {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	var rows []string
	if err := m.Run(fileCallScript(m, &rows), kernel.JobParams{}, 0); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write([]byte(m.MergedCounters().Text()))
	return append(rows, fmt.Sprintf("exit=%v end=%d trace=%016x counters=%016x",
		m.ExitCodes(), uint64(m.Eng.Now()), m.Eng.Trace().Hash(), h.Sum64()))
}

// TestPinnedFileCalls checks every row of the file-call script on each
// machine against its pinned reference.
func TestPinnedFileCalls(t *testing.T) {
	for _, mc := range fileCallMachines {
		t.Run(mc.name, func(t *testing.T) {
			got, want := runFileCalls(t, mc.cfg), fileCallRef[mc.name]
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

// TestZeroLengthWriteKeepsSize checks that a write of no bytes past the
// end of a file leaves its size alone, as POSIX asks, on every machine of
// the file-call script: the unarmed I/O node and the FWK write by inode
// straight through the filesystem, the armed one through its cache. An
// empty file and a 5-byte one are each seeked to 100 and written 0
// bytes, then fstat and a seek to the end must read the old size.
func TestZeroLengthWriteKeepsSize(t *testing.T) {
	for _, mc := range fileCallMachines {
		t.Run(mc.name, func(t *testing.T) {
			m, err := New(mc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Shutdown()
			var got []string
			app := func(ctx kernel.Context, env *Env) {
				base := m.HeapBase(ctx)
				path, data, out := base, base+1024, base+4096
				ctx.Store(data, []byte("hello"))
				for i, size := range []uint64{0, 5} {
					ctx.StoreCString(path, fmt.Sprintf("/gpfs/zero%d", i))
					fd, errno := ctx.Syscall(kernel.SysOpen, uint64(path), kernel.OCreat|kernel.ORdwr, 0644)
					if errno != kernel.OK {
						t.Errorf("open: %v", errno)
						return
					}
					ctx.Syscall(kernel.SysWrite, fd, uint64(data), size)
					ctx.Syscall(kernel.SysLseek, fd, 100, uint64(kernel.SeekSet))
					n, errno := ctx.Syscall(kernel.SysWrite, fd, uint64(data), 0)
					if n != 0 || errno != kernel.OK {
						t.Errorf("write of 0 bytes at 100: %d, %v", n, errno)
					}
					st, errno := ctx.Syscall(kernel.SysFstat, fd, uint64(out))
					end, errno2 := ctx.Syscall(kernel.SysLseek, fd, 0, uint64(kernel.SeekEnd))
					got = append(got, fmt.Sprintf("%d bytes: fstat %d %v, end %d %v", size, st, errno, end, errno2))
					ctx.Syscall(kernel.SysClose, fd)
				}
			}
			if err := m.Run(app, kernel.JobParams{}, 0); err != nil {
				t.Fatal(err)
			}
			want := []string{"0 bytes: fstat 0 OK, end 0 OK", "5 bytes: fstat 5 OK, end 5 OK"}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("after a write of 0 bytes at 100:\n got  %q\n want %q", got, want)
			}
		})
	}
}
