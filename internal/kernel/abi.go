package kernel

import "bgcnk/internal/hw"

// Sys is a system call number.
type Sys int

// System calls. The set mirrors what the paper reports CNK needed: the
// file-I/O calls it function-ships (Section IV-A), the small set NPTL and
// ld.so require (clone, futex, set_tid_address, sigaction, mmap with
// MAP_COPY, mprotect, brk, uname — Section IV-B), and the CNK extensions
// (persistent memory, Section IV-D). The FWK implements the same numbers
// plus fork/exec, which CNK deliberately lacks (Section VII-B).
const (
	SysRead Sys = iota
	SysWrite
	SysOpen
	SysClose
	SysLseek
	SysStat
	SysFstat
	SysUnlink
	SysRename
	SysMkdir
	SysRmdir
	SysDup
	SysGetcwd
	SysChdir
	SysTruncate
	SysReaddir

	SysBrk
	SysMmap
	SysMunmap
	SysMprotect
	SysShmGet // query the preconfigured shared-memory region

	SysClone
	SysFutex
	SysSetTidAddress
	SysSigaction
	SysSigreturn
	SysYield
	SysExit
	SysGetpid
	SysGettid
	SysUname
	SysGettimeofday

	SysFork // FWK only: CNK returns ENOSYS (paper: "MPI cannot spawn dynamic tasks")
	SysExec // FWK only

	SysPersistOpen // CNK extension: named persistent memory (Section IV-D)

	SysFsync // flush a file's dirty buffer-cache blocks to stable storage

	NumSys
)

var sysNames = [...]string{
	"read", "write", "open", "close", "lseek", "stat", "fstat", "unlink",
	"rename", "mkdir", "rmdir", "dup", "getcwd", "chdir", "truncate",
	"readdir", "brk", "mmap", "munmap", "mprotect", "shmget", "clone",
	"futex", "set_tid_address", "sigaction", "sigreturn", "yield", "exit",
	"getpid", "gettid", "uname", "gettimeofday", "fork", "exec",
	"persist_open", "fsync",
}

func (s Sys) String() string {
	if int(s) >= 0 && int(s) < len(sysNames) {
		return sysNames[s]
	}
	return "sys(" + itoa(int(s)) + ")"
}

// IsFileIO reports whether the call operates on the filesystem and is
// therefore function-shipped by CNK to its I/O node (paper Fig 2).
func (s Sys) IsFileIO() bool {
	switch s {
	case SysRead, SysWrite, SysOpen, SysClose, SysLseek, SysStat, SysFstat,
		SysUnlink, SysRename, SysMkdir, SysRmdir, SysDup, SysGetcwd,
		SysChdir, SysTruncate, SysReaddir, SysFsync:
		return true
	}
	return false
}

// Clone flags. glibc's NPTL uses exactly this static combination for
// pthread_create; CNK validates the flags against it and rejects anything
// else (Section IV-B1).
const (
	CloneVM            uint64 = 0x00000100
	CloneFS            uint64 = 0x00000200
	CloneFiles         uint64 = 0x00000400
	CloneSighand       uint64 = 0x00000800
	CloneThread        uint64 = 0x00010000
	CloneSysvsem       uint64 = 0x00040000
	CloneSettls        uint64 = 0x00080000
	CloneParentSettid  uint64 = 0x00100000
	CloneChildCleartid uint64 = 0x00200000
)

// NPTLCloneFlags is the static flag set glibc passes to clone for
// pthread_create.
const NPTLCloneFlags = CloneVM | CloneFS | CloneFiles | CloneSighand |
	CloneThread | CloneSysvsem | CloneSettls | CloneParentSettid |
	CloneChildCleartid

// Futex operations.
const (
	FutexWait uint64 = 0
	FutexWake uint64 = 1
)

// Mmap flags (subset).
const (
	MapPrivate   uint64 = 0x02
	MapFixed     uint64 = 0x10
	MapAnonymous uint64 = 0x20
	MapCopy      uint64 = 0x8000 // demanded by ld.so (Section IV-B2)
	MapShared    uint64 = 0x01
)

// Mmap prot bits (match hw.Perm bit order for convenience).
const (
	ProtRead  uint64 = 1
	ProtWrite uint64 = 2
	ProtExec  uint64 = 4
)

// ProtPerm maps mmap/mprotect prot bits to page permissions; other bits
// are ignored.
func ProtPerm(prot uint64) hw.Perm { return hw.Perm(prot) & hw.PermRWX }

// Lseek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Open flags (subset).
const (
	ORdonly uint64 = 0x0
	OWronly uint64 = 0x1
	ORdwr   uint64 = 0x2
	OCreat  uint64 = 0x40
	OExcl   uint64 = 0x80
	OTrunc  uint64 = 0x200
	OAppend uint64 = 0x400
)

// Signal numbers (subset).
type Signal int

// Signals.
const (
	SIGHUP  Signal = 1
	SIGINT  Signal = 2
	SIGKILL Signal = 9
	SIGSEGV Signal = 11
	SIGBUS  Signal = 7 // L1 parity recovery is delivered as SIGBUS-with-info
	SIGUSR1 Signal = 10
	SIGUSR2 Signal = 12
	SIGTERM Signal = 15
)

func (s Signal) String() string {
	switch s {
	case SIGHUP:
		return "SIGHUP"
	case SIGINT:
		return "SIGINT"
	case SIGKILL:
		return "SIGKILL"
	case SIGSEGV:
		return "SIGSEGV"
	case SIGBUS:
		return "SIGBUS"
	case SIGUSR1:
		return "SIGUSR1"
	case SIGUSR2:
		return "SIGUSR2"
	case SIGTERM:
		return "SIGTERM"
	}
	return "SIG(" + itoa(int(s)) + ")"
}

// UnameVersion is the kernel version CNK reports so glibc concludes the
// kernel supports NPTL (paper Section IV-B1: "we set CNK's version field
// in uname to 2.6.19.2").
const UnameVersion = "2.6.19.2"
