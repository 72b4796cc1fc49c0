package kernel

import (
	"testing"

	"bgcnk/internal/hw"
)

func TestErrnoStrings(t *testing.T) {
	cases := map[Errno]string{
		OK: "OK", ENOENT: "ENOENT", EINVAL: "EINVAL", ENOSYS: "ENOSYS",
		Errno(999): "Errno(999)",
	}
	for e, want := range cases {
		if e.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(e), e.String(), want)
		}
	}
	if ENOENT.Error() != "ENOENT" {
		t.Fatal("Error() form")
	}
}

func TestSysNames(t *testing.T) {
	if SysRead.String() != "read" || SysPersistOpen.String() != "persist_open" {
		t.Fatal("syscall names")
	}
	if Sys(200).String() != "sys(200)" {
		t.Fatal("unknown syscall name")
	}
	if int(NumSys) != len(sysNames) {
		t.Fatalf("sysNames has %d entries for %d syscalls", len(sysNames), NumSys)
	}
}

func TestIsFileIO(t *testing.T) {
	for _, s := range []Sys{SysRead, SysWrite, SysOpen, SysStat, SysReaddir, SysDup} {
		if !s.IsFileIO() {
			t.Errorf("%v should be file I/O (function-shipped)", s)
		}
	}
	for _, s := range []Sys{SysBrk, SysMmap, SysFutex, SysClone, SysExit, SysPersistOpen} {
		if s.IsFileIO() {
			t.Errorf("%v must be handled locally by CNK", s)
		}
	}
}

func TestNPTLCloneFlags(t *testing.T) {
	// The static set glibc uses must include thread-ness and TID plumbing.
	for _, f := range []uint64{CloneVM, CloneThread, CloneSettls, CloneParentSettid, CloneChildCleartid} {
		if NPTLCloneFlags&f == 0 {
			t.Errorf("NPTL flags missing %#x", f)
		}
	}
}

func TestSignalStrings(t *testing.T) {
	if SIGSEGV.String() != "SIGSEGV" || SIGBUS.String() != "SIGBUS" {
		t.Fatal("signal names")
	}
	if Signal(99).String() != "SIG(99)" {
		t.Fatal("unknown signal name")
	}
}

func TestJobParamsMode(t *testing.T) {
	cases := map[int]string{1: "SMP", 2: "DUAL", 4: "VN", 3: "custom"}
	for n, want := range cases {
		if got := (JobParams{ProcsPerNode: n}).Mode(); got != want {
			t.Errorf("%d procs = %q, want %q", n, got, want)
		}
	}
}

func TestSignalTable(t *testing.T) {
	var st SignalTable
	if _, ok := st.Lookup(SIGUSR1); ok {
		t.Fatal("empty table lookup")
	}
	called := false
	st.Register(SIGUSR1, func(Context, SigInfo) { called = true })
	h, ok := st.Lookup(SIGUSR1)
	if !ok {
		t.Fatal("registered handler missing")
	}
	h(nil, SigInfo{})
	if !called {
		t.Fatal("handler not invoked")
	}
}

func TestProtPerm(t *testing.T) {
	cases := map[uint64]hw.Perm{
		0:                               0,
		ProtRead:                        hw.PermRead,
		ProtWrite:                       hw.PermWrite,
		ProtExec:                        hw.PermExec,
		ProtRead | ProtWrite:            hw.PermRW,
		ProtRead | ProtExec:             hw.PermRX,
		ProtRead | ProtWrite | ProtExec: hw.PermRWX,
		ProtWrite | 0x100:               hw.PermWrite, // unknown bits are ignored
	}
	for prot, want := range cases {
		if got := ProtPerm(prot); got != want {
			t.Errorf("ProtPerm(%#x) = %v, want %v", prot, got, want)
		}
	}
}

func TestThreadStateString(t *testing.T) {
	if ThreadReady.String() != "ready" || ThreadExited.String() != "exited" {
		t.Fatal("state strings")
	}
}
