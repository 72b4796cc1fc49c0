// Package kernel holds the kernel-neutral contract between user-level code
// (the nptl, libc, and messaging layers, and the applications) and a
// compute-node kernel (CNK or the Linux-like FWK): syscall numbers, errno
// values, clone flags, futex operations, signals, and the Context interface
// a user thread executes against. It also holds every mechanism both
// kernels share, each once: the per-core owner/ready handoff (CPU), the
// process bookkeeping (Process, JobSpec, Job), the thread runtime
// (Runtime: thread start and exit, futexes, signal delivery) and the
// system-call front end (Serve), so each kernel supplies only its policy.
//
// Keeping this boundary stable mirrors the paper's observation (Section IV)
// that "the interface between glibc and the kernel tends to be more stable,
// while internal kernel interfaces tend to be more fluid": everything above
// this package runs unmodified on both kernels.
package kernel

// Errno is a POSIX-style error number. Zero means success.
type Errno int

// Errno values (the subset the simulated syscall surface can produce).
const (
	OK           Errno = 0
	EPERM        Errno = 1
	ENOENT       Errno = 2
	ESRCH        Errno = 3
	EINTR        Errno = 4
	EIO          Errno = 5
	EBADF        Errno = 9
	EAGAIN       Errno = 11
	ENOMEM       Errno = 12
	EACCES       Errno = 13
	EFAULT       Errno = 14
	EBUSY        Errno = 16
	EEXIST       Errno = 17
	ENOTDIR      Errno = 20
	EISDIR       Errno = 21
	EINVAL       Errno = 22
	ENFILE       Errno = 23
	EMFILE       Errno = 24
	ENOSPC       Errno = 28
	ESPIPE       Errno = 29
	EROFS        Errno = 30
	ENAMETOOLONG Errno = 36
	ENOSYS       Errno = 38
	ENOTEMPTY    Errno = 39
	ELOOP        Errno = 40
	EOVERFLOW    Errno = 75
	ETIMEDOUT    Errno = 110
)

var errnoNames = map[Errno]string{
	OK: "OK", EPERM: "EPERM", ENOENT: "ENOENT", ESRCH: "ESRCH", EINTR: "EINTR",
	EIO: "EIO", EBADF: "EBADF", EAGAIN: "EAGAIN", ENOMEM: "ENOMEM",
	EACCES: "EACCES", EFAULT: "EFAULT", EBUSY: "EBUSY", EEXIST: "EEXIST",
	ENOTDIR: "ENOTDIR", EISDIR: "EISDIR", EINVAL: "EINVAL", ENFILE: "ENFILE",
	EMFILE: "EMFILE", ENOSPC: "ENOSPC", ESPIPE: "ESPIPE", EROFS: "EROFS",
	ENAMETOOLONG: "ENAMETOOLONG", ENOSYS: "ENOSYS", ENOTEMPTY: "ENOTEMPTY",
	ELOOP: "ELOOP", EOVERFLOW: "EOVERFLOW", ETIMEDOUT: "ETIMEDOUT",
}

func (e Errno) String() string {
	if s, ok := errnoNames[e]; ok {
		return s
	}
	return "Errno(" + itoa(int(e)) + ")"
}

// Error makes Errno usable as an error. OK must not be treated as an
// error value; callers check `errno != OK`.
func (e Errno) Error() string { return e.String() }

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
