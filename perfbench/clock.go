package main

import (
	"syscall"
	"time"
)

// The timed end-to-end metrics and the per-op spans read the process's
// CPU time: user plus system time of all its threads, the GC workers and
// the Go scheduler included. On a shared virtual machine, wall time also
// counts time the hypervisor steals and time the process waits for a
// CPU; both swing with other tenants' load, and the kernel's steal-time
// accounting keeps them out of the process's CPU time. Wall times are
// kept beside it for the report lines.

// stamp is one instant of host time.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return stamp{time.Now(), time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// interval is the host time of one call; zero when no such call was made.
type interval struct{ start, end stamp }

func (i interval) cpu() time.Duration { return i.end.cpu - i.start.cpu }

func (i interval) wall() time.Duration { return i.end.wall.Sub(i.start.wall) }
