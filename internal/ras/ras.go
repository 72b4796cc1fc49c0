// Package ras models the machine's Reliability, Availability and
// Serviceability layer: a machine-wide RAS event log plus a deterministic,
// seed-driven fault injector.
//
// The paper's operational claims — LINPACK runs differing by <0.01%,
// week-long stability, a reproducible-reset protocol that brings a chip
// back bit-identically — are reliability claims, yet a simulator that only
// ever runs on a perfect machine cannot exercise them. The injector here
// draws every fault from sim.RNG streams forked per (node, site) from one
// plan seed, so a given seed yields a bit-identical fault schedule: runs
// remain a pure function of their seeds even while DDR flips bits, links
// corrupt packets, and CIOD crashes. That determinism is what makes fault
// tolerance debuggable (Aviram et al.) and is the property the bringup
// methodology of paper Section III relies on for fault localization.
package ras

import (
	"fmt"
	"hash/fnv"
	"strings"

	"bgcnk/internal/sim"
)

// Class identifies one kind of RAS event. The first group are injected
// faults; the reaction classes record what a kernel or client did about
// them.
type Class uint8

// RAS event classes.
const (
	// Injected faults.
	CorrectableECC   Class = iota // DDR single-bit error, corrected by ECC
	UncorrectableECC              // DDR multi-bit error, data lost
	TLBParity                     // parity error on a matched TLB entry
	LinkCRC                       // network packet failed CRC, retransmitted
	CIODDrop                      // CIOD reply lost on the tree
	CIODCrash                     // CIOD daemon died and restarted
	// Reactions.
	CIODGiveUp      // client exhausted retries and surfaced EIO
	JobKill         // kernel terminated the job cleanly
	Recovery        // kernel absorbed/recovered the fault in place
	ServiceCrash    // service node died at an injected crash point
	ServiceRecovery // service node replayed its journal and reconciled
	IONCrash        // I/O node died: every attached CN's in-flight calls EIO-flushed
	// Hard network faults (injected at drawn cycles, machine-wide).
	LinkFail // a directed torus link died; traffic must detour or be lost
	NodeFail // a whole node's torus interface died with all its links

	NumClasses
)

var classNames = [NumClasses]string{
	"correctable_ecc", "uncorrectable_ecc", "tlb_parity", "link_crc",
	"ciod_drop", "ciod_crash", "ciod_give_up", "job_kill", "recovery",
	"service_crash", "service_recovery", "ion_crash", "link_fail", "node_fail",
}

func (c Class) String() string {
	if c < NumClasses {
		return classNames[c]
	}
	return "class(?)"
}

// Event is one RAS log entry.
type Event struct {
	At     sim.Cycles
	Node   int // compute node ID; I/O nodes use -1-treeIndex
	Comp   string
	Class  Class
	Detail string
}

// Log is the machine-wide RAS event log: an append-only event list,
// per-class counts, and a running FNV hash in the style of sim.Trace, so
// two runs produced the same fault schedule and reactions iff their RAS
// hashes match. A nil *Log is the log of a machine with no faults armed:
// it records nothing, every count and hash reads zero, and FoldSince
// returns the hash it is given.
type Log struct {
	events []Event
	counts [NumClasses]uint64
	hash   uint64
	trace  *sim.Trace
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{hash: 14695981039346656037} }

// AttachTrace mirrors every appended event into tr, so the run's
// cycle-reproducibility hash covers the fault schedule and the kernel's
// reactions to it.
func (l *Log) AttachTrace(tr *sim.Trace) {
	if l != nil {
		l.trace = tr
	}
}

// Append records an event.
func (l *Log) Append(e Event) {
	if l == nil {
		return
	}
	l.events = append(l.events, e)
	l.counts[e.Class]++
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%s|%d|%s", uint64(e.At), e.Node, e.Comp, e.Class, e.Detail)
	l.hash = l.hash*1099511628211 ^ h.Sum64()
	if l.trace != nil {
		l.trace.Record(e.At, "ras", fmt.Sprintf("node %d %s %s: %s", e.Node, e.Comp, e.Class, e.Detail))
	}
}

// Count returns the number of events of one class.
func (l *Log) Count(c Class) uint64 {
	if l == nil {
		return 0
	}
	return l.counts[c]
}

// Mark is a position in the log, taken before a region of a run so the
// region's events can be hashed independently of what preceded them.
type Mark int

// Mark returns the current log position.
func (l *Log) Mark() Mark { return Mark(len(l.Events())) }

// CountSince returns the number of events appended after m.
func (l *Log) CountSince(m Mark) uint64 { return uint64(len(l.Events()) - int(m)) }

// HashSince digests the events appended after m with their times rebased
// to base (normally the job's boot instant). The running Hash covers
// absolute cycle times, which is right for whole-run identity but useless
// for comparing a job on a rebooted machine against the same job on a
// fresh one — the reboot shifts every timestamp. Two time-shifted but
// otherwise identical event sequences HashSince-equal.
func (l *Log) HashSince(m Mark, base sim.Cycles) uint64 {
	if l == nil {
		return 0
	}
	hash := uint64(14695981039346656037)
	for _, e := range l.events[m:] {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%d|%s|%d|%s", uint64(e.At-base), e.Node, e.Comp, e.Class, e.Detail)
		hash = hash*1099511628211 ^ h.Sum64()
	}
	return hash
}

// FoldSince folds HashSince(m, base) into h, the way a restarted job
// accumulates one hash over its attempts. A nil log folds nothing: h
// comes back unchanged, so a job on a machine without faults keeps the
// hash it started with.
func (l *Log) FoldSince(h uint64, m Mark, base sim.Cycles) uint64 {
	if l == nil {
		return h
	}
	return h*1099511628211 ^ l.HashSince(m, base)
}

// Total returns the number of events logged.
func (l *Log) Total() uint64 { return uint64(len(l.Events())) }

// Hash returns the running hash over all events.
func (l *Log) Hash() uint64 {
	if l == nil {
		return 0
	}
	return l.hash
}

// Events returns the recorded events, oldest first.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	return l.events
}

// Table renders the per-class counts (non-zero classes only), aligned for
// reports; empty logs render a single "no RAS events" line.
func (l *Log) Table() string {
	var b strings.Builder
	any := false
	for c := Class(0); c < NumClasses; c++ {
		if l.Count(c) == 0 {
			continue
		}
		any = true
		fmt.Fprintf(&b, "%-18s %8d\n", c.String(), l.Count(c))
	}
	if !any {
		return "no RAS events\n"
	}
	return b.String()
}
