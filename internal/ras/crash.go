package ras

import "bgcnk/internal/sim"

// Service-node crash injection. The control system's crash-only story is
// only testable if service-node death is as deterministic as every other
// fault in this package: a CrashPlan seeds a CrashInjector whose draws
// are a pure function of (plan seed, incarnation generation, journal
// LSN), so a crash schedule replays exactly — yet differs between
// incarnations, so a recovered service node is not killed at the same
// LSN forever and the drain always makes progress.

// CrashSite is where in the control system's commit pipeline the
// injector is being consulted. The site constrains which crash classes
// can fire there (a mid-boot crash can only happen at a boot append).
type CrashSite int

const (
	SiteAppend     CrashSite = iota // a generic journal append
	SiteBoot                        // the partition-boot append
	SiteCkptCommit                  // a checkpoint-commit append
	SiteRecovery                    // an append issued by recovery itself
)

// CrashClass partitions service-node crashes by where the death lands
// relative to the journal, which is exactly what recovery has to get
// right: whether the record under append is durable, torn, or absent.
type CrashClass int

const (
	// CrashPreAppend kills the node before the record reaches the
	// journal: the transition never happened.
	CrashPreAppend CrashClass = iota
	// CrashPostAppend kills the node after the record is durable but
	// before the in-memory state applies it: replay must reapply.
	CrashPostAppend
	// CrashMidBoot kills the node between a partition-boot record and
	// the job's completion record: recovery finds an orphaned boot.
	CrashMidBoot
	// CrashMidCkptCommit tears the checkpoint-commit record itself:
	// replay must drop the torn tail and resume from the previous
	// committed checkpoint.
	CrashMidCkptCommit
	// CrashDuringRecovery kills the node while recovery is writing its
	// own reconciliation records: recovery must be idempotent.
	CrashDuringRecovery

	NumCrashClasses
)

var crashClassNames = [NumCrashClasses]string{
	"pre_append", "post_append", "mid_boot", "mid_ckpt_commit", "during_recovery",
}

func (c CrashClass) String() string {
	if c >= 0 && c < NumCrashClasses {
		return crashClassNames[c]
	}
	return "crash(?)"
}

// CrashPlan configures deterministic service-node crash injection. The
// zero value injects nothing.
type CrashPlan struct {
	// Seed drives every draw; same seed, same crash schedule.
	Seed uint64
	// Rate is the per-consultation probability that the service node
	// dies at an eligible crash point.
	Rate float64
	// MaxCrashes caps total deaths per drain so the crash matrix always
	// terminates; 0 means DefaultMaxCrashes.
	MaxCrashes int
	// Classes restricts which crash classes may fire; nil or empty
	// allows all of them.
	Classes []CrashClass
}

// DefaultMaxCrashes bounds a drain's total service-node deaths when the
// plan does not say otherwise.
const DefaultMaxCrashes = 8

// Enabled reports whether the plan can inject anything at all.
func (p *CrashPlan) Enabled() bool { return p != nil && p.Rate > 0 }

func (p *CrashPlan) maxCrashes() int {
	if p.MaxCrashes > 0 {
		return p.MaxCrashes
	}
	return DefaultMaxCrashes
}

func (p *CrashPlan) allows(c CrashClass) bool {
	if len(p.Classes) == 0 {
		return true
	}
	for _, a := range p.Classes {
		if a == c {
			return true
		}
	}
	return false
}

// CrashInjector decides, at each journal append, whether the service
// node dies there and how. Draws are keyed to (seed, generation, LSN):
// generation is the number of crashes fired so far, so each incarnation
// sees a fresh — but fully reproducible — schedule.
type CrashInjector struct {
	plan  *CrashPlan
	fired int
}

// NewCrashInjector builds an injector for plan (nil-safe: a nil or
// disabled plan never fires).
func NewCrashInjector(plan *CrashPlan) *CrashInjector {
	return &CrashInjector{plan: plan}
}

// Crashes returns how many times the injector has fired.
func (ci *CrashInjector) Crashes() int { return ci.fired }

// At consults the injector at the append of journal record lsn from
// site. It returns the crash class and true if the service node dies
// here, advancing the generation so the next incarnation draws a
// different schedule.
func (ci *CrashInjector) At(lsn uint64, site CrashSite) (CrashClass, bool) {
	p := ci.plan
	if !p.Enabled() || ci.fired >= p.maxCrashes() {
		return 0, false
	}
	rng := sim.NewRNG(p.Seed ^ 0xc7a5_4c9d_0b5e_d00d).Fork(uint64(ci.fired)).Fork(lsn)
	if rng.Float64() >= p.Rate {
		return 0, false
	}
	var class CrashClass
	switch site {
	case SiteBoot:
		class = CrashMidBoot
	case SiteCkptCommit:
		class = CrashMidCkptCommit
	case SiteRecovery:
		class = CrashDuringRecovery
	default:
		if rng.Float64() < 0.5 {
			class = CrashPreAppend
		} else {
			class = CrashPostAppend
		}
	}
	if !p.allows(class) {
		return 0, false
	}
	ci.fired++
	return class, true
}
