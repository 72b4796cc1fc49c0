package ras

import "bgcnk/internal/sim"

// maxLinkRetrans bounds consecutive CRC corruptions of one transfer so a
// pathological plan cannot stall a link forever.
const maxLinkRetrans = 8

// defaultRestartDelay is how long a crashed CIOD takes to respawn when the
// plan does not say.
const defaultRestartDelay = sim.Cycles(100_000)

// Plan configures the fault injector. Every field is a probability per
// opportunity (one DDR fill, one TLB lookup, one link transfer, one CIOD
// reply) except the crash cadence. The zero value injects nothing.
type Plan struct {
	// Seed determines the entire fault schedule. Two machines built from
	// equal plans draw bit-identical faults.
	Seed uint64

	DDRCorrectable   float64 // single-bit ECC per DDR (L3-miss) fill
	DDRUncorrectable float64 // multi-bit ECC per DDR fill
	TLBParity        float64 // parity per TLB lookup that matched an entry
	LinkCRC          float64 // CRC corruption per link transfer attempt
	CIODDrop         float64 // reply loss per CIOD reply

	// CIODCrashEvery crashes the daemon after every N served calls
	// (0 = never); it restarts CIODRestartDelay cycles later with all
	// ioproxy state lost.
	CIODCrashEvery   uint64
	CIODRestartDelay sim.Cycles

	// IONCrashEvery kills the whole I/O node after every N served calls
	// (0 = never): the daemon dies exactly as under CIODCrashEvery — every
	// attached CN's in-flight calls are EIO-flushed by the same machinery —
	// and additionally the ION's write-back buffer cache loses its dirty
	// blocks. A deterministic counter rather than a probability: it must
	// not consume RNG draws, so arming it cannot perturb the DDR/TLB/link
	// fault schedules shared with ION-off runs.
	IONCrashEvery uint64

	// Hard network faults. LinkFails directed torus links and NodeFails
	// whole torus interfaces die at cycles drawn uniformly from
	// (0, NetFailWindow] (defaulted by NetWindow when zero). The draw
	// comes from a dedicated machine-wide stream derived from NetSeed, so
	// arming hard network faults consumes no draws from the per-node
	// DDR/TLB/link/CIOD streams: the probabilistic fault schedule stays
	// byte-identical whether or not the network is breaking.
	LinkFails     int
	NodeFails     int
	NetFailWindow sim.Cycles

	// NetResilienceOff disables the torus's fault-region rerouting and
	// end-to-end retransmit layer, leaving only the hard faults: packets
	// crossing a dead link are silently lost and receivers surface
	// timeouts. The "degrade" experiment's baseline arm.
	NetResilienceOff bool

	// FWKPanicEvery makes the FWK treat every Nth uncorrectable DDR error
	// it observes as fatal (0 = never, the default: the FWK's scrub
	// absorbs them all). The real full-weight kernel cannot always paper
	// over a multi-bit error either — when the corrupted line belongs to
	// kernel or daemon state the node panics — and the resilience
	// experiments need that fatal path to compare restart behaviour
	// across kernels. A deterministic counter rather than a probability:
	// it must not consume RNG draws, so arming it cannot perturb the DDR
	// fault schedule shared with CNK runs.
	FWKPanicEvery uint64
}

// Enabled reports whether the plan injects anything.
func (p *Plan) Enabled() bool {
	return p != nil && (p.DDRCorrectable > 0 || p.DDRUncorrectable > 0 ||
		p.TLBParity > 0 || p.LinkCRC > 0 || p.CIODDrop > 0 || p.CIODCrashEvery > 0 ||
		p.IONCrashEvery > 0 || p.NetEnabled())
}

// NetEnabled reports whether the plan kills torus links or nodes.
func (p *Plan) NetEnabled() bool {
	return p != nil && (p.LinkFails > 0 || p.NodeFails > 0)
}

// defaultNetWindow bounds drawn network-fault cycles when the plan does
// not say: ~2.4ms, early enough to land inside even quick jobs.
const defaultNetWindow = sim.Cycles(2_000_000)

// NetWindow returns the network-fault draw window, defaulted.
func (p *Plan) NetWindow() sim.Cycles {
	if p.NetFailWindow > 0 {
		return p.NetFailWindow
	}
	return defaultNetWindow
}

// NetSeed derives the dedicated machine-wide stream seed for the hard
// network-fault draw. Keeping it disjoint from the per-(node, site)
// streams means arming LinkFails/NodeFails cannot perturb any
// probabilistic fault schedule.
func (p *Plan) NetSeed() uint64 { return p.Seed ^ 0x6e65745fdead11bc }

// RestartDelay returns the CIOD respawn time, defaulted.
func (p *Plan) RestartDelay() sim.Cycles {
	if p.CIODRestartDelay > 0 {
		return p.CIODRestartDelay
	}
	return defaultRestartDelay
}

// DefaultPlan returns a moderate all-classes plan for the CLI and the
// stability-under-fault experiment: enough activity to populate every
// counter over a quick LINPACK run without drowning the machine.
func DefaultPlan(seed uint64) *Plan {
	return &Plan{
		Seed:             seed,
		DDRCorrectable:   2e-4,
		DDRUncorrectable: 2e-6,
		TLBParity:        1e-6,
		LinkCRC:          1e-2,
		CIODDrop:         0.1,
		CIODCrashEvery:   300,
		CIODRestartDelay: defaultRestartDelay,
	}
}

// Injector owns the machine's fault streams. All draws come from sim.RNG
// children derived purely from (plan seed, node, site), so stream creation
// order cannot perturb the schedule and Reset can rewind it exactly — a
// reproducible restart replays the same faults (fault localization, paper
// Section III). A nil *Injector is the perfect machine's: its nodes'
// fault sources are nil.
type Injector struct {
	eng   *sim.Engine
	log   *Log
	plan  Plan
	nodes map[int]*NodeFaults
}

// NewInjector builds the injector for one machine.
func NewInjector(eng *sim.Engine, log *Log, plan Plan) *Injector {
	return &Injector{eng: eng, log: log, plan: plan, nodes: make(map[int]*NodeFaults)}
}

// Per-node fault sites, each with a private RNG stream.
const (
	siteDDR = iota
	siteTLB
	siteLink
	siteCIOD
	numSites
)

// stream derives the (node, site) generator independent of creation order.
func (in *Injector) stream(node int, site uint64) *sim.RNG {
	return sim.NewRNG(in.plan.Seed ^ 0x5a17c0de5eed1234).
		Fork(uint64(int64(node))*numSites + site)
}

// Node returns node n's fault source, creating it on first use. I/O nodes
// conventionally use negative IDs (-1-treeIndex) so their streams never
// collide with compute nodes'.
func (in *Injector) Node(n int) *NodeFaults {
	if in == nil {
		return nil
	}
	if f, ok := in.nodes[n]; ok {
		return f
	}
	f := &NodeFaults{in: in, node: n}
	f.rewind()
	in.nodes[n] = f
	return f
}

// Reset rewinds every node's streams and crash counters to their initial
// state, replaying the schedule from the top. The reproducible-reset
// recovery path calls this so a restarted run faces the identical fault
// schedule the interrupted run did.
func (in *Injector) Reset() {
	if in == nil {
		return
	}
	for _, f := range in.nodes {
		f.rewind()
	}
}

// NodeFaults is one node's view of the injector: per-site RNG streams plus
// the CIOD crash countdown (I/O-node side). A nil *NodeFaults is a
// perfect node: it draws no fault, reports nothing and counts nothing.
type NodeFaults struct {
	in   *Injector
	node int

	ddr, tlb, link, ciod *sim.RNG
	served               uint64
	ionServed            uint64
	uncorrSeen           uint64
}

func (f *NodeFaults) rewind() {
	f.ddr = f.in.stream(f.node, siteDDR)
	f.tlb = f.in.stream(f.node, siteTLB)
	f.link = f.in.stream(f.node, siteLink)
	f.ciod = f.in.stream(f.node, siteCIOD)
	f.served = 0
	f.ionServed = 0
	f.uncorrSeen = 0
}

// Report records an event against this node: a reaction observed by a
// kernel or client (JobKill, Recovery, CIODGiveUp) or a hard network
// fault.
func (f *NodeFaults) Report(class Class, comp, detail string) {
	if f == nil {
		return
	}
	f.in.log.Append(Event{
		At: f.in.eng.Now(), Node: f.node, Comp: comp, Class: class, Detail: detail,
	})
}

// DDRAccess draws one DDR-fill fault. At most one of the results is true;
// the event is logged here so every consumer charges consistently. The
// nil check inlines into the cache model's fill path.
func (f *NodeFaults) DDRAccess() (uncorrectable, correctable bool) {
	if f == nil {
		return false, false
	}
	return f.drawDDR()
}

func (f *NodeFaults) drawDDR() (uncorrectable, correctable bool) {
	p := &f.in.plan
	if p.DDRUncorrectable <= 0 && p.DDRCorrectable <= 0 {
		return false, false
	}
	v := f.ddr.Float64()
	switch {
	case v < p.DDRUncorrectable:
		f.Report(UncorrectableECC, "ddr", "multi-bit ECC error on L3-miss fill")
		return true, false
	case v < p.DDRUncorrectable+p.DDRCorrectable:
		f.Report(CorrectableECC, "ddr", "single-bit error corrected by ECC")
		return false, true
	}
	return false, false
}

// TLBParity draws one lookup's parity fault. The check inlines into
// every TLB hit.
func (f *NodeFaults) TLBParity() bool {
	if f == nil || f.in.plan.TLBParity <= 0 {
		return false
	}
	return f.drawTLB()
}

func (f *NodeFaults) drawTLB() bool {
	if f.tlb.Float64() < f.in.plan.TLBParity {
		f.Report(TLBParity, "tlb", "parity error on matched entry, invalidated")
		return true
	}
	return false
}

// LinkRetransmits draws how many consecutive CRC-corrupted attempts one
// link transfer suffers before going through clean (geometric, bounded).
// Each corrupted attempt is logged; the caller charges the retransmit and
// backoff cycles. The nil check inlines into every torus transfer and
// tree send.
func (f *NodeFaults) LinkRetransmits(comp string) int {
	if f == nil {
		return 0
	}
	return f.drawLink(comp)
}

func (f *NodeFaults) drawLink(comp string) int {
	p := f.in.plan.LinkCRC
	if p <= 0 {
		return 0
	}
	n := 0
	for n < maxLinkRetrans && f.link.Float64() < p {
		n++
		f.Report(LinkCRC, comp, "packet CRC mismatch, sender retransmitting")
	}
	return n
}

// ReplyDrop draws whether one CIOD reply is lost on the tree.
func (f *NodeFaults) ReplyDrop() bool {
	if f == nil || f.in.plan.CIODDrop <= 0 {
		return false
	}
	if f.ciod.Float64() < f.in.plan.CIODDrop {
		f.Report(CIODDrop, "ciod", "reply lost on collective tree")
		return true
	}
	return false
}

// CrashDue counts one served CIOD call and reports whether the daemon
// crashes after it.
func (f *NodeFaults) CrashDue() bool {
	if f == nil || f.in.plan.CIODCrashEvery == 0 {
		return false
	}
	f.served++
	if f.served >= f.in.plan.CIODCrashEvery {
		f.served = 0
		f.Report(CIODCrash, "ciod", "daemon crashed, ioproxy state lost")
		return true
	}
	return false
}

// IONCrashDue counts one served call against the IONCrashEvery cadence
// and reports whether the whole I/O node dies after it. Like FWKPanicDue
// it is purely a counter — no RNG draw — so arming ION crashes leaves
// every probabilistic fault stream byte-identical.
func (f *NodeFaults) IONCrashDue() bool {
	if f == nil || f.in.plan.IONCrashEvery == 0 {
		return false
	}
	f.ionServed++
	if f.ionServed >= f.in.plan.IONCrashEvery {
		f.ionServed = 0
		f.Report(IONCrash, "ion", "I/O node died, buffer cache and ioproxy state lost")
		return true
	}
	return false
}

// FWKPanicDue counts one uncorrectable DDR error observed by an FWK and
// reports whether this one is fatal under the plan's FWKPanicEvery
// cadence. Purely a counter — no RNG draw — so the DDR schedule itself is
// byte-identical whether or not the fatal path is armed.
func (f *NodeFaults) FWKPanicDue() bool {
	if f == nil || f.in.plan.FWKPanicEvery == 0 {
		return false
	}
	f.uncorrSeen++
	if f.uncorrSeen >= f.in.plan.FWKPanicEvery {
		f.uncorrSeen = 0
		return true
	}
	return false
}

// RestartDelay returns the daemon respawn time from the plan; 0 on a
// perfect node, whose daemon never crashes.
func (f *NodeFaults) RestartDelay() sim.Cycles {
	if f == nil {
		return 0
	}
	return f.in.plan.RestartDelay()
}
