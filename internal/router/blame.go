package router

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/timing"
)

// Slack attribution ("miss forensics"): when blame collection is
// enabled, the router tags every cycle a time-constrained packet spends
// not advancing with exactly one cause, at the decision point where the
// cycle is lost. The per-router bank of (victim, cause, blamed) counters
// is merged post-run into the blame matrix (obs.Forensics); stall
// episodes additionally surface as EvStall lifecycle events so the
// merged timeline can reconstruct per-packet slack waterfalls.
//
// The victim model is head-of-line: at most one time-constrained victim
// is charged per output port per cycle — the packet that would transmit
// next (staged packet, then a pending cut-through, then the candidate in
// fetch, then the earliest-deadline waiting leaf). A packet queued
// behind the head is charged once it becomes head-of-line itself, so
// totals stay conserved without quadratic accounting. Best-effort
// credit stalls are charged to a per-port best-effort pseudo-victim in
// exact lockstep with the BEStallCycles hardware counter.
//
// Collection is deterministic and inert: the bank is written only
// during the owning router's tick (single writer under the parallel
// kernel), reads no scheduler state through mutating interfaces
// (Select is never called; leaves are scanned via Leaf), and changes no
// simulation behavior — a run with blame enabled is cycle-identical to
// one without.

// StallCause classifies why a time-constrained packet failed to advance
// for one cycle.
type StallCause uint8

const (
	// CauseNone is the zero value; it never appears in the bank.
	CauseNone StallCause = iota
	// CauseArbLoss: another packet held the output wire (blamed carries
	// the winning connection id).
	CauseArbLoss
	// CauseBEContention: a best-effort flit took the cycle while the
	// victim was only horizon-early (Table 1 lets best-effort traffic
	// preempt early time-constrained packets).
	CauseBEContention
	// CauseMemBusWait: the packet was waiting on the shared memory bus —
	// its output-side fetch had not completed, or (input side) its
	// memory write was queued behind another transfer.
	CauseMemBusWait
	// CauseSchedWait: the packet was eligible but the shared comparator
	// tree had not yet selected it for the port (SchedPeriod /
	// LeafSharing serialization).
	CauseSchedWait
	// CauseHorizonHold: the packet was early and beyond the port's
	// horizon — ineligible by design.
	CauseHorizonHold
	// CausePacerHold: the source-side pacer held an eligible message at
	// the injection queue (blamed carries the released competitor, if
	// any).
	CausePacerHold
	// CauseCreditStarved: a best-effort flit was ready but the
	// downstream flit buffer owed no credit. Charged to the port's
	// best-effort pseudo-victim, in lockstep with BEStallCycles.
	CauseCreditStarved
	// CauseFaultRetransmit: a fault-recovery flit (retransmission or
	// abort) took the cycle while an early victim waited.
	CauseFaultRetransmit
	// CauseLinkBusy: the wire itself was the bottleneck — a cut-through
	// bubble (arrival stream behind the rewritten header), or a packet
	// queued behind the one streaming across the injection port.
	CauseLinkBusy
	// CauseUnattributed marks a stalled cycle the classifier could not
	// explain. The CI forensics gate fails when any appear: conservation
	// demands every non-advancing cycle carry a real cause.
	CauseUnattributed

	// NumStallCauses sizes per-cause arrays.
	NumStallCauses
)

func (c StallCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseArbLoss:
		return "arb_loss"
	case CauseBEContention:
		return "be_contention"
	case CauseMemBusWait:
		return "mem_bus_wait"
	case CauseSchedWait:
		return "sched_wait"
	case CauseHorizonHold:
		return "horizon_hold"
	case CausePacerHold:
		return "pacer_hold"
	case CauseCreditStarved:
		return "credit_starved"
	case CauseFaultRetransmit:
		return "fault_retransmit"
	case CauseLinkBusy:
		return "link_busy"
	case CauseUnattributed:
		return "unattributed"
	default:
		return fmt.Sprintf("cause(%d)", int(c))
	}
}

// BlameKey identifies one cell of a router's blame bank. Victim and
// Blamed are connection ids as carried arriving at this router (the ids
// the SLO layer resolves to channels); Blamed is zero when the cycle
// went to a subsystem rather than a competing channel. Port is the
// output port, or -1 for non-port contexts (injection queue, pacer,
// input-side memory writes). BE marks the per-port best-effort
// pseudo-victim.
type BlameKey struct {
	Port   int8
	Victim uint8
	BE     bool
	Cause  StallCause
	Blamed uint8
}

// ForensicStats aggregates a router's attribution totals. The
// conservation invariant TCStallCycles == sum of ByCause over the
// time-constrained causes holds structurally: both are incremented by
// the same call.
type ForensicStats struct {
	// TCStallCycles counts time-constrained victim stall cycles (every
	// cause except credit_starved, which is best-effort).
	TCStallCycles int64
	ByCause       [NumStallCauses]int64
}

// blameEpisode tracks a run of consecutive identically-attributed stall
// cycles on one port, so the lifecycle stream carries one EvStall per
// episode instead of one per cycle.
type blameEpisode struct {
	active bool
	victim uint8
	cause  StallCause
	blamed uint8
	start  int64
	cycles int64
}

// blameBank is the per-router attribution state. Plain (non-atomic)
// stores: only the owning router's tick writes it, and the kernel's
// end-of-run barrier orders the writes before any merge — the same
// contract as the obs shards.
type blameBank struct {
	cells map[BlameKey]int64
	stats ForensicStats
	ep    [NumPorts]blameEpisode
}

// EnableBlame switches slack-attribution collection on. Idempotent;
// obs.Forensics calls it when attaching. A parked router wakes: from
// here on every port-cycle a held packet waits is attributed.
func (r *Router) EnableBlame() {
	if r.blame == nil {
		r.blame = &blameBank{cells: make(map[BlameKey]int64)}
		r.rest = restBusy
	}
}

// BlameEnabled reports whether attribution is being collected.
func (r *Router) BlameEnabled() bool { return r.blame != nil }

// ForEachBlame visits every non-zero bank cell. Iteration order is
// unspecified (callers merge by summation and sort afterwards).
func (r *Router) ForEachBlame(f func(BlameKey, int64)) {
	if r.blame == nil {
		return
	}
	for k, v := range r.blame.cells {
		f(k, v)
	}
}

// BlameStats returns a copy of the router's attribution totals.
func (r *Router) BlameStats() ForensicStats {
	if r.blame == nil {
		return ForensicStats{}
	}
	return r.blame.stats
}

// FlushBlame closes any open stall episodes, emitting their EvStall
// events. Call after the run (the kernel barrier) and before reading
// the merged timeline; idempotent.
func (r *Router) FlushBlame() {
	if r.blame == nil {
		return
	}
	for p := 0; p < NumPorts; p++ {
		r.blameClose(p)
	}
}

// resetBlame clears the bank with the other warmup-reset state.
func (r *Router) resetBlame() {
	if r.blame == nil {
		return
	}
	r.blame.cells = make(map[BlameKey]int64)
	r.blame.stats = ForensicStats{}
	r.blame.ep = [NumPorts]blameEpisode{}
}

// BlamePacerHold records one pacer-held cycle for the victim connection
// (bank only; pacer holds happen before injection, outside any port's
// episode stream). The pacer ticks in the same node shard as the
// router, before it, so the plain store is safe under the parallel
// kernel.
func (r *Router) BlamePacerHold(victim, blamed uint8) {
	if r.blame == nil {
		return
	}
	r.blameNoteAt(-1, victim, false, CausePacerHold, blamed)
}

// blameNoteAt records one stall cycle into the bank. Ports outside
// [0,NumPorts) carry no episode stream (injection queue, pacer,
// input-side writes).
func (r *Router) blameNoteAt(port int, victim uint8, be bool, cause StallCause, blamed uint8) {
	bk := r.blame
	bk.cells[BlameKey{Port: int8(port), Victim: victim, BE: be, Cause: cause, Blamed: blamed}]++
	bk.stats.ByCause[cause]++
	if !be {
		bk.stats.TCStallCycles++
	}
}

// blameNoteTC records one time-constrained stall cycle on an output
// port and extends or opens its episode.
func (r *Router) blameNoteTC(p int, victim uint8, cause StallCause, blamed uint8) {
	r.blameNoteAt(p, victim, false, cause, blamed)
	ep := &r.blame.ep[p]
	if ep.active && ep.victim == victim && ep.cause == cause && ep.blamed == blamed {
		ep.cycles++
		return
	}
	r.blameClose(p)
	*ep = blameEpisode{
		active: true, victim: victim, cause: cause, blamed: blamed,
		start: r.nowCycle, cycles: 1,
	}
}

// blameNoteBE records one best-effort credit-starved cycle (bank only;
// the existing EvBlock event already marks best-effort stall episodes).
func (r *Router) blameNoteBE(p int) {
	r.blameNoteAt(p, 0, true, CauseCreditStarved, 0)
}

// blameClose ends the port's open episode, emitting one EvStall whose
// Cycle is the end-exclusive boundary: the episode covered cycles
// [Cycle-Wait, Cycle-1]. Victim rides InConn, the blamed connection
// OutConn, the episode length Wait.
func (r *Router) blameClose(p int) {
	ep := &r.blame.ep[p]
	if !ep.active {
		return
	}
	ep.active = false
	if r.OnLifecycle != nil {
		r.OnLifecycle(LifecycleEvent{
			Kind: EvStall, Cycle: ep.start + ep.cycles, Router: r.name,
			Port: p, InConn: ep.victim, OutConn: ep.blamed,
			Cause: ep.cause, Wait: ep.cycles,
		})
	}
}

// Scan outcomes for the waiting-leaf victim search.
const (
	scanNone   = iota // no leaf wants the port
	scanOnTime        // eligible, past its logical arrival time
	scanEarly         // eligible, early within the horizon
	scanBeyond        // early beyond the horizon (ineligible by design)
)

// blameScan finds the head-of-line waiting leaf for port p — the one
// the comparator tree would pick — without touching the scheduler's
// Select telemetry. O(slots), paid only on attributed port-cycles with
// no staged/fetching candidate.
func (r *Router) blameScan(p int, nowSlot timing.Stamp) (uint8, int) {
	if r.schedq.Occupancy() == 0 {
		return 0, scanNone
	}
	var (
		bestK timing.Key
		conn  uint8
		early bool
		found bool
	)
	n := r.schedq.Slots()
	for i := 0; i < n; i++ {
		lf := r.schedq.Leaf(i)
		if !lf.InUse || !lf.Mask.Has(p) {
			continue
		}
		k, e, _ := r.wheel.SortKey(lf.L, lf.Dl, nowSlot)
		if !found || k < bestK {
			bestK, conn, early, found = k, lf.InConn, e, true
		}
	}
	if !found {
		return 0, scanNone
	}
	if early {
		if !r.wheel.WithinHorizon(bestK, r.horizons[p]) {
			return conn, scanBeyond
		}
		return conn, scanEarly
	}
	return conn, scanOnTime
}

// blameArbWin attributes the cycle on a port whose wire a
// time-constrained packet is holding: the head-of-line waiter (staged
// prefetch first, then the earliest waiting leaf) lost the arbitration
// to the winner.
func (r *Router) blameArbWin(p int, nowSlot timing.Stamp, winner uint8) {
	o := r.tcOut[p]
	if o.staged {
		r.blameNoteTC(p, o.sLeaf.InConn, CauseArbLoss, winner)
		return
	}
	if conn, st := r.blameScan(p, nowSlot); st != scanNone {
		if st == scanBeyond {
			r.blameNoteTC(p, conn, CauseHorizonHold, 0)
		} else {
			r.blameNoteTC(p, conn, CauseArbLoss, winner)
		}
		return
	}
	r.blameClose(p)
}

// What, if anything, the best-effort side sent on the cycle being
// attributed.
const (
	beSentNone = iota
	beSentData
	beSentFault
)

// blameIdle attributes a port-cycle on which no time-constrained byte
// moved: either a best-effort flit took the wire (beSent says which
// kind) or the port idled. Exactly one cause is recorded when any
// time-constrained work is present; otherwise the open episode closes.
func (r *Router) blameIdle(p int, nowSlot timing.Stamp, beSent int) {
	o := r.tcOut[p]
	if o.staged {
		// arbitrate handles ClassOnTime before reaching any idle path,
		// and ClassEarly only loses the cycle to best-effort traffic; a
		// staged packet here is otherwise beyond the horizon.
		switch o.stagedClass(nowSlot) {
		case sched.ClassEarly:
			switch beSent {
			case beSentFault:
				r.blameNoteTC(p, o.sLeaf.InConn, CauseFaultRetransmit, 0)
			case beSentData:
				r.blameNoteTC(p, o.sLeaf.InConn, CauseBEContention, 0)
			default:
				r.blameNoteTC(p, o.sLeaf.InConn, CauseUnattributed, 0)
			}
		case sched.ClassNone:
			r.blameNoteTC(p, o.sLeaf.InConn, CauseHorizonHold, 0)
		default:
			r.blameNoteTC(p, o.sLeaf.InConn, CauseUnattributed, 0)
		}
		return
	}
	if o.cutIn != nil {
		// A pending cut-through (head byte not yet sent) held back like a
		// staged packet.
		switch o.cutClass {
		case sched.ClassEarly:
			switch beSent {
			case beSentFault:
				r.blameNoteTC(p, o.cutLeaf.InConn, CauseFaultRetransmit, 0)
			case beSentData:
				r.blameNoteTC(p, o.cutLeaf.InConn, CauseBEContention, 0)
			default:
				r.blameNoteTC(p, o.cutLeaf.InConn, CauseUnattributed, 0)
			}
		default:
			r.blameNoteTC(p, o.cutLeaf.InConn, CauseHorizonHold, 0)
		}
		return
	}
	if o.fetching || o.candValid {
		r.blameNoteTC(p, r.schedq.Leaf(o.cand.Slot).InConn, CauseMemBusWait, 0)
		return
	}
	conn, st := r.blameScan(p, nowSlot)
	switch st {
	case scanNone:
		r.blameClose(p)
	case scanBeyond:
		r.blameNoteTC(p, conn, CauseHorizonHold, 0)
	case scanOnTime:
		// Eligible but not yet staged: the shared comparator tree has not
		// delivered it to this port (had it been staged it would have
		// preempted any best-effort flit).
		r.blameNoteTC(p, conn, CauseSchedWait, 0)
	case scanEarly:
		// An early waiting leaf loses to best-effort traffic even when
		// staged, so a best-effort send is the binding constraint; with
		// the link free it is scheduling latency.
		switch beSent {
		case beSentFault:
			r.blameNoteTC(p, conn, CauseFaultRetransmit, 0)
		case beSentData:
			r.blameNoteTC(p, conn, CauseBEContention, 0)
		default:
			r.blameNoteTC(p, conn, CauseSchedWait, 0)
		}
	}
}
