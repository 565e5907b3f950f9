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
// fetch, then the waiting leaf the tree's order serves next). A packet
// queued behind the head is charged once it becomes head-of-line itself,
// so totals stay conserved without quadratic accounting. Best-effort
// credit stalls are charged to a per-port best-effort pseudo-victim in
// exact lockstep with the BEStallCycles hardware counter.
//
// Collection is deterministic and inert: the bank is written only
// during the owning router's tick (single writer under the parallel
// kernel), reads no scheduler state through mutating interfaces
// (Select is never called; the tree is asked through Peek), and changes
// no simulation behavior — a run with blame enabled is cycle-identical
// to one without.

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
		r.wake()
		r.blame = &blameBank{cells: make(map[BlameKey]int64)}
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

// blameScan finds the head-of-line waiting leaf for port p — the one
// the tree's order serves next, held or not — and its class, through
// the tree's Peek, which leaves Select's telemetry alone; paid only on
// attributed port-cycles with no staged/fetching candidate.
func (r *Router) blameScan(p int, nowSlot timing.Stamp) (uint8, sched.Class) {
	sel := r.schedq.Peek(p, nowSlot, r.horizons[p])
	if sel.Slot < 0 {
		return 0, sched.ClassNone
	}
	return r.schedq.Leaf(sel.Slot).InConn, sel.Class
}

// blameGrant attributes one port-cycle from what arbitrate granted the
// wire to (winner: the time-constrained packet holding it). Exactly one
// cause is recorded when time-constrained work waits at the port;
// otherwise the open episode closes.
func (r *Router) blameGrant(p int, nowSlot timing.Stamp, g grant, winner uint8) {
	o := r.tcOut[p]
	switch g {
	case grantDead:
		r.blameClose(p)
		return
	case grantBubble:
		// The cut-through's arrival stream has not caught up with the
		// rewritten header, so the wire itself is the bottleneck.
		r.blameNoteTC(p, winner, CauseLinkBusy, 0)
		return
	case grantBusy, grantOnTimeStaged, grantOnTimeCut, grantEarlyStaged, grantEarlyCut:
		// A time-constrained packet holds the wire: the head-of-line waiter
		// (staged prefetch first, then the leaf the order serves next)
		// lost the arbitration to it.
		if o.staged {
			r.blameNoteTC(p, o.sLeaf.InConn, CauseArbLoss, winner)
			return
		}
		switch conn, c := r.blameScan(p, nowSlot); c {
		case sched.ClassNone:
			r.blameClose(p)
		case sched.ClassHeld:
			r.blameNoteTC(p, conn, CauseHorizonHold, 0)
		default:
			r.blameNoteTC(p, conn, CauseArbLoss, winner)
		}
		return
	}

	// No time-constrained byte moved: a best-effort flit took the wire, or
	// the port idled, perhaps on a best-effort credit stall — charged to
	// the port's best-effort pseudo-victim, bank only: EvBlock already
	// marks best-effort stall episodes.
	if g == grantIdle && r.beOut[p].wasStalled {
		r.blameNoteAt(p, 0, true, CauseCreditStarved, 0)
	}
	if o.staged {
		// Table 1 starts an on-time staged packet ahead of any best-effort
		// flit, so one left staged is early — losing only to best-effort
		// traffic — or beyond the horizon.
		cause := CauseHorizonHold
		switch o.stagedClass(nowSlot) {
		case sched.ClassEarly:
			cause = earlyCause(g, CauseUnattributed)
		case sched.ClassOnTime:
			cause = CauseUnattributed
		}
		r.blameNoteTC(p, o.sLeaf.InConn, cause, 0)
		return
	}
	if o.cutIn != nil {
		// A pending cut-through (head byte not yet sent) held back like a
		// staged packet.
		cause := CauseHorizonHold
		if o.cutClass == sched.ClassEarly {
			cause = earlyCause(g, CauseUnattributed)
		}
		r.blameNoteTC(p, o.cutLeaf.InConn, cause, 0)
		return
	}
	if o.fetching || o.candValid {
		r.blameNoteTC(p, r.schedq.Leaf(o.cand.Slot).InConn, CauseMemBusWait, 0)
		return
	}
	switch conn, c := r.blameScan(p, nowSlot); c {
	case sched.ClassNone:
		r.blameClose(p)
	case sched.ClassHeld:
		r.blameNoteTC(p, conn, CauseHorizonHold, 0)
	case sched.ClassOnTime:
		// Eligible but not yet staged: the shared comparator tree has not
		// delivered it to this port (had it been staged it would have
		// preempted any best-effort flit).
		r.blameNoteTC(p, conn, CauseSchedWait, 0)
	case sched.ClassEarly:
		// An early waiting leaf loses to best-effort traffic even when
		// staged; with the link free it is scheduling latency.
		r.blameNoteTC(p, conn, earlyCause(g, CauseSchedWait), 0)
	}
}

// earlyCause is the cause charged to a victim that is only
// horizon-early on a cycle the wire did not carry time-constrained
// traffic. Table 1 lets best-effort flits go ahead of it, so a recovery
// flit makes the cycle fault_retransmit and a data flit be_contention;
// on an idle wire the caller's cause stands.
func earlyCause(g grant, idle StallCause) StallCause {
	switch g {
	case grantRecovery:
		return CauseFaultRetransmit
	case grantData:
		return CauseBEContention
	}
	return idle
}
