package router

import (
	"math/bits"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/timing"
)

// LifecycleKind classifies one step in a packet's life inside a router.
// Together the kinds let a per-hop timeline — the logical-arrival ℓ_j
// chain of the paper — be reconstructed from a recorded event stream
// (obs.Sharded records it; the Perfetto export links the hops).
type LifecycleKind uint8

const (
	// EvInject: the local processor handed a time-constrained packet to
	// the injection port.
	EvInject LifecycleKind = iota
	// EvEnqueue: a packet finished its memory write and its scheduling
	// leaf was installed (visible to the comparator tree).
	EvEnqueue
	// EvArbWin: output-port arbitration selected the packet for
	// transmission (Class says on-time or early).
	EvArbWin
	// EvTransmit: the packet's head byte left the output port.
	EvTransmit
	// EvCutThrough: a virtual cut-through path was established and the
	// packet will bypass the packet memory (§7).
	EvCutThrough
	// EvBlock: an output port began stalling a best-effort flit for
	// lack of downstream credits (one event per stall episode).
	EvBlock
	// EvDrop: the packet was discarded; Reason says why.
	EvDrop
	// EvDeliver: the packet was handed to the local processor.
	EvDeliver
	// EvStall: a slack-attribution episode closed — a run of consecutive
	// cycles one victim packet spent not advancing on a port for one
	// cause. InConn is the victim, OutConn the blamed connection (zero
	// for subsystem causes), Wait the episode length in cycles, and
	// Cycle the end-exclusive boundary: the episode covered cycles
	// [Cycle-Wait, Cycle-1]. Emitted only when blame collection is
	// enabled (see blame.go).
	EvStall
)

func (k LifecycleKind) String() string {
	switch k {
	case EvInject:
		return "inject"
	case EvEnqueue:
		return "enqueue"
	case EvArbWin:
		return "arb-win"
	case EvTransmit:
		return "transmit"
	case EvCutThrough:
		return "cut-through"
	case EvBlock:
		return "block"
	case EvDrop:
		return "drop"
	case EvDeliver:
		return "deliver"
	case EvStall:
		return "stall"
	default:
		return "lifecycle(?)"
	}
}

// LifecycleEvent is one observation from the router core, reported
// through Router.OnLifecycle. The hook fires only for packet-level
// events (never per byte), so a recorder sees a bounded stream even
// under saturation.
type LifecycleEvent struct {
	Kind   LifecycleKind
	Cycle  int64
	Router string
	// Port is the output port involved, or -1 when the event is not
	// port-specific (inject, enqueue, deliver).
	Port int
	// InConn is the connection id the packet carried on arrival at this
	// router; OutConn the rewritten id for the next hop (zero when
	// unknown, e.g. drops before table lookup).
	InConn  uint8
	OutConn uint8
	Class   sched.Class
	Missed  bool
	// Wait is cycles from leaf install to transmission start (transmit
	// events from the memory path only).
	Wait int64
	// Stamp is the wrapped slot-clock stamp the event was measured
	// against: the per-hop deadline ℓ+d for enqueue/arb-win/transmit/
	// cut-through, the delivery deadline carried in the header for
	// deliver, and the logical arrival time ℓ0 for inject. Zero for
	// best-effort and drop events.
	Stamp timing.Stamp
	// Slack is the signed slot distance from the current slot time to
	// Stamp (timing.Wheel.SignedDiff): positive = slots to spare, zero =
	// the deadline slot itself (still on time), negative = overdue. For
	// inject events it is the gap to ℓ0 instead (positive = early).
	Slack int64
	// Reason is valid for EvDrop.
	Reason metrics.DropReason
	// Cause is valid for EvStall: why the victim failed to advance.
	Cause StallCause
	// BE marks best-effort events (block, drop, deliver); connection
	// ids are meaningless for them.
	BE bool
}

// metricsFold is an attached router's side of its telemetry: the block
// it folds into and the counts that block last received from it.
type metricsFold struct {
	block *metrics.RouterMetrics
	base  metrics.RouterCounts
}

// AttachMetrics points the router's telemetry at a block, typically
// reg.Router(name); attach nil to detach. The tick never writes the
// block: FoldMetrics adds to it what the router counted, and a block
// attached after the router ran receives everything counted since its
// last ResetStats.
func (r *Router) AttachMetrics(m *metrics.RouterMetrics) {
	r.met = nil
	if m != nil {
		r.met = &metricsFold{block: m}
	}
}

// FoldMetrics adds what the router counted since its last fold into the
// attached block (metrics.RouterMetrics.Fold). It reads the router's
// state, so it runs host-side while the kernel is quiet, and inside the
// registry's lock (metrics.Registry.Fold) when anything may read the
// registry meanwhile — core.System folds every 1024 cycles of a run and
// when it returns. No-op when detached.
func (r *Router) FoldMetrics() {
	if r.met == nil {
		return
	}
	cur := r.counts()
	r.met.block.Fold(&cur, &r.met.base, r.memMoved)
	r.memMoved = false
}

// counts is the router's telemetry since its last ResetStats: the tally,
// the beat counters and the clock's rollovers, plus every value a Stats
// field already counts.
func (r *Router) counts() metrics.RouterCounts {
	r.alarm.Settle()
	c, st := r.tally, &r.Stats
	c.SchedSelects, c.SchedOccupancy, c.SchedOccPeak = r.beats, r.schedLevel, r.schedPeak
	c.SlotRollovers = r.turns(r.nowCycle) - r.turnBase
	c.TCEnqueued = st.TCArrived
	c.TCDelivered = st.TCDelivered
	c.BEDelivered = st.BEDelivered
	c.CutThroughs = st.TCCutThroughs
	c.DeadlineMisses = st.TCDeadlineMisses
	c.BEFlitNacks = st.BEFlitNacks
	c.BEFlitRetransmits = st.BEFlitRetransmits
	c.BEFrameAborts = st.BEFrameAborts
	for p := 0; p < NumPorts; p++ {
		c.ArbWins[p][metrics.ArbOnTime] = st.TCTransmitted[p] - c.ArbWins[p][metrics.ArbEarly]
		c.ArbWins[p][metrics.ArbBE] = st.BEBytes[p]
	}
	c.Drops[metrics.DropTCNoSlot] = st.TCDropsNoSlot
	c.Drops[metrics.DropTCNoRoute] = st.TCDropsNoRoute
	c.Drops[metrics.DropTCStaging] = st.TCDropsStaging
	c.Drops[metrics.DropTCDeadPort] = st.TCDeadPortDrops
	c.Drops[metrics.DropBEMisroute] = st.BEMisroutes
	c.Drops[metrics.DropBEOverrun] = st.BEBufferOverruns
	c.Drops[metrics.DropTCCorrupt] = st.TCCorruptDrops
	c.Drops[metrics.DropTCFraming] = st.TCFramingDrops
	// The tally holds the truncations and aborts seen at inputs; Stats
	// counts the ones this router's outputs originated.
	c.Drops[metrics.DropBETruncated] += st.BETruncated
	c.Drops[metrics.DropBEAborted] += st.BEFrameAborts
	c.MemOccupancy = int64(r.cfg.Slots - r.mem.freeSlots())
	// A port asleep on a credit stall has counted none of the cycles since
	// it fell asleep (arbitrate).
	for m := r.stallSleep; m != 0; m &= m - 1 {
		p := bits.TrailingZeros8(m)
		c.BEStallCycles[p] += r.nowCycle + 1 - r.stallFrom[p]
	}
	return c
}

// SchedHighWater reports the most scheduling leaves in use at any
// comparator-tree beat since the last ResetStats.
func (r *Router) SchedHighWater() int {
	r.alarm.Settle()
	return int(r.schedPeak)
}

// NoteLinkFault counts one phit the LinkFault hook garbled (lost false)
// or erased (lost true). The hook calls it from inside this router's
// tick.
func (r *Router) NoteLinkFault(lost bool) {
	if lost {
		r.tally.FaultLostPhits++
	} else {
		r.tally.FaultCorruptPhits++
	}
}

// lifecycle fires the OnLifecycle hook with router identity and the
// current cycle filled in. Callers must have checked the hook is set.
func (r *Router) lifecycle(e LifecycleEvent) {
	e.Cycle = r.nowCycle
	e.Router = r.name
	r.OnLifecycle(e)
}

// noteMemOccupancy tracks the packet-memory high-water mark after an
// allocation or free, and marks the occupancy level moved.
func (r *Router) noteMemOccupancy() {
	r.tally.MemHighWater = max(r.tally.MemHighWater, int64(r.cfg.Slots-r.mem.freeSlots()))
	r.memMoved = true
}

// noteSchedBeat counts one comparator-tree beat and samples the
// scheduling-leaf level and its peak.
func (r *Router) noteSchedBeat() {
	r.beats++
	r.schedLevel = int64(r.schedq.Occupancy())
	r.schedPeak = max(r.schedPeak, r.schedLevel)
}

// dropTC records a time-constrained drop in the lifecycle stream; the
// counters are the caller's.
func (r *Router) dropTC(reason metrics.DropReason, conn uint8, port int) {
	if r.OnLifecycle != nil {
		r.lifecycle(LifecycleEvent{Kind: EvDrop, Port: port, InConn: conn, Reason: reason})
	}
}

// dropBE records a best-effort drop in the lifecycle stream.
func (r *Router) dropBE(reason metrics.DropReason, port int) {
	if r.OnLifecycle != nil {
		r.lifecycle(LifecycleEvent{Kind: EvDrop, Port: port, Reason: reason, BE: true})
	}
}
