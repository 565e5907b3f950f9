package router

import (
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

// AttachMetrics points the router's hot-path instrumentation at a
// telemetry block, typically reg.Router(name). Attach nil to detach;
// every update site is nil-guarded so a detached router pays only a
// pointer test per event.
func (r *Router) AttachMetrics(m *metrics.RouterMetrics) { r.met = m }

// Metrics returns the attached telemetry block, or nil.
func (r *Router) Metrics() *metrics.RouterMetrics { return r.met }

// lifecycle fires the OnLifecycle hook with router identity and the
// current cycle filled in. Callers must have checked the hook is set.
func (r *Router) lifecycle(e LifecycleEvent) {
	e.Cycle = r.nowCycle
	e.Router = r.name
	r.OnLifecycle(e)
}

// arbClass maps a scheduler class to its metrics label.
func arbClass(c sched.Class) metrics.ArbClass {
	if c == sched.ClassEarly {
		return metrics.ArbEarly
	}
	return metrics.ArbOnTime
}

// noteMemOccupancy refreshes the packet-memory occupancy gauge and its
// high-water mark after an allocation or free.
func (r *Router) noteMemOccupancy() {
	if r.met == nil {
		return
	}
	occ := int64(r.cfg.Slots - r.mem.freeSlots())
	r.met.MemOccupancy.Set(occ)
	r.met.MemHighWater.SetMax(occ)
}

// noteSchedOccupancy refreshes the scheduling-leaf occupancy gauge and
// its peak, once per scheduler beat.
func (r *Router) noteSchedOccupancy() {
	if r.met == nil {
		return
	}
	occ := int64(r.schedq.Occupancy())
	r.met.SchedOccupancy.Set(occ)
	r.met.SchedOccPeak.SetMax(occ)
}

// dropTC records a time-constrained drop in counters and the lifecycle
// stream.
func (r *Router) dropTC(reason metrics.DropReason, conn uint8, port int) {
	if r.met != nil {
		r.met.Drops[reason].Inc()
	}
	if r.OnLifecycle != nil {
		r.lifecycle(LifecycleEvent{Kind: EvDrop, Port: port, InConn: conn, Reason: reason})
	}
}

// dropBE records a best-effort drop.
func (r *Router) dropBE(reason metrics.DropReason, port int) {
	if r.met != nil {
		r.met.Drops[reason].Inc()
	}
	if r.OnLifecycle != nil {
		r.lifecycle(LifecycleEvent{Kind: EvDrop, Port: port, Reason: reason, BE: true})
	}
}
