// Package trace defines the time-stamped network event — the software
// analog of watching the Verilog waveforms the authors used — with its
// translation from router lifecycle observations and its human-readable
// rendering. The obs package's sharded collector records and merges the
// events; cmd/rtsim exposes the tail via -trace.
package trace

import (
	"fmt"
	"io"

	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/timing"
)

// Kind classifies an event.
type Kind int

const (
	// KindTCTransmit is a time-constrained packet leaving an output port.
	KindTCTransmit Kind = iota
	// KindTCDeliver is a delivery to a local processor.
	KindTCDeliver
	// KindBEDeliver is a best-effort delivery.
	KindBEDeliver
	// KindInject is a time-constrained packet handed to the injection
	// port by the local processor.
	KindInject
	// KindEnqueue is a packet becoming visible to the comparator tree
	// (memory write finished, scheduling leaf installed).
	KindEnqueue
	// KindArbWin is an output port selecting a packet for transmission.
	KindArbWin
	// KindCutThrough is a virtual cut-through path being established.
	KindCutThrough
	// KindBlock is an output port starting a best-effort credit stall.
	KindBlock
	// KindDrop is a packet being discarded (Reason says why).
	KindDrop
	// KindStall is a closed slack-attribution episode: Wait consecutive
	// cycles the victim (Conn) spent not advancing on the port for one
	// cause (Reason), ending exclusive at Cycle. Present only when blame
	// collection is enabled (router.EnableBlame).
	KindStall
)

func (k Kind) String() string {
	switch k {
	case KindTCTransmit:
		return "tc-tx"
	case KindTCDeliver:
		return "tc-rx"
	case KindBEDeliver:
		return "be-rx"
	case KindInject:
		return "inject"
	case KindEnqueue:
		return "enqueue"
	case KindArbWin:
		return "arb-win"
	case KindCutThrough:
		return "cut-thru"
	case KindBlock:
		return "block"
	case KindDrop:
		return "drop"
	case KindStall:
		return "stall"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one recorded occurrence. Conn is the connection id the
// packet carried arriving at the router; OutConn the rewritten id it
// leaves with (headers are rewritten every hop), zero when unknown.
type Event struct {
	Cycle   int64
	Kind    Kind
	Router  string
	Port    int
	Conn    uint8
	OutConn uint8
	Class   sched.Class
	Missed  bool
	Wait    int64
	// Stamp and Slack mirror router.LifecycleEvent: the wrapped deadline
	// stamp the event was measured against and the signed slot distance
	// to it (negative = overdue).
	Stamp  timing.Stamp
	Slack  int64
	Reason string
	BE     bool
}

// DumpEvents writes events in the standard human-readable trace format,
// one line each, in slice order. The slack printed on transmit,
// arbitration, cut-through, and delivery lines is the signed slot margin
// against the event's deadline stamp (negative = overdue).
func DumpEvents(w io.Writer, events []Event) {
	for _, e := range events {
		miss := ""
		if e.Missed {
			miss = " MISS"
		}
		switch e.Kind {
		case KindTCTransmit, KindArbWin:
			fmt.Fprintf(w, "%10d  %s  %s %s conn=%d->%d class=%s wait=%d slack=%d%s\n",
				e.Cycle, e.Kind, e.Router, router.PortName(e.Port), e.Conn, e.OutConn, e.Class, e.Wait, e.Slack, miss)
		case KindCutThrough:
			fmt.Fprintf(w, "%10d  %s  %s %s conn=%d->%d class=%s slack=%d\n",
				e.Cycle, e.Kind, e.Router, router.PortName(e.Port), e.Conn, e.OutConn, e.Class, e.Slack)
		case KindEnqueue:
			fmt.Fprintf(w, "%10d  %s  %s conn=%d->%d\n", e.Cycle, e.Kind, e.Router, e.Conn, e.OutConn)
		case KindDrop:
			fmt.Fprintf(w, "%10d  %s  %s conn=%d reason=%s\n", e.Cycle, e.Kind, e.Router, e.Conn, e.Reason)
		case KindStall:
			fmt.Fprintf(w, "%10d  %s  %s %s conn=%d cause=%s blamed=%d cycles=%d\n",
				e.Cycle, e.Kind, e.Router, router.PortName(e.Port), e.Conn, e.Reason, e.OutConn, e.Wait)
		case KindBlock:
			fmt.Fprintf(w, "%10d  %s  %s %s\n", e.Cycle, e.Kind, e.Router, router.PortName(e.Port))
		case KindTCDeliver:
			fmt.Fprintf(w, "%10d  %s  %s conn=%d slack=%d%s\n", e.Cycle, e.Kind, e.Router, e.Conn, e.Slack, miss)
		default:
			fmt.Fprintf(w, "%10d  %s  %s conn=%d%s\n", e.Cycle, e.Kind, e.Router, e.Conn, miss)
		}
	}
}

// FromLifecycle translates a router observation into a trace event.
func FromLifecycle(ev router.LifecycleEvent) Event {
	e := Event{
		Cycle:   ev.Cycle,
		Router:  ev.Router,
		Port:    ev.Port,
		Conn:    ev.InConn,
		OutConn: ev.OutConn,
		Class:   ev.Class,
		Missed:  ev.Missed,
		Wait:    ev.Wait,
		Stamp:   ev.Stamp,
		Slack:   ev.Slack,
		BE:      ev.BE,
	}
	switch ev.Kind {
	case router.EvInject:
		e.Kind = KindInject
	case router.EvEnqueue:
		e.Kind = KindEnqueue
	case router.EvArbWin:
		e.Kind = KindArbWin
	case router.EvTransmit:
		e.Kind = KindTCTransmit
	case router.EvCutThrough:
		e.Kind = KindCutThrough
	case router.EvBlock:
		e.Kind = KindBlock
	case router.EvDrop:
		e.Kind = KindDrop
		e.Reason = ev.Reason.String()
	case router.EvDeliver:
		if ev.BE {
			e.Kind = KindBEDeliver
		} else {
			e.Kind = KindTCDeliver
		}
	case router.EvStall:
		e.Kind = KindStall
		e.Reason = ev.Cause.String()
	}
	return e
}
