package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/packet"
	"repro/internal/router"
)

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// Perfetto and chrome://tracing load). Only the fields this exporter
// uses are modelled.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int64          `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	Comment         string        `json:"otherData,omitempty"`
}

// Track layout: one Perfetto "process" per mesh node (pid = node index
// + 1; pid 0 renders poorly), one "thread" per output port (tid = port
// + 1) plus a node-level track (tid = nodeTid) for inject, enqueue and
// deliver events, which are not port-specific.
const nodeTid = router.NumPorts + 1

// flowPoint classifies one (router, conn) endpoint of a monitored
// channel for flow binding: where the packet flow starts (the source
// hop), steps (intermediate transmits), or finishes (delivery).
type flowPoint struct {
	chanID int
	name   string
	start  bool
	end    bool
	// Per-endpoint packet indices (FIFO order within a channel), one
	// counter per event kind: the source endpoint sees each packet twice
	// (inject, then transmit), so the streams must count independently
	// for the k-th inject and the k-th transmit to name the same packet.
	kInj, kTx, kRx int64
}

// flowTable indexes every monitored channel endpoint. Per-channel
// traffic is FIFO through each endpoint, so the k-th event of a kind at
// each endpoint belongs to the k-th packet of that channel, and
// id = chanID<<20 | k names one packet's flow across all its hops.
func flowTable(slo *SLO) map[Endpoint]*flowPoint {
	if slo == nil {
		return nil
	}
	tbl := make(map[Endpoint]*flowPoint)
	for _, cs := range slo.Channels() {
		info := cs.Info()
		for i, h := range info.Hops {
			tbl[Endpoint{Router: h.Router, Conn: h.In}] = &flowPoint{
				chanID: info.ID, name: info.Name, start: i == 0,
			}
		}
		for _, d := range info.Deliver {
			tbl[d] = &flowPoint{chanID: info.ID, name: info.Name, end: true}
		}
	}
	return tbl
}

// WriteChromeTrace writes the collector's merged timeline as Chrome
// trace-event JSON: transmissions are duration slices on their port's
// track, inject/enqueue/deliver are slices on the node track, and
// drops, blocks and cut-throughs are instants. When an SLO tracker is
// supplied, each monitored channel's packets are additionally linked
// into flows (ph s/t/f) so Perfetto draws one arrow chain per packet
// from injection through every hop to delivery.
//
// Timebase: 1 trace microsecond = 1 byte cycle (the viewer has no
// native cycle unit). Flow matching counts events per endpoint, so it
// is exact only when no shard evicted events — size the collector to
// the run (or accept arrows joining different packets of the same
// channel after eviction). Multicast channels share one flow id across
// their delivery branches.
func WriteChromeTrace(w io.Writer, c *Sharded, slo *SLO) error {
	return WriteChromeEvents(w, c.NodeNames(), c.Merged(), slo)
}

// WriteChromeEvents renders an already-merged (and possibly filtered)
// event slice as Chrome trace-event JSON. names[i] labels node i's
// process track. The flight recorder uses it to dump trigger windows;
// WriteChromeTrace feeds it a collector's full merged timeline.
func WriteChromeEvents(w io.Writer, names []string, events []Event, slo *SLO) error {
	flows := flowTable(slo)
	tr := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for node := 0; node < len(names); node++ {
		pid := node + 1
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": "router " + names[node]},
		})
		for p := 0; p < router.NumPorts; p++ {
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: p + 1,
				Args: map[string]any{"name": "port " + router.PortName(p)},
			})
		}
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: nodeTid,
			Args: map[string]any{"name": "node"},
		})
	}

	flowStep := func(e Event, pid, tid int) *chromeEvent {
		if flows == nil {
			return nil
		}
		fp := flows[Endpoint{Router: e.Router, Conn: e.InConn}]
		if fp == nil {
			return nil
		}
		var k *int64
		switch e.Kind {
		case router.EvInject:
			if !fp.start {
				return nil
			}
			k = &fp.kInj
		case router.EvDeliver:
			if !fp.end {
				return nil
			}
			k = &fp.kRx
		default: // EvTransmit
			k = &fp.kTx
		}
		id := int64(fp.chanID)<<20 | *k
		*k++
		ev := &chromeEvent{
			Name: fp.name, Cat: "packet", Ts: e.Cycle, Pid: pid, Tid: tid, ID: id,
		}
		switch {
		case e.Kind == router.EvInject:
			ev.Ph = "s"
		case fp.end:
			ev.Ph = "f"
			ev.BP = "e"
		default:
			ev.Ph = "t"
		}
		return ev
	}

	for _, e := range events {
		pid := e.Node + 1
		tid := nodeTid
		if e.Port >= 0 {
			tid = e.Port + 1
		}
		args := map[string]any{"conn": e.InConn}
		if e.OutConn != 0 {
			args["out_conn"] = e.OutConn
		}
		ce := chromeEvent{Ts: e.Cycle, Pid: pid, Tid: tid, Args: args}
		switch e.Kind {
		case router.EvTransmit:
			ce.Name, ce.Ph, ce.Dur = "tc-tx", "X", packet.TCBytes
			args["class"] = e.Class.String()
			args["slack_slots"] = e.Slack
			args["wait_cycles"] = e.Wait
			if e.Missed {
				args["missed"] = true
			}
		case router.EvInject:
			ce.Name, ce.Ph, ce.Dur = "inject", "X", 1
		case router.EvEnqueue:
			ce.Name, ce.Ph, ce.Dur = "enqueue", "X", 1
			args["slack_slots"] = e.Slack
		case router.EvDeliver:
			if e.BE {
				ce.Name, ce.Ph, ce.Dur = "be-rx", "X", 1
				delete(args, "conn")
			} else {
				ce.Name, ce.Ph, ce.Dur = "tc-rx", "X", 1
				args["slack_slots"] = e.Slack
			}
		case router.EvArbWin:
			ce.Name, ce.Ph, ce.S = "arb-win", "i", "t"
			args["class"] = e.Class.String()
		case router.EvCutThrough:
			ce.Name, ce.Ph, ce.S = "cut-through", "i", "t"
		case router.EvBlock:
			ce.Name, ce.Ph, ce.S = "be-block", "i", "t"
			delete(args, "conn")
		case router.EvDrop:
			ce.Name, ce.Ph, ce.S = "drop", "i", "t"
			args["reason"] = e.Reason.String()
		case router.EvStall:
			// The episode covered [Cycle-Wait, Cycle-1]: render it as a
			// slice spanning exactly the stalled cycles.
			ce.Name, ce.Ph, ce.Ts, ce.Dur = "tc-stall", "X", e.Cycle-e.Wait, e.Wait
			args["cause"] = e.Cause.String()
			args["cycles"] = e.Wait
			if e.OutConn != 0 {
				args["blamed_conn"] = e.OutConn
				delete(args, "out_conn")
			}
		default:
			continue
		}
		tr.TraceEvents = append(tr.TraceEvents, ce)
		if !e.BE && (e.Kind == router.EvInject || e.Kind == router.EvTransmit || e.Kind == router.EvDeliver) {
			if fe := flowStep(e, pid, tid); fe != nil {
				tr.TraceEvents = append(tr.TraceEvents, *fe)
			}
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// jsonlEvent is the line format of WriteJSONL.
type jsonlEvent struct {
	Cycle   int64  `json:"cycle"`
	Node    int    `json:"node"`
	Seq     uint64 `json:"seq"`
	Router  string `json:"router"`
	Kind    string `json:"kind"`
	Port    int    `json:"port"`
	Conn    uint8  `json:"conn"`
	OutConn uint8  `json:"out_conn,omitempty"`
	Class   string `json:"class,omitempty"`
	Missed  bool   `json:"missed,omitempty"`
	Wait    int64  `json:"wait,omitempty"`
	Stamp   uint32 `json:"stamp"`
	Slack   int64  `json:"slack"`
	Reason  string `json:"reason,omitempty"`
	Cause   string `json:"cause,omitempty"`
	BE      bool   `json:"be,omitempty"`
}

// WriteJSONL writes the merged timeline as one JSON object per line —
// the machine-readable sibling of Dump, stable across worker counts.
func WriteJSONL(w io.Writer, c *Sharded) error {
	return WriteJSONLEvents(w, c.Merged())
}

// WriteJSONLEvents writes an already-merged (and possibly filtered)
// event slice as JSONL; the flight recorder dumps trigger windows
// through it.
func WriteJSONLEvents(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, e := range events {
		le := jsonlEvent{
			Cycle:  e.Cycle,
			Node:   e.Node,
			Seq:    e.Seq,
			Router: e.Router,
			Kind:   e.Kind.String(),
			Port:   e.Port,
			Conn:   e.InConn,
			Missed: e.Missed,
			Wait:   e.Wait,
			Stamp:  uint32(e.Stamp),
			Slack:  e.Slack,
			BE:     e.BE,
		}
		if e.OutConn != 0 {
			le.OutConn = e.OutConn
		}
		switch e.Kind {
		case router.EvArbWin, router.EvTransmit, router.EvCutThrough:
			le.Class = e.Class.String()
		case router.EvDrop:
			le.Reason = e.Reason.String()
		case router.EvStall:
			le.Cause = e.Cause.String()
		}
		if err := enc.Encode(le); err != nil {
			return err
		}
	}
	return nil
}

// textLabel names an event in the text dump. It differs from
// LifecycleKind.String where the dump's established vocabulary does:
// transmissions and deliveries carry their traffic class in the label.
func textLabel(e *Event) string {
	switch e.Kind {
	case router.EvTransmit:
		return "tc-tx"
	case router.EvCutThrough:
		return "cut-thru"
	case router.EvDeliver:
		if e.BE {
			return "be-rx"
		}
		return "tc-rx"
	default:
		return e.Kind.String()
	}
}

// WriteText writes events in the standard human-readable trace format —
// the software analog of watching the Verilog waveforms the authors
// used — one line each, in slice order. The slack printed on transmit,
// arbitration, cut-through, and delivery lines is the signed slot margin
// against the event's deadline stamp (negative = overdue).
func WriteText(w io.Writer, events []Event) {
	for i := range events {
		e := &events[i]
		label := textLabel(e)
		miss := ""
		if e.Missed {
			miss = " MISS"
		}
		switch e.Kind {
		case router.EvTransmit, router.EvArbWin:
			fmt.Fprintf(w, "%10d  %s  %s %s conn=%d->%d class=%s wait=%d slack=%d%s\n",
				e.Cycle, label, e.Router, router.PortName(e.Port), e.InConn, e.OutConn, e.Class, e.Wait, e.Slack, miss)
		case router.EvCutThrough:
			fmt.Fprintf(w, "%10d  %s  %s %s conn=%d->%d class=%s slack=%d\n",
				e.Cycle, label, e.Router, router.PortName(e.Port), e.InConn, e.OutConn, e.Class, e.Slack)
		case router.EvEnqueue:
			fmt.Fprintf(w, "%10d  %s  %s conn=%d->%d\n", e.Cycle, label, e.Router, e.InConn, e.OutConn)
		case router.EvDrop:
			fmt.Fprintf(w, "%10d  %s  %s conn=%d reason=%s\n", e.Cycle, label, e.Router, e.InConn, e.Reason)
		case router.EvStall:
			fmt.Fprintf(w, "%10d  %s  %s %s conn=%d cause=%s blamed=%d cycles=%d\n",
				e.Cycle, label, e.Router, router.PortName(e.Port), e.InConn, e.Cause, e.OutConn, e.Wait)
		case router.EvBlock:
			fmt.Fprintf(w, "%10d  %s  %s %s\n", e.Cycle, label, e.Router, router.PortName(e.Port))
		case router.EvDeliver:
			slack := ""
			if !e.BE {
				slack = fmt.Sprintf(" slack=%d", e.Slack)
			}
			fmt.Fprintf(w, "%10d  %s  %s conn=%d%s%s\n", e.Cycle, label, e.Router, e.InConn, slack, miss)
		default:
			fmt.Fprintf(w, "%10d  %s  %s conn=%d%s\n", e.Cycle, label, e.Router, e.InConn, miss)
		}
	}
}

// WriteTraceFile exports the collector's merged timeline to path; the
// extension picks the format: .json is Chrome trace-event JSON for
// Perfetto, .jsonl the JSON-lines event log, anything else the
// human-readable dump.
func WriteTraceFile(path string, c *Sharded, slo *SLO) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch {
	case strings.HasSuffix(path, ".json"):
		err = WriteChromeTrace(f, c, slo)
	case strings.HasSuffix(path, ".jsonl"):
		err = WriteJSONL(f, c)
	default:
		c.Dump(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
