package obs

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/router"
)

// Recorder is the flight recorder: it watches each node's lifecycle
// stream for trouble — deadline misses, best-effort aborts, fault drops
// — and records a bounded per-node log of trigger descriptors, each
// with a queue/occupancy snapshot of the router at the moment of the
// trigger. After the run it can dump the last K cycles leading up to
// the final trigger from the merged timeline (Perfetto JSON or JSONL),
// giving a post-mortem view of exactly how the miss developed.
//
// Like the obs shards, each node's trigger log has a single writer (the
// owning router's tick) and is read only after the kernel barrier; the
// trigger counts alone are atomic so a live metrics scrape can report
// them.
type Recorder struct {
	window  int64
	maxTrig int
	nodes   []*recNode
}

// Trigger kinds.
const (
	trigHopMiss = iota
	trigDeadlineMiss
	trigFaultDrop
	trigFaultRetransmit
	numTrigKinds
)

var trigKindNames = [numTrigKinds]string{
	"hop_miss", "deadline_miss", "fault_drop", "fault_retransmit",
}

// Trigger describes one recorded trouble event and the router's state
// when it fired.
type Trigger struct {
	Cycle  int64  `json:"cycle"`
	Node   int    `json:"node"`
	Router string `json:"router"`
	// Kind is the trigger class: hop_miss (transmission started past the
	// local deadline), deadline_miss (delivery with negative end-to-end
	// slack), fault_drop (integrity or framing discard, truncated or
	// aborted best-effort frame), or fault_retransmit (a stall episode
	// attributed to fault recovery).
	Kind   string `json:"kind"`
	Conn   uint8  `json:"conn,omitempty"`
	Slack  int64  `json:"slack,omitempty"`
	Reason string `json:"reason,omitempty"`
	// Router occupancy at the trigger: free packet-memory slots,
	// scheduler leaves in use, and packets queued at the injection port.
	FreeSlots     int `json:"free_slots"`
	SchedOccupied int `json:"sched_occupied"`
	InjectBacklog int `json:"inject_backlog"`
}

// recNode is one node's bounded trigger log and its trigger counts by
// kind, evicted triggers included; resetting the node's router clears
// both.
type recNode struct {
	node  int
	log   ring[Trigger]
	kinds [numTrigKinds]atomic.Int64
}

// DefaultRecorderWindow is the dump window in cycles when the caller
// passes a non-positive value; DefaultRecorderTriggers the per-node
// trigger-log depth.
const (
	DefaultRecorderWindow   = 4096
	DefaultRecorderTriggers = 64
)

// NewRecorder returns a recorder dumping the windowCycles cycles before
// each trigger and keeping the last maxTriggersPerNode trigger
// descriptors per node (defaults applied for non-positive values).
func NewRecorder(windowCycles int64, maxTriggersPerNode int) *Recorder {
	if windowCycles <= 0 {
		windowCycles = DefaultRecorderWindow
	}
	if maxTriggersPerNode <= 0 {
		maxTriggersPerNode = DefaultRecorderTriggers
	}
	return &Recorder{window: windowCycles, maxTrig: maxTriggersPerNode}
}

// Window returns the dump window in cycles.
func (rec *Recorder) Window() int64 { return rec.window }

// Attach chains trigger detection into r's lifecycle hook. Attach in
// node order, after any collector (hook chains run newest-first, and
// the recorder only reads the event plus the router's own counters, so
// relative order does not change what is recorded). Resetting the
// router clears the node's trigger log and counts.
func (rec *Recorder) Attach(r *router.Router) {
	n := &recNode{node: len(rec.nodes)}
	rec.nodes = append(rec.nodes, n)
	prev := r.OnLifecycle
	r.OnLifecycle = func(ev router.LifecycleEvent) {
		if kind, ok := classify(ev); ok {
			t := Trigger{
				Cycle: ev.Cycle, Node: n.node, Router: ev.Router,
				Kind: trigKindNames[kind], Conn: ev.InConn, Slack: ev.Slack,
				FreeSlots:     r.FreeSlots(),
				SchedOccupied: r.Scheduler().Occupancy(),
				InjectBacklog: r.TCInjectBacklog(),
			}
			if ev.Kind == router.EvDrop {
				t.Reason = ev.Reason.String()
			}
			n.log.push(t, rec.maxTrig)
			n.kinds[kind].Add(1)
		}
		if prev != nil {
			prev(ev)
		}
	}
	prevReset := r.OnReset
	r.OnReset = func() {
		n.log.reset()
		for i := range n.kinds {
			n.kinds[i].Store(0)
		}
		if prevReset != nil {
			prevReset()
		}
	}
}

// classify maps a lifecycle event to a trigger kind, or ok=false.
func classify(ev router.LifecycleEvent) (int, bool) {
	switch ev.Kind {
	case router.EvTransmit:
		if !ev.BE && ev.Missed {
			return trigHopMiss, true
		}
	case router.EvDeliver:
		if !ev.BE && ev.Slack < 0 {
			return trigDeadlineMiss, true
		}
	case router.EvDrop:
		switch ev.Reason {
		case metrics.DropTCCorrupt, metrics.DropTCFraming,
			metrics.DropBEAborted, metrics.DropBETruncated:
			return trigFaultDrop, true
		}
	case router.EvStall:
		if ev.Cause == router.CauseFaultRetransmit {
			return trigFaultRetransmit, true
		}
	}
	return 0, false
}

// Count returns how many triggers fired (including ones evicted from
// full per-node logs) since the last ResetStats. Safe to read
// concurrently with the run.
func (rec *Recorder) Count() int64 {
	var c int64
	for _, kind := range trigKindNames {
		c += rec.CountKind(kind)
	}
	return c
}

// CountKind returns how many triggers of the named kind fired
// (hop_miss, deadline_miss, fault_drop, fault_retransmit), evicted ones
// included; unknown names return 0. The hop_miss count moves in
// lockstep with the hardware DeadlineMisses counter — the forensics
// experiment cross-checks them.
func (rec *Recorder) CountKind(kind string) int64 {
	var c int64
	for i, name := range trigKindNames {
		if name == kind {
			for _, n := range rec.nodes {
				c += n.kinds[i].Load()
			}
		}
	}
	return c
}

// Triggers returns the retained trigger descriptors merged across
// nodes in (Cycle, Node) order — deterministic at any worker count.
func (rec *Recorder) Triggers() []Trigger {
	var out []Trigger
	for _, n := range rec.nodes {
		out = append(out, n.log.items()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		return a.Node < b.Node
	})
	return out
}

// Last returns the latest retained trigger, or ok=false when none
// fired.
func (rec *Recorder) Last() (Trigger, bool) {
	ts := rec.Triggers()
	if len(ts) == 0 {
		return Trigger{}, false
	}
	return ts[len(ts)-1], true
}

// windowEvents filters the merged timeline to the recorder's window
// ending at the last trigger: cycles [last.Cycle-window, last.Cycle].
func (rec *Recorder) windowEvents(events []Event) ([]Event, Trigger, bool) {
	last, ok := rec.Last()
	if !ok {
		return nil, Trigger{}, false
	}
	lo := last.Cycle - rec.window
	var out []Event
	for _, e := range events {
		if e.Cycle >= lo && e.Cycle <= last.Cycle {
			out = append(out, e)
		}
	}
	return out, last, true
}

// DumpChrome writes the trigger window as Chrome trace-event JSON
// (Perfetto-loadable): the merged events of the last Window cycles up
// to the final trigger, plus one instant per retained trigger in the
// window carrying its occupancy snapshot. Returns false without
// writing when no trigger fired.
func (rec *Recorder) DumpChrome(w io.Writer, c *Sharded, slo *SLO) (bool, error) {
	events, _, ok := rec.windowEvents(c.Merged())
	if !ok {
		return false, nil
	}
	return true, WriteChromeEvents(w, c.NodeNames(), events, slo)
}

// DumpJSONL writes the trigger window as JSONL: first one line per
// retained trigger in the window (objects with "trigger" kind and the
// occupancy snapshot), then the merged events of the window. Returns
// false without writing when no trigger fired.
func (rec *Recorder) DumpJSONL(w io.Writer, c *Sharded) (bool, error) {
	events, last, ok := rec.windowEvents(c.Merged())
	if !ok {
		return false, nil
	}
	for _, t := range rec.Triggers() {
		if t.Cycle < last.Cycle-rec.window || t.Cycle > last.Cycle {
			continue
		}
		if _, err := fmt.Fprintf(w,
			`{"kind":"trigger","cycle":%d,"node":%d,"router":%q,"trigger":%q,"conn":%d,"slack":%d,"reason":%q,"free_slots":%d,"sched_occupied":%d,"inject_backlog":%d}`+"\n",
			t.Cycle, t.Node, t.Router, t.Kind, t.Conn, t.Slack, t.Reason,
			t.FreeSlots, t.SchedOccupied, t.InjectBacklog); err != nil {
			return true, err
		}
	}
	return true, WriteJSONLEvents(w, events)
}

// Summary writes a one-screen human-readable digest: trigger totals by
// kind and the retained trigger log in merged order.
func (rec *Recorder) Summary(w io.Writer) {
	ts := rec.Triggers()
	byKind := make(map[string]int)
	for _, t := range ts {
		byKind[t.Kind]++
	}
	fmt.Fprintf(w, "flight recorder: %d triggers (%d retained)\n", rec.Count(), len(ts))
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "    %-18s %6d\n", k, byKind[k])
	}
	for _, t := range ts {
		extra := ""
		if t.Reason != "" {
			extra = " reason=" + t.Reason
		}
		fmt.Fprintf(w, "%10d  %-8s %-16s conn=%d slack=%d free=%d sched=%d inj=%d%s\n",
			t.Cycle, t.Router, t.Kind, t.Conn, t.Slack,
			t.FreeSlots, t.SchedOccupied, t.InjectBacklog, extra)
	}
}
