package obs

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// AuditRecord is one admission-plane decision: an admit, teardown,
// restore, or reroute, successful or refused, with the channel's
// contract, route, and margins — or the typed explanation of why it was
// turned away.
type AuditRecord struct {
	// Seq is the global decision sequence number: admission runs
	// host-side (sequentially, outside the cycle kernel), so Seq totals
	// all decisions in the order they were made.
	Seq uint64
	// Node is the shard index of the deciding channel's source node;
	// NodeSeq the record's position within that shard.
	Node    int
	NodeSeq uint64
	// Op is the control-plane verb: "admit", "teardown", "restore", or
	// "reroute". Outcome is its result: "admitted", "rejected",
	// "released", "restored", "rerouted", or "refused".
	Op      string
	Outcome string
	// Channel is the channel id, -1 when no channel was created.
	Channel int
	// Src and Dst are the endpoints; Spec the rendered traffic contract.
	Src, Dst, Spec string
	// Route is the hop-by-hop route with output ports; LocalD the
	// uniform per-hop delay split d_j; Hops the tree size. DSplit is
	// the rendered non-uniform split ("5+7+5") for layout-admitted
	// channels and replaces LocalD in the rendered line when set.
	Route  string
	LocalD int64
	DSplit string
	Hops   int
	// Margin is the admission margin in slots (min EDF headroom across
	// every link the test checked, candidate included) for successful
	// decisions, or the signed failure margin for refusals.
	Margin float64
	// Binding names the resource that refused the channel and Test the
	// failed admission test; Router the router that refused it (always
	// set on controller refusals); Err carries the rejection message.
	Binding, Test, Router, Err string
}

// String renders the record as one fixed-format line. The format is
// part of the byte-identity contract: identical decisions render
// identically regardless of worker count.
func (r AuditRecord) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d n%d.%d %s", r.Seq, r.Node, r.NodeSeq, r.Op)
	if r.Channel >= 0 {
		fmt.Fprintf(&b, " ch%d", r.Channel)
	}
	fmt.Fprintf(&b, " %s %s->%s", r.Outcome, r.Src, r.Dst)
	if r.Spec != "" {
		b.WriteByte(' ')
		b.WriteString(r.Spec)
	}
	if r.Route != "" {
		if r.DSplit != "" {
			fmt.Fprintf(&b, " d=[%s] hops=%d route=%s", r.DSplit, r.Hops, r.Route)
		} else {
			fmt.Fprintf(&b, " d=%d hops=%d route=%s", r.LocalD, r.Hops, r.Route)
		}
	}
	fmt.Fprintf(&b, " margin=%+g", r.Margin)
	if r.Binding != "" {
		fmt.Fprintf(&b, " binding=%s test=%s", r.Binding, r.Test)
		if r.Router != "" {
			fmt.Fprintf(&b, " router=%s", r.Router)
		}
	}
	if r.Err != "" {
		fmt.Fprintf(&b, " err=%q", r.Err)
	}
	return b.String()
}

// AuditLog collects admission-plane decisions in the order they were
// made. Each record keeps the shard index of its channel's source node
// and its position among that node's records, so audits slice the same
// way traces and SLO accounts do. Admission decisions are made host-side
// between kernel runs — never from worker goroutines — so recording
// needs no synchronization and the log is byte-identical at any worker
// count by construction.
type AuditLog struct {
	recs    []AuditRecord
	nodeSeq map[int]uint64
}

// NewAuditLog returns an empty audit log.
func NewAuditLog() *AuditLog {
	return &AuditLog{nodeSeq: make(map[int]uint64)}
}

// Record appends one decision made for node, stamping the global and
// per-node sequence numbers.
func (l *AuditLog) Record(node int, rec AuditRecord) {
	rec.Seq = uint64(len(l.recs))
	rec.Node = node
	rec.NodeSeq = l.nodeSeq[node]
	l.nodeSeq[node]++
	l.recs = append(l.recs, rec)
}

// Len returns the total number of recorded decisions.
func (l *AuditLog) Len() int {
	return len(l.recs)
}

// Merged returns a copy of every record in the global decision order.
func (l *AuditLog) Merged() []AuditRecord {
	return slices.Clone(l.recs)
}

// Dump writes the log one line per record.
func (l *AuditLog) Dump(w io.Writer) error {
	for _, r := range l.recs {
		if _, err := fmt.Fprintln(w, r.String()); err != nil {
			return err
		}
	}
	return nil
}

// DumpHash returns an FNV-1a digest over the log's rendered
// lines — a cheap fingerprint for the byte-identity gates, which compare
// whole 100k-decision logs across worker counts without holding two
// multi-megabyte dumps.
func (l *AuditLog) DumpHash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, r := range l.recs {
		for _, b := range []byte(r.String()) {
			h ^= uint64(b)
			h *= prime64
		}
		h ^= uint64('\n')
		h *= prime64
	}
	return h
}

// Reset discards all records and restarts the sequence numbering.
func (l *AuditLog) Reset() {
	l.recs = nil
	clear(l.nodeSeq)
}
