// Package obs is the parallel-safe observability layer: sharded
// lifecycle collection, per-channel SLO accounting, and trace export.
//
// The problem it solves: a single shared Router.OnLifecycle observer
// (one event buffer for the whole mesh) races under the parallel
// two-phase kernel, which would force tracing into sequential mode. Sharded keeps one event buffer
// per mesh node instead. During the compute phase every router writes
// only its own node's shard — plain stores, no atomics, no locks — and
// the kernel's end-of-run barrier orders those writes before any merge.
// Merging interleaves the shards by (cycle, node, seq), a total order
// that depends only on what each node did and when, never on worker
// scheduling, so sequential and parallel runs of the same workload
// produce byte-identical merged traces (TestParallelEquivalence proves
// it).
//
// On top of the merged stream sit the per-channel SLO accountants
// (slo.go) and the exporters (export.go): the human-readable text dump,
// Chrome trace-event JSON for Perfetto, and a JSONL event log.
package obs

import (
	"io"
	"sort"

	"repro/internal/router"
)

// Event is one lifecycle observation tagged with its shard identity:
// Node is the shard index the emitting router was attached as (row-major
// mesh order when attached by core.NewMesh), Seq the event's position in
// that node's stream. (Cycle, Node, Seq) totally orders all events.
type Event struct {
	router.LifecycleEvent
	Node int
	Seq  uint64
}

// ring is a fixed-capacity newest-wins buffer: once full, each push
// overwrites the oldest entry. It has a single writer, the owning node's
// tick; readers run after the worker pool's barrier, which provides the
// happens-before edge.
type ring[T any] struct {
	buf  []T
	next int
}

func (r *ring[T]) push(v T, capacity int) {
	if len(r.buf) < capacity {
		r.buf = append(r.buf, v)
		r.next = len(r.buf) % capacity
	} else {
		r.buf[r.next] = v
		r.next = (r.next + 1) % capacity
	}
}

// items returns the retained entries oldest-first. While the ring is
// still filling, next == len(buf) and the rotation below degenerates to
// a plain copy; once full, next points at the oldest retained entry.
func (r *ring[T]) items() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

func (r *ring[T]) reset() {
	r.buf = r.buf[:0]
	r.next = 0
}

// shard is one node's private event buffer: a ring of its events and
// their sequence counter, which is also the count recorded, evicted
// events included.
type shard struct {
	name   string // router name, for export metadata
	events ring[Event]
	seq    uint64
}

func (s *shard) reset() {
	s.events.reset()
	s.seq = 0
}

// DefaultShardCap is the per-node buffer capacity used when the caller
// passes a non-positive value to NewSharded.
const DefaultShardCap = 4096

// Sharded is the per-node lifecycle collector. Attach one router per
// mesh node in a fixed order (core.NewMesh uses row-major coordinate
// order); each attachment owns a private fixed-capacity buffer the
// router writes without synchronization.
type Sharded struct {
	capPer int
	shards []*shard
}

// NewSharded returns a collector keeping the last capPerNode events per
// attached router (DefaultShardCap if capPerNode <= 0).
func NewSharded(capPerNode int) *Sharded {
	if capPerNode <= 0 {
		capPerNode = DefaultShardCap
	}
	return &Sharded{capPer: capPerNode}
}

// Attach gives router r the next shard and chains its lifecycle and
// reset hooks, preserving any hooks already installed. It returns the
// node index assigned to r. Attach before the simulation starts; it is
// not safe concurrently with a running kernel.
func (c *Sharded) Attach(r *router.Router) int {
	node := len(c.shards)
	s := &shard{name: r.Name()}
	c.shards = append(c.shards, s)
	prev := r.OnLifecycle
	r.OnLifecycle = func(ev router.LifecycleEvent) {
		s.events.push(Event{LifecycleEvent: ev, Node: node, Seq: s.seq}, c.capPer)
		s.seq++
		if prev != nil {
			prev(ev)
		}
	}
	prevReset := r.OnReset
	r.OnReset = func() {
		s.reset()
		if prevReset != nil {
			prevReset()
		}
	}
	return node
}

// Nodes returns the number of attached routers.
func (c *Sharded) Nodes() int { return len(c.shards) }

// NodeNames returns every attached router's name in node order.
func (c *Sharded) NodeNames() []string {
	names := make([]string, len(c.shards))
	for i, s := range c.shards {
		names[i] = s.name
	}
	return names
}

// Cap returns the per-node buffer capacity.
func (c *Sharded) Cap() int { return c.capPer }

// Total returns how many events were recorded overall, including ones
// evicted from full shards.
func (c *Sharded) Total() int64 {
	var n int64
	for _, s := range c.shards {
		n += int64(s.seq)
	}
	return n
}

// Dropped returns how many recorded events were evicted.
func (c *Sharded) Dropped() int64 {
	var n int64
	for _, s := range c.shards {
		n += int64(s.seq) - int64(len(s.events.buf))
	}
	return n
}

// Reset discards every shard's retained events and sequence counters.
// Router.ResetStats reaches it through the OnReset chain, so a warmup
// reset rotates the collector together with the hardware counters.
func (c *Sharded) Reset() {
	for _, s := range c.shards {
		s.reset()
	}
}

// Merged returns the retained events of every shard interleaved into
// the deterministic total order (Cycle, Node, Seq). Cycle refines the
// slot clock (one slot is many cycles), node index breaks same-cycle
// ties between routers, and Seq orders one node's events within a
// cycle — none of the three depends on worker scheduling.
func (c *Sharded) Merged() []Event {
	var out []Event
	for _, s := range c.shards {
		out = append(out, s.events.items()...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Seq < b.Seq
	})
	return out
}

// Dump writes the merged timeline in the standard human-readable trace
// format. The output is byte-identical across worker counts.
func (c *Sharded) Dump(w io.Writer) {
	WriteText(w, c.Merged())
}

// DumpTail writes only the last n merged events (all of them when n <= 0
// or n exceeds the retained count).
func (c *Sharded) DumpTail(w io.Writer, n int) {
	ev := c.Merged()
	if n > 0 && n < len(ev) {
		ev = ev[len(ev)-n:]
	}
	WriteText(w, ev)
}
