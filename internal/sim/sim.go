// Package sim provides a two-phase synchronous simulation kernel.
//
// The real-time router is synchronous hardware: every flip-flop latches on
// the same clock edge. The kernel models this with a compute/commit split.
// On each cycle every registered Component observes the *current* values of
// all Regs (the wires latched at the previous edge) and writes *next*
// values; after all components have run, every Reg commits next→current.
// Because components only communicate through Regs, evaluation order never
// changes results across component boundaries.
//
// Two exceptions are deliberate and documented where used:
//
//   - Nodes (traffic sources/sinks) talk to their local router through
//     injection and delivery queues rather than cycle-latched wires, so
//     registration order decides when a hand-over is seen. A mesh
//     registers every router first and each node's pacer and sink after
//     it: a packet the pacer releases in cycle c enters the router in
//     cycle c+1, one cycle of processor-interface latency, and a packet
//     the router delivers in cycle c is drained by the sink in cycle c.
//     This models the processor-network interface, which the paper leaves
//     outside the chip.
//   - A router's internal units run in a fixed order inside its single
//     Tick, modelling same-chip combinational paths.
package sim

import (
	"fmt"
	"runtime"
)

// Cycle is an absolute simulation cycle count. One cycle is one byte time
// on a network link (20 ns at the paper's 50 MHz).
type Cycle int64

// Component is a block of synchronous logic evaluated once per cycle.
type Component interface {
	// Name identifies the component in traces and error messages.
	Name() string
	// Tick performs the compute phase for the given cycle: read current
	// Reg values, update internal state, write next Reg values.
	Tick(now Cycle)
}

// Latchable is state that commits at the clock edge, after all components
// have ticked.
type Latchable interface {
	Commit()
}

// ResolveWorkers maps a worker-count setting to an effective count the
// way SetWorkers does: a non-positive count means one worker per
// available CPU. CLIs share this helper so "-workers=0" means the same
// thing everywhere.
func ResolveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Kernel drives a set of components cycle by cycle.
//
// By default components tick sequentially in registration order, the
// ones at rest left out on a wake list (wake.go) with results identical
// to ticking everyone every cycle. SetWorkers enables the parallel
// execution mode: components registered with RegisterShard may tick
// concurrently with components of other shards, each tile of them on its
// own wake list, while components registered with plain Register act as
// barriers (see parallel.go). A barrier keeps every component awake, so
// a kernel with one is the every-cycle loop the wake lists are tested
// against. Results are bit-identical across worker counts as long as
// components of different shards communicate only through Regs and
// Pipes.
type Kernel struct {
	entries []entry
	latches []Latchable // in AddLatch order
	now     Cycle

	workers   int
	tiling    func(shard int) int // nil = one tile per shard
	forcePool bool
	pool      *workerPool
	plan      []planSeg
	planDirty bool

	// Epoch synchronization (see epoch.go). syncDirty marks the derived
	// fields stale after any registration.
	pipes     []pipeEntry
	effEpoch  int64 // longest legal epoch, derived from wires/latches
	syncDirty bool

	// The wake lists (see wake.go): whether entries may sleep at all, the
	// sequential engine's walker, whether the entries are dealt to the
	// pool plan's tiles instead, and whether that deal is current.
	sleepOn bool
	seq     *walker
	pooled  bool
	dealt   bool
}

// entry is one registered component with its shard tag.
type entry struct {
	c     Component
	shard int // globalShard for barrier components
	// From the first refresh on: the component's Skipper view (nil if it
	// is none), its alarm and the cycle the alarm was made at. On a
	// walker's copy, whether that alarm is asleep (a set bit on a sleeper
	// is a Pipe.Write's).
	s      Skipper
	a      *Alarm
	born   Cycle
	asleep bool
}

// globalShard marks a component registered without a shard: it may
// touch any state, so in parallel mode it runs alone between batches.
const globalShard = -1

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel {
	return &Kernel{workers: 1, effEpoch: 1}
}

// Register adds a component. Components tick in registration order. In
// parallel mode an unsharded component is a barrier: every component
// registered before it finishes ticking first, and it ticks alone.
func (k *Kernel) Register(c Component) {
	if c == nil {
		panic("sim: Register(nil)")
	}
	k.entries = append(k.entries, entry{c: c, shard: globalShard})
	k.planDirty = true
	k.syncDirty = true
}

// RegisterShard adds a component to a shard. Components of the same
// shard always tick in registration order relative to each other;
// components of different shards may tick concurrently in parallel
// mode, so they must interact only through Regs and Pipes (or not at
// all). The shard key is arbitrary; meshes use the router's row-major
// index and tag each router's node-side software (pacer, sink, traffic
// sources) with its router's shard.
func (k *Kernel) RegisterShard(shard int, c Component) {
	if c == nil {
		panic("sim: RegisterShard(nil)")
	}
	if shard < 0 {
		panic(fmt.Sprintf("sim: RegisterShard(%d): shard must be non-negative", shard))
	}
	k.entries = append(k.entries, entry{c: c, shard: shard})
	k.planDirty = true
	k.syncDirty = true
}

// SetTiling installs the shard→tile map used by the parallel engine to
// group shards into coarse, cache-local work units (mesh networks map
// row-major node shards to square spatial blocks). nil restores the
// default of one tile per shard. The map must be stable: the same shard
// must yield the same tile for the lifetime of the plan.
func (k *Kernel) SetTiling(tile func(shard int) int) {
	k.tiling = tile
	k.planDirty = true
}

// AddLatch adds latched state committed at the end of every cycle.
func (k *Kernel) AddLatch(l Latchable) {
	if l == nil {
		panic("sim: AddLatch(nil)")
	}
	k.latches = append(k.latches, l)
	k.syncDirty = true
}

// Now returns the current cycle (the cycle about to be executed by Step).
func (k *Kernel) Now() Cycle { return k.now }

// Step executes one full cycle: compute phase then commit phase. The
// sequential engine runs it on its walker (wake.go): the timers due wake
// their components and the awake entries tick in registration order —
// where nobody may sleep, every entry in a plain loop — and the latches
// commit. Parallel mode runs the same cycle on the worker pool when there
// is parallelism to extract.
func (k *Kernel) Step() {
	if k.prepare() {
		k.stepPool(1)
		return
	}
	w := k.seq
	if k.sleepOn {
		w.advance(w.now+1, true)
	} else {
		for i := range w.ents {
			w.ents[i].c.Tick(w.now)
		}
		for _, l := range k.latches {
			l.Commit()
		}
		w.now++
	}
	k.now = w.now
}

// Run executes n cycles. Besides the wake lists' own savings it applies
// the two schedule optimizations that never change results: when nobody
// is awake the clock jumps to the first timer (whole-system quiescence),
// and in parallel mode epoch-length steps amortize the worker
// rendezvous over EffectiveEpoch consecutive cycles.
func (k *Kernel) Run(n int64) {
	end := k.now + Cycle(n)
	for k.now < end {
		switch {
		case k.prepare():
			k.stepPool(min(k.effEpoch, int64(end-k.now)))
		case k.sleepOn:
			k.seq.advance(end, true)
			k.now = k.seq.now
		default:
			k.Step()
		}
	}
}

// prepare brings the derived state up to date before a step — the
// epoch, the alarms, the plan and the deal of entries to walkers — and
// reports whether the step runs on the worker pool. A clean sequential
// kernel has nothing to check.
func (k *Kernel) prepare() bool {
	if k.syncDirty || !k.dealt || k.workers > 1 || k.pooled {
		k.redeal()
	}
	return k.pooled
}

func (k *Kernel) redeal() {
	k.refreshSync()
	if pool := k.usePool(); !k.dealt || pool != k.pooled {
		k.deal(pool)
	}
}

// RunUntil steps the kernel until pred returns true or the budget of
// cycles is exhausted. It reports whether pred was satisfied.
func (k *Kernel) RunUntil(pred func() bool, budget int64) bool {
	for i := int64(0); i < budget; i++ {
		if pred() {
			return true
		}
		k.Step()
	}
	return pred()
}

// Components returns the number of registered components.
func (k *Kernel) Components() int { return len(k.entries) }

// String implements fmt.Stringer for debugging.
func (k *Kernel) String() string {
	return fmt.Sprintf("sim.Kernel{cycle=%d components=%d latches=%d pipes=%d workers=%d}",
		k.now, len(k.entries), len(k.latches), len(k.pipes), k.workers)
}

// Reg is a clock-latched register of any value type. Producers write the
// next value during the compute phase; consumers read the current value.
// If no producer writes during a cycle, the register drains to the zero
// value at the edge (wire semantics: a Phit is only on the wire for the
// cycle it was driven).
type Reg[T any] struct {
	cur, next T
}

// NewReg returns a wire-semantics register (drains each cycle).
func NewReg[T any]() *Reg[T] { return &Reg[T]{} }

// Read returns the value latched at the previous clock edge.
func (r *Reg[T]) Read() T { return r.cur }

// Write drives the value to be latched at the next clock edge.
func (r *Reg[T]) Write(v T) { r.next = v }

// Commit implements Latchable. It clears next, so an edge without a
// write latches zero.
func (r *Reg[T]) Commit() {
	r.cur = r.next
	var zero T
	r.next = zero
}
