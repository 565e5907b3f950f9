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
//     injection and delivery queues rather than cycle-latched wires; nodes
//     are registered before routers so a packet handed over in cycle c is
//     visible to the router in cycle c. This models the processor-network
//     interface, which the paper leaves outside the chip.
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
// By default every component ticks sequentially in registration order —
// the deliberately simple reference implementation that the parallel
// engine is differentially tested against. SetWorkers enables the
// parallel execution mode: components registered with RegisterShard may
// tick concurrently with components of other shards, while components
// registered with plain Register act as barriers (see parallel.go).
// Results are bit-identical across worker counts as long as components
// of different shards communicate only through Regs and Pipes.
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

	// Epoch synchronization and quiescence skipping (see epoch.go).
	// syncDirty marks the derived fields stale after any registration.
	pipes     []pipeEntry
	effEpoch  int64 // longest legal epoch, derived from wires/latches
	skipOK    bool  // every component is a Skipper and no latches exist
	skippers  []Skipper
	skipBlock int // index of the most recent skip-blocking component
	syncDirty bool
}

// entry is one registered component with its shard tag.
type entry struct {
	c     Component
	shard int // globalShard for barrier components
}

// globalShard marks a component registered without a shard: it may
// touch any state, so in parallel mode it runs alone between batches.
const globalShard = -1

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel {
	return &Kernel{workers: 1, effEpoch: 1, skipBlock: -1}
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
// loop below is the sequential reference; parallel mode runs the same
// cycle on the worker pool when there is parallelism to extract.
func (k *Kernel) Step() {
	if k.usePool() {
		k.stepPool(1)
		return
	}
	for _, e := range k.entries {
		e.c.Tick(k.now)
	}
	for _, l := range k.latches {
		l.Commit()
	}
	k.now++
}

// Run executes n cycles. Between cycles it applies the two schedule
// optimizations that never change results: whole-system quiescence
// skips (when every component is a Skipper with no pending work) and,
// in parallel mode, epoch-length steps that amortize the worker
// rendezvous over EffectiveEpoch consecutive cycles.
func (k *Kernel) Run(n int64) {
	end := k.now + Cycle(n)
	for k.now < end {
		k.refreshSync()
		if k.trySkipTo(end) {
			continue
		}
		if e := min(k.effEpoch, int64(end-k.now)); e > 1 && k.usePool() {
			k.stepPool(e)
		} else {
			k.Step()
		}
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
	return fmt.Sprintf("sim.Kernel{cycle=%d components=%d latches=%d workers=%d}",
		k.now, len(k.entries), len(k.latches), k.workers)
}

// Reg is a clock-latched register of any value type. Producers write the
// next value during the compute phase; consumers read the current value.
// If no producer writes during a cycle, the register drains to the zero
// value at the edge (wire semantics: a Phit is only on the wire for the
// cycle it was driven).
type Reg[T any] struct {
	cur, next T
	sticky    bool // if true, hold value until overwritten (latch semantics)
}

// NewReg returns a wire-semantics register (drains each cycle).
func NewReg[T any]() *Reg[T] { return &Reg[T]{} }

// NewSticky returns a latch-semantics register (holds last written value).
func NewSticky[T any]() *Reg[T] { return &Reg[T]{sticky: true} }

// Read returns the value latched at the previous clock edge.
func (r *Reg[T]) Read() T { return r.cur }

// Write drives the value to be latched at the next clock edge.
func (r *Reg[T]) Write(v T) { r.next = v }

// Commit implements Latchable. A sticky register keeps next, so an edge
// without a write re-latches the held value; a wire clears it, so an
// edge without a write latches zero.
func (r *Reg[T]) Commit() {
	r.cur = r.next
	if !r.sticky {
		var zero T
		r.next = zero
	}
}
