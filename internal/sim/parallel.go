package sim

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Parallel execution mode.
//
// The compute/commit split already guarantees that evaluation order
// never changes results across component boundaries, as long as
// components communicate only through Regs and Pipes: every Tick reads
// values latched at an earlier edge and writes values readable at a
// later one. The parallel mode exploits exactly that property.
//
// The engine compiles the registration list into a plan once (rebuilt
// lazily when registrations, tiling, or the worker count change):
//
//   - Maximal runs of sharded components become parallel segments.
//     Within a segment, shards are grouped into tiles (SetTiling; a mesh
//     maps node shards to square spatial blocks), tiles are sorted and
//     dealt out contiguously to the workers balanced by component count,
//     so the plan has ~workers coarse, cache-local groups rather than
//     ~shards small ones, and the tile→worker assignment is stable.
//   - Components registered with plain Register may touch anything
//     (e.g. a telemetry sampler reading every router's counters), so
//     they act as barriers: all workers rendezvous, worker 0 ticks the
//     component alone, and all workers rendezvous again.
//
// Per step the pool costs one dispatch: the main goroutine publishes
// the job and enters the cycle barrier, every worker ticks its own
// group, and the tick-phase join doubles as the commit dispatch — each
// worker falls directly into committing its own contiguous share of
// the latches, so the commit has no shared cursor. A final join lets
// Step return only after all state has committed, keeping between-step
// reads (RunUntil predicates, stats scrapes) safe. The barriers are
// sense-reversing atomics that spin briefly before parking, so a step
// costs a handful of atomic operations rather than a channel broadcast
// and a WaitGroup rendezvous per phase.
//
// When the process has a single CPU (or the plan a single worker
// group), the pool cannot help, so Step runs the sequential cycle on
// the calling goroutine. ForcePool overrides this for tests that need
// the real rendezvous path exercised under the race detector.

// SetWorkers selects the execution mode: n <= 1 is the sequential mode
// (the default), n > 1 ticks shards on n workers (the caller counts as
// one). n <= 0 picks GOMAXPROCS. Changing the count mid-run is allowed
// between Steps; the resident pool is resized lazily.
func (k *Kernel) SetWorkers(n int) {
	n = ResolveWorkers(n)
	if n == k.workers {
		return
	}
	k.stopPool()
	k.workers = n
	k.planDirty = true
}

// Workers returns the configured worker count (1 = sequential).
func (k *Kernel) Workers() int { return k.workers }

// ForcePool makes the parallel mode always run on the resident worker
// pool, even where the engine would normally fall back to the
// sequential cycle (single-CPU processes, single-group plans). It exists so tests
// can exercise the rendezvous machinery under the race detector on any
// machine; simulations have no reason to set it.
func (k *Kernel) ForcePool(on bool) { k.forcePool = on }

// Close releases the resident worker goroutines and returns the kernel
// to sequential mode, in which it remains usable; SetWorkers re-enables
// parallel mode. Callers that enable parallel mode on short-lived
// kernels — benchmarks, sweeps — should Close them.
func (k *Kernel) Close() {
	k.stopPool()
	if k.workers != 1 {
		k.workers = 1
		k.planDirty = true
	}
}

func (k *Kernel) stopPool() {
	if k.pool != nil {
		k.pool.stop()
		k.pool = nil
	}
}

// planSeg is one step of the parallel schedule: either one barrier
// component or one batch of per-worker tile lists.
type planSeg struct {
	barrier Component
	groups  [][]planTile
}

// planTile is one spatial tile of one worker's share: its components in
// tick order, plus what the per-tile skip of a multi-cycle step needs —
// the components' Skipper views (nil when any component cannot skip)
// and the pipes whose reader lives in this tile.
type planTile struct {
	comps    []Component
	skippers []Skipper
	pipes    []PipeState
}

// trySkip fast-forwards one tile across a whole step when every
// component in it is idle past end and no inbound wire delivers before
// then. The pipe probe touches only ring slots in [now, end), which the
// epoch legality bound keeps disjoint from any concurrent writer's.
func (t *planTile) trySkip(now, end Cycle) bool {
	if t.skippers == nil {
		return false
	}
	for _, s := range t.skippers {
		if s.NextWork(now) < end {
			return false
		}
	}
	for _, p := range t.pipes {
		if p.HasStampIn(now, end) {
			return false
		}
	}
	for _, s := range t.skippers {
		s.Skip(now, end)
	}
	return true
}

// buildPlan compiles the registration list into the segment schedule.
func (k *Kernel) buildPlan() {
	k.plan = k.plan[:0]
	var run []entry
	flush := func() {
		if len(run) > 0 {
			k.plan = append(k.plan, planSeg{groups: k.groupRun(run)})
			run = run[:0]
		}
	}
	for _, e := range k.entries {
		if e.shard == globalShard {
			flush()
			k.plan = append(k.plan, planSeg{barrier: e.c})
			continue
		}
		run = append(run, e)
	}
	flush()
	k.planDirty = false
}

// groupRun turns one run of sharded registrations into per-worker tile
// lists: shards collapse into tiles (registration order preserved
// within each tile, which subsumes the per-shard order), tiles sort by
// id so the assignment is stable and spatially contiguous, and a greedy
// contiguous deal balances component counts across the workers. Each
// tile also learns its Skipper roster and inbound pipes, which is what
// the per-tile quiescence skip consults. A pipe with an unknown reader
// belongs to no tile, but it also pins the epoch to 1 (legalEpoch), and
// tiles only skip inside longer steps.
func (k *Kernel) groupRun(run []entry) [][]planTile {
	tileOf := func(shard int) int {
		if k.tiling != nil {
			return k.tiling(shard)
		}
		return shard
	}
	type tile struct {
		id     int
		shards map[int]bool
		comps  []Component
	}
	idx := make(map[int]int)
	var tiles []tile
	for _, e := range run {
		t := tileOf(e.shard)
		i, ok := idx[t]
		if !ok {
			i = len(tiles)
			idx[t] = i
			tiles = append(tiles, tile{id: t, shards: make(map[int]bool)})
		}
		tiles[i].comps = append(tiles[i].comps, e.c)
		tiles[i].shards[e.shard] = true
	}
	sort.Slice(tiles, func(i, j int) bool { return tiles[i].id < tiles[j].id })

	build := func(t *tile) planTile {
		pt := planTile{comps: t.comps}
		skippers := make([]Skipper, 0, len(t.comps))
		for _, c := range t.comps {
			s, ok := c.(Skipper)
			if !ok {
				return pt
			}
			skippers = append(skippers, s)
		}
		pt.skippers = skippers
		for _, pe := range k.pipes {
			if t.shards[pe.reader] {
				pt.pipes = append(pt.pipes, pe.p)
			}
		}
		return pt
	}

	n := k.workers
	if n > len(tiles) {
		n = len(tiles)
	}
	groups := make([][]planTile, 0, n)
	total := len(run)
	done := 0
	var cur []planTile
	for i := range tiles {
		t := &tiles[i]
		cur = append(cur, build(t))
		done += len(t.comps)
		if len(groups) < n-1 && done >= (len(groups)+1)*total/n {
			groups = append(groups, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups
}

// usePool reports whether the next step runs on the worker pool:
// parallel mode is on and — unless ForcePool insists — the process has a
// second CPU and the plan a second worker group to put on it.
func (k *Kernel) usePool() bool {
	if k.workers == 1 || (!k.forcePool && runtime.GOMAXPROCS(0) == 1) {
		return false
	}
	if k.planDirty {
		k.buildPlan()
	}
	return k.forcePool || !k.singleGroup()
}

// singleGroup reports a plan with no parallelism to extract: no segment
// has more than one worker group.
func (k *Kernel) singleGroup() bool {
	for i := range k.plan {
		if len(k.plan[i].groups) > 1 {
			return false
		}
	}
	return true
}

// stepPool executes e consecutive cycles of the compiled plan with a
// single worker rendezvous. Callers guarantee e ≤ EffectiveEpoch, so
// e > 1 implies the plan has no barrier segments and the kernel no
// latches: the step needs no mid-epoch synchronization, and its one
// commit phase is empty.
func (k *Kernel) stepPool(e int64) {
	if k.pool == nil {
		k.pool = newWorkerPool(k.workers)
	}
	p := k.pool
	p.plan, p.latches, p.now, p.end = k.plan, k.latches, k.now, k.now+Cycle(e)
	p.enter.await()
	p.run(0)
	k.now = p.end
}

// cycleBarrier is a sense-reversing barrier: the last arriver of a
// generation resets the count, publishes the next generation, and wakes
// the parked. Waiters spin briefly on the generation word (cheap on
// multicore, where the other side is at most a few hundred nanoseconds
// behind) before parking on the condition variable.
type cycleBarrier struct {
	n       int32
	spin    int
	arrived atomic.Int32
	gen     atomic.Uint32
	mu      sync.Mutex
	cond    *sync.Cond
}

func newCycleBarrier(n, spin int) *cycleBarrier {
	b := &cycleBarrier{n: int32(n), spin: spin}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *cycleBarrier) await() {
	g := b.gen.Load()
	if b.arrived.Add(1) == b.n {
		b.arrived.Store(0)
		// The generation flips under the mutex so a waiter past its spin
		// phase cannot miss the broadcast between its check and its park.
		b.mu.Lock()
		b.gen.Store(g + 1)
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for i := 0; i < b.spin; i++ {
		if b.gen.Load() != g {
			return
		}
		if i&63 == 63 {
			runtime.Gosched()
		}
	}
	b.mu.Lock()
	for b.gen.Load() == g {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// workerPool is the resident goroutine team. The job fields are written
// by the main goroutine before it enters the cycle barrier and read by
// the workers after they leave it; the barrier's atomics order the
// accesses.
type workerPool struct {
	n int

	// enter releases a step (workers park here between steps), join
	// synchronizes phases within it, and leave ends it. All three have
	// every worker plus the main goroutine as participants.
	enter, join, leave *cycleBarrier

	stopping bool
	plan     []planSeg
	latches  []Latchable
	now, end Cycle // the step covers cycles [now, end)
	wg       sync.WaitGroup
}

func newWorkerPool(n int) *workerPool {
	spin := 0
	if runtime.GOMAXPROCS(0) > 1 {
		spin = 256
	}
	p := &workerPool{
		n:     n,
		enter: newCycleBarrier(n, spin),
		join:  newCycleBarrier(n, spin),
		leave: newCycleBarrier(n, spin),
	}
	p.wg.Add(p.n - 1)
	for w := 1; w < p.n; w++ {
		go p.workerLoop(w)
	}
	return p
}

func (p *workerPool) workerLoop(id int) {
	defer p.wg.Done()
	for {
		p.enter.await()
		if p.stopping {
			return
		}
		p.run(id)
	}
}

// run is one worker's share of one step. Every worker executes the same
// await sequence (the plan is shared), so the barriers stay balanced:
// around each barrier component all workers rendezvous twice, and the
// tick-phase join flows straight into each worker's own share of the
// latches — the commit has no dispatch of its own.
//
// Each tile runs [now, end) to completion — or, in a multi-cycle step,
// skips the whole span when quiescent — before the next tile starts.
// Tile-serial order is safe for the same reason the epoch is: anything
// a tile writes toward another lands at least a full epoch later, so
// within the step no tile can observe a sibling's progress.
func (p *workerPool) run(id int) {
	now, end := p.now, p.end
	for i := range p.plan {
		s := &p.plan[i]
		if s.barrier != nil {
			p.join.await()
			if id == 0 {
				s.barrier.Tick(now)
			}
			p.join.await()
			continue
		}
		if id >= len(s.groups) {
			continue
		}
		for ti := range s.groups[id] {
			t := &s.groups[id][ti]
			if end-now > 1 && t.trySkip(now, end) {
				continue
			}
			for c := now; c < end; c++ {
				for _, comp := range t.comps {
					comp.Tick(c)
				}
			}
		}
	}
	p.join.await()
	n := len(p.latches)
	for _, l := range p.latches[id*n/p.n : (id+1)*n/p.n] {
		l.Commit()
	}
	p.leave.await()
}

func (p *workerPool) stop() {
	p.stopping = true
	p.enter.await()
	p.wg.Wait()
	p.stopping = false
}
