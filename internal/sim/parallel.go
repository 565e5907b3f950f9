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
//     Each tile is a walker (wake.go): it ticks only its awake
//     components, jumps where none is awake, and puts components to
//     sleep at the step boundary.
//   - Components registered with plain Register may touch anything
//     (e.g. Figure 7's service sampler reading one router's counters), so
//     they act as barriers: all workers rendezvous, worker 0 ticks the
//     component alone, and all workers rendezvous again.
//
// Per step the pool costs one dispatch: the main goroutine publishes
// the job and enters the cycle barrier, every worker ticks its own
// group, and the tick-phase join doubles as the commit dispatch — each
// worker falls directly into committing its own contiguous share of
// the latches, so the commit has no shared cursor, and then into its
// tiles' step boundary. A final join lets
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
// component or one batch of per-worker tile lists, each tile a walker
// over its components.
type planSeg struct {
	barrier Component
	groups  [][]*walker
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
	k.planDirty, k.dealt = false, false
}

// groupRun turns one run of sharded registrations into per-worker tile
// lists: shards collapse into tiles (registration order preserved
// within each tile, which subsumes the per-shard order), tiles sort by
// id so the assignment is stable and spatially contiguous, and a greedy
// contiguous deal balances component counts across the workers. Each
// tile becomes one walker (wake.go).
func (k *Kernel) groupRun(run []entry) [][]*walker {
	tileOf := k.tiling
	if tileOf == nil {
		tileOf = func(shard int) int { return shard }
	}
	type tile struct {
		id   int
		ents []entry
	}
	idx := make(map[int]int)
	var tiles []tile
	for _, e := range run {
		t := tileOf(e.shard)
		i, ok := idx[t]
		if !ok {
			i = len(tiles)
			idx[t] = i
			tiles = append(tiles, tile{id: t})
		}
		tiles[i].ents = append(tiles[i].ents, e)
	}
	sort.Slice(tiles, func(i, j int) bool { return tiles[i].id < tiles[j].id })

	n := min(k.workers, len(tiles))
	groups := make([][]*walker, 0, n)
	total := len(run)
	done := 0
	var cur []*walker
	for i := range tiles {
		t := &tiles[i]
		cur = append(cur, newWalker(t.ents))
		done += len(t.ents)
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

// napEvery is the pool's sleep-pass period: a step ends in one when it
// crosses a multiple of napEvery cycles.
const napEvery = 4

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
	p.nap = k.sleepOn && p.end/napEvery > p.now/napEvery
	p.enter.await()
	p.run(0)
	k.now = p.end
}

// cycleBarrier is a sense-reversing barrier: the last arriver of a
// generation resets the count, publishes the next generation, and wakes
// the parked. Waiters spin on the generation word for some microseconds
// (cheap on multicore, where the other side is usually less than that
// behind — the step boundary's phase included) before parking on the
// condition variable, whose wake-up costs far more on a busy host.
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
	nap      bool  // the step's boundary is a sleep pass (walker.boundary)
	now, end Cycle // the step covers cycles [now, end)
	wg       sync.WaitGroup
}

func newWorkerPool(n int) *workerPool {
	spin := 0
	if runtime.GOMAXPROCS(0) > 1 {
		spin = 4096
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
// latches — the commit has no dispatch of its own — and then into the
// step boundary of its own tiles (walker.boundary).
//
// Each tile runs [now, end) on its wake list to completion — jumping
// where nobody on it is awake — before the next tile starts. Tile-serial
// order is safe for the same reason the epoch is: anything a tile writes
// toward another lands at least a full epoch later, so within the step
// no tile can observe a sibling's progress.
func (p *workerPool) run(id int) {
	end := p.end
	for i := range p.plan {
		s := &p.plan[i]
		if s.barrier != nil {
			p.join.await()
			if id == 0 {
				s.barrier.Tick(p.now)
			}
			p.join.await()
			continue
		}
		if id < len(s.groups) {
			for _, w := range s.groups[id] {
				for w.now < end {
					w.advance(end, false)
				}
			}
		}
	}
	p.join.await()
	n := len(p.latches)
	for _, l := range p.latches[id*n/p.n : (id+1)*n/p.n] {
		l.Commit()
	}
	for i := range p.plan {
		if g := p.plan[i].groups; id < len(g) {
			for _, w := range g[id] {
				w.boundary(end, p.nap)
			}
		}
	}
	p.leave.await()
}

func (p *workerPool) stop() {
	p.stopping = true
	p.enter.await()
	p.wg.Wait()
	p.stopping = false
}
