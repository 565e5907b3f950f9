package sim

import (
	"sync/atomic"
	"testing"
)

// TestForcePoolMatchesSequential forces the rendezvous worker pool on
// (bypassing the single-CPU sequential fallback) and requires the
// Reg-coupled ring to reproduce the sequential history bit for bit.
func TestForcePoolMatchesSequential(t *testing.T) {
	const n, cycles = 13, 200
	seq := NewKernel()
	seqStages := buildRing(seq, n)
	seq.Run(cycles)

	par := NewKernel()
	parStages := buildRing(par, n)
	par.SetWorkers(4)
	par.ForcePool(true)
	defer par.Close()
	par.Run(cycles)

	for i := range seqStages {
		s, p := seqStages[i].seen, parStages[i].seen
		if len(s) != len(p) {
			t.Fatalf("stage %d: %d vs %d observations", i, len(s), len(p))
		}
		for c := range s {
			if s[c] != p[c] {
				t.Fatalf("stage %d cycle %d: sequential saw %d, pooled saw %d", i, c, s[c], p[c])
			}
		}
	}
}

// TestForcePoolBarrier is TestParallelBarrier on the real pooled path:
// a cross-shard barrier component still sees every earlier shard done
// and no later shard started.
func TestForcePoolBarrier(t *testing.T) {
	k := NewKernel()
	k.SetWorkers(4)
	k.ForcePool(true)
	defer k.Close()
	var before, after atomic.Int64
	for s := 0; s < 8; s++ {
		k.RegisterShard(s, &funcComp{"pre", func(Cycle) { before.Add(1) }})
	}
	var seenBefore, seenAfter []int64
	k.Register(&funcComp{"barrier", func(Cycle) {
		seenBefore = append(seenBefore, before.Load())
		seenAfter = append(seenAfter, after.Load())
	}})
	for s := 0; s < 8; s++ {
		k.RegisterShard(s, &funcComp{"post", func(Cycle) { after.Add(1) }})
	}
	const cycles = 20
	k.Run(cycles)
	for c := 0; c < cycles; c++ {
		if seenBefore[c] != int64(8*(c+1)) {
			t.Errorf("cycle %d: barrier saw %d pre-ticks, want %d", c, seenBefore[c], 8*(c+1))
		}
		if seenAfter[c] != int64(8*c) {
			t.Errorf("cycle %d: barrier saw %d post-ticks, want %d", c, seenAfter[c], 8*c)
		}
	}
}

// TestForcePoolCommit checks the per-worker latch shares commit every
// Reg exactly once per cycle when the pooled path runs for real.
func TestForcePoolCommit(t *testing.T) {
	k := NewKernel()
	k.SetWorkers(4)
	k.ForcePool(true)
	defer k.Close()
	regs := make([]*Reg[int], 37) // not a multiple of the worker count
	for i := range regs {
		regs[i] = NewSticky[int]()
		k.AddLatch(regs[i])
	}
	k.RegisterShard(0, &funcComp{"w", func(now Cycle) {
		for _, r := range regs {
			r.Write(int(now) + 1)
		}
	}})
	k.Run(3)
	for i, r := range regs {
		if got := r.Read(); got != 3 {
			t.Fatalf("reg %d = %d after 3 cycles, want 3", i, got)
		}
	}
}

// TestTiledPlanGroups checks the tiled sharding directly: shards map
// through the tiling into spatial tiles, tiles are walked in id order,
// and each worker group holds whole tiles with in-shard registration
// order preserved.
func TestTiledPlanGroups(t *testing.T) {
	k := NewKernel()
	k.SetWorkers(2)
	defer k.Close()
	comps := make([]*counter, 8)
	for i := range comps {
		comps[i] = &counter{name: "c"}
		k.RegisterShard(i, comps[i])
	}
	// Reverse the spatial order: shards 4..7 are tile 0, shards 0..3 are
	// tile 1, so grouping must follow tile ids rather than shard ids.
	k.SetTiling(func(shard int) int { return (7 - shard) / 4 })
	k.buildPlan()
	if len(k.plan) != 1 {
		t.Fatalf("plan has %d segments, want 1", len(k.plan))
	}
	groups := k.plan[0].groups
	if len(groups) != 2 {
		t.Fatalf("plan has %d groups, want 2", len(groups))
	}
	wantGroups := [][]int{{4, 5, 6, 7}, {0, 1, 2, 3}}
	for g, want := range wantGroups {
		var flat []Component
		for _, tl := range groups[g] {
			flat = append(flat, tl.comps...)
		}
		if len(flat) != len(want) {
			t.Fatalf("group %d has %d components, want %d", g, len(flat), len(want))
		}
		for i, shard := range want {
			if flat[i] != comps[shard] {
				t.Errorf("group %d slot %d is not shard %d's component", g, i, shard)
			}
		}
	}
}

// TestTilingEquivalence: the tiling only regroups work — the ring's
// observed history is bit-identical for every tile choice, with and
// without ForcePool.
func TestTilingEquivalence(t *testing.T) {
	const n, cycles = 13, 150
	ref := NewKernel()
	refStages := buildRing(ref, n)
	ref.Run(cycles)

	for _, tile := range []int{1, 2, 4} {
		for _, pool := range []bool{false, true} {
			k := NewKernel()
			stages := buildRing(k, n)
			k.SetTiling(func(shard int) int { return shard / tile })
			k.SetWorkers(3)
			k.ForcePool(pool)
			k.Run(cycles)
			k.Close()
			for i := range refStages {
				s, p := refStages[i].seen, stages[i].seen
				if len(s) != len(p) {
					t.Fatalf("tile %d pool=%v stage %d: %d vs %d observations", tile, pool, i, len(s), len(p))
				}
				for c := range s {
					if s[c] != p[c] {
						t.Fatalf("tile %d pool=%v stage %d cycle %d: want %d, got %d", tile, pool, i, c, s[c], p[c])
					}
				}
			}
		}
	}
}

// TestDirtyLatchCommit drives a wire and a sticky Reg through
// write/no-write cycles in the sequential and the pooled mode and checks
// the documented Reg semantics: wires drain to zero one cycle after
// their last write, stickies hold, and untouched latches stay untouched.
func TestDirtyLatchCommit(t *testing.T) {
	type mode struct {
		name    string
		workers int
		pool    bool
	}
	for _, m := range []mode{{"seq", 1, false}, {"pooled", 2, true}} {
		t.Run(m.name, func(t *testing.T) {
			k := NewKernel()
			wire := NewReg[int]()
			sticky := NewSticky[int]()
			k.AddLatch(wire)
			k.AddLatch(sticky)
			k.RegisterShard(0, &funcComp{"w", func(now Cycle) {
				if now%2 == 0 { // write on even cycles only
					wire.Write(int(now) + 10)
					sticky.Write(int(now) + 10)
				}
			}})
			k.SetWorkers(m.workers)
			k.ForcePool(m.pool)
			defer k.Close()
			for c := 0; c < 8; c++ {
				k.Step()
				wantWire := 0
				if c%2 == 0 {
					wantWire = c + 10 // written this cycle, visible now
				}
				wantSticky := c + 10
				if c%2 == 1 {
					wantSticky = c - 1 + 10 // holds the last even-cycle write
				}
				if got := wire.Read(); got != wantWire {
					t.Fatalf("cycle %d: wire = %d, want %d", c, got, wantWire)
				}
				if got := sticky.Read(); got != wantSticky {
					t.Fatalf("cycle %d: sticky = %d, want %d", c, got, wantSticky)
				}
			}
		})
	}
}

// TestRegCommitIdempotentWhenClean: once a Reg has drained, further
// commits change nothing a reader can see.
func TestRegCommitIdempotentWhenClean(t *testing.T) {
	wire := NewReg[int]()
	wire.Write(5)
	wire.Commit()
	if got := wire.Read(); got != 5 {
		t.Fatalf("after write+commit: %d, want 5", got)
	}
	wire.Commit() // drain edge
	if got := wire.Read(); got != 0 {
		t.Fatalf("after drain: %d, want 0", got)
	}
	for i := 0; i < 3; i++ {
		wire.Commit() // clean: must stay zero
	}
	if got := wire.Read(); got != 0 {
		t.Fatalf("clean wire moved to %d", got)
	}

	sticky := NewSticky[int]()
	sticky.Write(7)
	sticky.Commit()
	for i := 0; i < 3; i++ {
		sticky.Commit()
	}
	if got := sticky.Read(); got != 7 {
		t.Fatalf("clean sticky = %d, want 7", got)
	}
	sticky.Write(0) // an explicit zero write is a real write
	sticky.Commit()
	if got := sticky.Read(); got != 0 {
		t.Fatalf("sticky after zero write = %d, want 0", got)
	}
}
