package sim

import "testing"

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
			for _, e := range tl.ents {
				flat = append(flat, e.c)
			}
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

// latch is a test-local Latchable with latch semantics: it holds the
// last written value until overwritten, where a Reg drains to zero.
type latch[T any] struct{ cur, next T }

func (l *latch[T]) Read() T   { return l.cur }
func (l *latch[T]) Write(v T) { l.next = v }
func (l *latch[T]) Commit()   { l.cur = l.next }

// TestDirtyLatchCommit drives a wire Reg and a latch through
// write/no-write cycles in the sequential and the pooled mode and checks
// that the kernel commits both every cycle: the wire drains to zero one
// cycle after its last write, the latch holds.
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
			held := &latch[int]{}
			k.AddLatch(wire)
			k.AddLatch(held)
			k.RegisterShard(0, &funcComp{"w", func(now Cycle) {
				if now%2 == 0 { // write on even cycles only
					wire.Write(int(now) + 10)
					held.Write(int(now) + 10)
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
				wantHeld := c + 10
				if c%2 == 1 {
					wantHeld = c - 1 + 10 // holds the last even-cycle write
				}
				if got := wire.Read(); got != wantWire {
					t.Fatalf("cycle %d: wire = %d, want %d", c, got, wantWire)
				}
				if got := held.Read(); got != wantHeld {
					t.Fatalf("cycle %d: latch = %d, want %d", c, got, wantHeld)
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
}
