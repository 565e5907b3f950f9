package sched

import (
	"math/rand"
	"testing"

	"repro/internal/timing"
)

// Tournament is a structural model of the hardware comparator tree of
// Figure 5, kept as a test oracle. Where EDFTree walks per-port bitmaps,
// Tournament materializes every pairwise comparator, so the equivalence
// of the two reductions can be property-tested and CostModel's
// comparator count checked against the comparisons actually evaluated.
type Tournament struct {
	leafStore
	wheel  timing.Wheel
	levels int

	// CompareOps counts comparator evaluations across all Select calls,
	// the unit of the chip's scheduling-logic activity.
	CompareOps int64
	// Selects counts Select invocations (arbitration beats).
	Selects int64
}

// NewTournament returns a structural tree over the given number of leaf
// slots (rounded up internally to a power of two, as the hardware would).
func NewTournament(slots int, wheel timing.Wheel) *Tournament {
	return &Tournament{
		leafStore: leafStore{leaves: make([]Leaf, slots)},
		wheel:     wheel,
		levels:    treeLevels(slots),
	}
}

// Select runs the tournament reduction level by level, exactly as the
// pipelined hardware rows of comparators would, and applies the
// top-of-tree horizon check.
func (t *Tournament) Select(port int, now timing.Stamp, horizon uint32) Selection {
	t.Selects++
	type entry struct {
		slot int
		key  timing.Key
	}
	n := len(t.leaves)
	round := 1 << t.levels
	cur := make([]entry, round)
	inel := t.wheel.KeyIneligible()
	for i := 0; i < round; i++ {
		if i >= n || !t.owes(i, port) {
			cur[i] = entry{slot: -1, key: inel}
			continue
		}
		lf := &t.leaves[i]
		k, _, _ := t.wheel.SortKey(lf.L, lf.Dl, now)
		cur[i] = entry{slot: i, key: k}
	}
	for len(cur) > 1 {
		next := make([]entry, len(cur)/2)
		for i := range next {
			a, b := cur[2*i], cur[2*i+1]
			t.CompareOps++
			// Unsigned compare; ties go to the lower index (a).
			if b.key < a.key {
				next[i] = b
			} else {
				next[i] = a
			}
		}
		cur = next
	}
	win := cur[0]
	if win.slot < 0 || win.key == inel {
		return Selection{Slot: -1, Class: ClassNone, Key: inel}
	}
	sel := Selection{Slot: win.slot, Key: win.key, Class: ClassOnTime}
	if t.wheel.IsEarlyKey(win.key) {
		if !t.wheel.WithinHorizon(win.key, horizon) {
			return Selection{Slot: -1, Class: ClassNone, Key: win.key}
		}
		sel.Class = ClassEarly
	}
	return sel
}

// SkipIdleSelects is EDFTree's: the tournament runs its full
// reduction even over an empty tree, so each skipped beat accounts one
// Select and 2^levels−1 comparator evaluations.
func (t *Tournament) SkipIdleSelects(n int64) {
	t.Selects += n
	t.CompareOps += n * int64(1<<t.levels-1)
}

// Levels returns the number of comparator rows in the tree.
func (t *Tournament) Levels() int { return t.levels }

func TestTournamentMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		tr := NewEDFTree(n, wheel8)
		tm := NewTournament(n, wheel8)
		base := rng.Int63n(100000)
		for slot := 0; slot < n; slot++ {
			if rng.Intn(3) == 0 {
				continue
			}
			off := int64(rng.Intn(100)) - 50
			d := int64(rng.Intn(60)) + 1
			lf := Leaf{
				L:    wheel8.Wrap(timing.Slot(base + off)),
				Dl:   wheel8.Wrap(timing.Slot(base + off + d)),
				Mask: PortMask(rng.Intn(31) + 1),
			}
			must(t, tr.Install(slot, lf))
			must(t, tm.Install(slot, lf))
		}
		now := wheel8.Wrap(timing.Slot(base))
		for port := 0; port < NumPorts; port++ {
			for _, h := range []uint32{0, 3, 10, 127} {
				a := tr.Select(port, now, h)
				b := tm.Select(port, now, h)
				if a.Slot != b.Slot || a.Class != b.Class {
					t.Fatalf("trial %d port %d h=%d: scan=%+v tournament=%+v",
						trial, port, h, a, b)
				}
			}
		}
	}
}

// TestTournamentCompareOps checks the structural tree evaluates exactly
// the comparators CostModel counts for the paper's 256-leaf chip, and
// that SkipIdleSelects accounts the same per beat.
func TestTournamentCompareOps(t *testing.T) {
	tm := NewTournament(256, wheel8)
	must(t, tm.Install(0, Leaf{Mask: 1}))
	before := tm.CompareOps
	tm.Select(0, 0, 0)
	// 256 leaves → 255 comparators per full reduction.
	if got := tm.CompareOps - before; got != 255 {
		t.Errorf("CompareOps per Select = %d, want 255", got)
	}
	if c := CostModel(256, 8, 2); tm.Levels() != c.Levels || int64(c.Comparators) != tm.CompareOps-before {
		t.Errorf("Levels %d, CompareOps %d; CostModel %+v", tm.Levels(), tm.CompareOps-before, c)
	}
	before = tm.CompareOps
	tm.SkipIdleSelects(3)
	if got := tm.CompareOps - before; got != 3*255 || tm.Selects != 4 {
		t.Errorf("SkipIdleSelects(3): %d comparisons, %d selects; want 765, 4", got, tm.Selects)
	}
}

// BenchmarkT4SchedulerThroughput measures full-occupancy selection on
// the paper's 256-leaf shared tree (the chip does one selection per
// ~50 ns pipeline beat): the EDF tree's bitmap walk against the
// structural tournament's full reduction.
func BenchmarkT4SchedulerThroughput(b *testing.B) {
	w := timing.MustWheel(8)
	for _, kind := range []struct {
		name string
		s    tree
	}{
		{"linear-scan", NewEDFTree(256, w)},
		{"tournament", NewTournament(256, w)},
	} {
		for i := 0; i < 256; i++ {
			leaf := Leaf{
				L:    w.Wrap(timing.Slot(i % 90)),
				Dl:   w.Wrap(timing.Slot(i%90 + 30)),
				Mask: PortMask(1 << (i % 5)),
			}
			if err := kind.s.Install(i, leaf); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(kind.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kind.s.Select(i%5, timing.Stamp(i), 8)
			}
		})
	}
}
