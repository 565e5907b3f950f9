package sched

import (
	"math/bits"

	"repro/internal/timing"
)

// Tournament is a structural model of the hardware comparator tree of
// Figure 5. Where EDFTree scans leaves, Tournament materializes every
// pairwise comparator so that (a) equivalence with the linear scan can be
// property-tested and (b) the chip-cost questions of Section 5.1 — how
// many comparators, how many levels, what pipeline beat — can be answered
// quantitatively (cmd/rtchip, Table 4).
type Tournament struct {
	leafTable
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
		leafTable: newLeafTable(slots),
		wheel:     wheel,
		levels:    treeLevels(slots),
	}
}

func treeLevels(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
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
		if i >= n || !t.leaves[i].InUse || !t.leaves[i].Mask.Has(port) {
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

// ResetTelemetry zeroes the running comparator and Select counters
// without disturbing installed leaves.
func (t *Tournament) ResetTelemetry() {
	t.CompareOps = 0
	t.Selects = 0
}

// SkipIdleSelects implements IdleSkipper: the tournament runs its full
// reduction even over an empty tree, so each skipped beat accounts one
// Select and 2^levels−1 comparator evaluations.
func (t *Tournament) SkipIdleSelects(n int64) {
	t.Selects += n
	t.CompareOps += n * int64(1<<t.levels-1)
}

// Levels returns the number of comparator rows in the tree.
func (t *Tournament) Levels() int { return t.levels }

// Cost describes the hardware cost of a comparator tree configuration, in
// the terms of Table 4 and Section 5.1 of the paper.
type Cost struct {
	Leaves       int // packet leaf slots
	Comparators  int // two-input comparators in the reduction tree
	Levels       int // comparator rows (tree depth)
	KeyBits      int // sorting key width (clock bits + 1, Figure 4)
	Stages       int // pipeline stages the rows are folded into
	RowsPerStage int // comparator rows evaluated per pipeline beat
}

// CostModel computes the structural cost of a tree with the given leaves,
// clock width and pipeline depth. The paper's chip: 256 leaves, 8-bit
// clock (9-bit keys), 2 pipeline stages.
func CostModel(leaves int, clockBits uint, stages int) Cost {
	if leaves < 1 || stages < 1 {
		panic("sched: CostModel requires positive leaves and stages")
	}
	lv := treeLevels(leaves)
	rows := (lv + stages - 1) / stages
	if lv == 0 {
		rows = 0
	}
	return Cost{
		Leaves:       leaves,
		Comparators:  1<<lv - 1,
		Levels:       lv,
		KeyBits:      int(clockBits) + 1,
		Stages:       stages,
		RowsPerStage: rows,
	}
}

// SharedCost models the Section 5.1 cost-reduction alternative: combine
// several leaf units into one module with a small memory, sequencing
// each module's packets through a single comparator at the base of a
// smaller tree. Comparator count shrinks by the sharing factor; the
// selection must serialize over the module's packets, multiplying the
// scheduling time per beat.
type SharedCost struct {
	Cost
	LeavesPerModule int
	Modules         int
	// SerializeSlots is the sequential comparisons each module performs
	// per selection — the throughput cost of the sharing.
	SerializeSlots int
}

// CostModelShared computes the shared-leaf variant's cost.
func CostModelShared(leaves, perModule int, clockBits uint, stages int) SharedCost {
	if perModule < 1 {
		panic("sched: CostModelShared requires a positive sharing factor")
	}
	modules := (leaves + perModule - 1) / perModule
	base := CostModel(modules, clockBits, stages)
	base.Leaves = leaves
	return SharedCost{
		Cost:            base,
		LeavesPerModule: perModule,
		Modules:         modules,
		SerializeSlots:  perModule,
	}
}
