package sched

import "math/bits"

// treeLevels is the comparator-row count of a binary reduction over n
// leaves: ⌈log2 n⌉.
func treeLevels(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

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
