package experiments

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/timing"
)

// ChipResult is the Table 4 analog: the architectural parameters of the
// modelled chip and the structural cost of the shared comparator tree
// for several design points. (The software model's selection cost is a
// wall-clock number and lives in the performance ledger as
// sched.select_ns_occ256, not in this reproducible table.) Silicon area, transistor count and power (Table 4b)
// are properties of the 0.5 µm implementation and are not reproducible
// in a simulator; the comparator counts and pipeline depths that drove
// them are.
type ChipResult struct {
	Params []string // architectural parameters (Table 4a)
	Costs  []sched.Cost
	// Shared explores §5.1's leaf-sharing alternative: fewer comparators
	// at the price of serialized per-module scans.
	Shared []sched.SharedCost
	// ClockTradeoffs quantifies §4.3: each clock bit doubles both the
	// usable per-hop delay range and the comparator width.
	ClockTradeoffs []ClockPoint
}

// ClockPoint is one clock-width design point.
type ClockPoint struct {
	Bits    uint
	KeyBits int
	MaxD    uint32 // largest admissible h+d window, slots
}

// RunChip computes the cost table for leaf counts bracketing the
// paper's 256.
func RunChip() *ChipResult {
	res := &ChipResult{
		Params: []string{
			fmt.Sprintf("connections: 256"),
			fmt.Sprintf("time-constrained packets: 256 x %d bytes", packet.TCBytes),
			fmt.Sprintf("clock (sorting key): 8 (9) bits"),
			fmt.Sprintf("comparator tree pipeline: 2 stages"),
			fmt.Sprintf("flit input buffer: 10 bytes"),
			fmt.Sprintf("packet memory chunk: 10 bytes/cycle"),
		},
	}
	for _, leaves := range []int{64, 128, 256, 512, 1024} {
		res.Costs = append(res.Costs, sched.CostModel(leaves, 8, 2))
	}
	for _, per := range []int{1, 2, 4, 8, 16} {
		res.Shared = append(res.Shared, sched.CostModelShared(256, per, 8, 2))
	}
	for _, bits := range []uint{4, 5, 6, 7, 8} {
		w := timing.MustWheel(bits)
		res.ClockTradeoffs = append(res.ClockTradeoffs, ClockPoint{
			Bits:    bits,
			KeyBits: int(bits) + 1,
			MaxD:    w.HalfRange() - 1,
		})
	}
	return res
}

// Table renders the chip specification.
func (r *ChipResult) Table() *Table {
	t := &Table{
		Title:  "Table 4 — router specification (architectural analog; silicon metrics not modelled)",
		Header: []string{"leaves", "comparators", "tree levels", "key bits", "stages", "rows/stage"},
	}
	for _, c := range r.Costs {
		t.AddRow(di(c.Leaves), di(c.Comparators), di(c.Levels), di(c.KeyBits), di(c.Stages), di(c.RowsPerStage))
	}
	for _, p := range r.Params {
		t.AddNote("%s", p)
	}
	t.AddNote("paper chip point: 256 leaves, 255 comparators, 8 levels folded into 2 pipeline stages")
	return t
}

// SharedTable renders the §5.1 leaf-sharing alternative.
func (r *ChipResult) SharedTable() *Table {
	t := &Table{
		Title:  "Table 4 (cont.) — §5.1 leaf-sharing alternative at 256 packets",
		Header: []string{"leaves/module", "modules", "comparators", "serial scans/selection"},
	}
	for _, c := range r.Shared {
		t.AddRow(di(c.LeavesPerModule), di(c.Modules), di(c.Comparators), di(c.SerializeSlots))
	}
	t.AddNote("sharing trades comparator area for selection latency; the paper's chip keeps factor 1")
	return t
}

// ClockTable renders the §4.3 clock-width trade-off.
func (r *ChipResult) ClockTable() *Table {
	t := &Table{
		Title:  "Table 4 (cont.) — §4.3 clock width vs. delay range",
		Header: []string{"clock bits", "key bits", "max h+d window (slots)"},
	}
	for _, p := range r.ClockTradeoffs {
		t.AddRow(fmt.Sprintf("%d", p.Bits), di(p.KeyBits), fmt.Sprintf("%d", p.MaxD))
	}
	t.AddNote("each clock bit doubles the admissible per-hop delay budget and widens every comparator")
	return t
}
