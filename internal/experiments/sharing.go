package experiments

import (
	"fmt"

	"repro/internal/router"
	"repro/internal/sched"
)

// SharingResult is the X11 study making Section 5.1's cost-reduction
// alternative live: combining several comparator-tree leaves into one
// module with a single comparator cuts the tree's area by the sharing
// factor, but each selection must serialize through the module's
// packets — the scheduler beat slows proportionally. The study runs the
// X2 bottleneck workload at increasing sharing factors and reports when
// the slower scheduler stops keeping the link busy inside the tight
// stream's slack.
type SharingResult struct {
	Factors     []int
	Comparators []int
	TightMiss   []float64
	TightP99    []float64
	LooseMiss   []float64
}

// RunSharing sweeps the leaf-sharing factor over the X2 workload.
func RunSharing(factors []int, cycles int64) (*SharingResult, error) {
	if len(factors) == 0 || cycles < 10000 {
		return nil, fmt.Errorf("experiments: invalid sharing sweep config")
	}
	res := &SharingResult{Factors: factors}
	for _, f := range factors {
		cfg := router.DefaultConfig()
		cfg.LeafSharing = f
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		b, err := runCompareRouter(cfg, cycles)
		if err != nil {
			return nil, fmt.Errorf("experiments: sharing %d: %w", f, err)
		}
		res.Comparators = append(res.Comparators, sched.CostModelShared(cfg.Slots, f, cfg.ClockBits, 2).Comparators)
		res.TightMiss = append(res.TightMiss, b.tight.missRate())
		res.TightP99 = append(res.TightP99, b.tight.lat.Quantile(0.99))
		res.LooseMiss = append(res.LooseMiss, b.loose.missRate())
	}
	return res, nil
}

// Table renders the sweep.
func (r *SharingResult) Table() *Table {
	t := &Table{
		Title:  "X11 — §5.1 leaf sharing made live: comparator area vs. scheduling throughput",
		Header: []string{"leaves/module", "comparators", "tight miss%", "tight p99 (cyc)", "loose miss%"},
	}
	for i, f := range r.Factors {
		t.AddRow(di(f), di(r.Comparators[i]), f1(r.TightMiss[i]*100), f1(r.TightP99[i]), f1(r.LooseMiss[i]*100))
	}
	t.AddNote("each doubling of the sharing factor halves the tree but doubles the selection beat;")
	t.AddNote("round-robin beats serve idle ports too, so the busy port's selection rate falls below")
	t.AddNote("one per packet time almost immediately — §5.1's untested trade, measured: the two-stage")
	t.AddNote("pipeline's throughput headroom (§5.1's 'sufficient to satisfy the output ports') is load-bearing")
	return t
}
