package experiments

import (
	"fmt"

	"repro/internal/router"
)

// ApproxResult is the X6 study of the paper's Section 7 proposal:
// approximate versions of real-time channels with reduced scheduling
// complexity. The X2 bottleneck workload (a tight-deadline stream
// contending with bulky loose streams) runs under the quantized-key
// scheduler at increasing granularities; each dropped key bit narrows
// every comparator in the shared tree, and the study measures what that
// costs in deadline behaviour.
type ApproxResult struct {
	Shifts    []uint
	KeyBits   []int // comparator width after quantization
	TightMiss []float64
	TightP99  []float64 // cycles
	LooseMiss []float64
}

// RunApprox sweeps the quantization exponent over the X2 workload.
func RunApprox(shifts []uint, cycles int64) (*ApproxResult, error) {
	if len(shifts) == 0 || cycles < 10000 {
		return nil, fmt.Errorf("experiments: invalid approx sweep config")
	}
	res := &ApproxResult{Shifts: shifts}
	for _, sh := range shifts {
		cfg := router.DefaultConfig()
		cfg.Scheduler = router.SchedApproxEDF
		cfg.ApproxShift = sh
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		b, err := runCompareRouter(cfg, cycles)
		if err != nil {
			return nil, fmt.Errorf("experiments: shift %d: %w", sh, err)
		}
		res.KeyBits = append(res.KeyBits, int(cfg.ClockBits-sh)+1)
		res.TightMiss = append(res.TightMiss, b.tight.missRate())
		res.TightP99 = append(res.TightP99, b.tight.lat.Quantile(0.99))
		res.LooseMiss = append(res.LooseMiss, b.loose.missRate())
	}
	return res, nil
}

// Table renders the sweep.
func (r *ApproxResult) Table() *Table {
	t := &Table{
		Title:  "X6 — approximate deadline scheduling (paper §7): key quantization vs. deadline behaviour",
		Header: []string{"dropped bits", "key bits", "tight miss%", "tight p99 (cyc)", "loose miss%"},
	}
	for i, sh := range r.Shifts {
		t.AddRow(fmt.Sprintf("%d (2^%d-slot buckets)", sh, sh),
			di(r.KeyBits[i]), f1(r.TightMiss[i]*100), f1(r.TightP99[i]), f1(r.LooseMiss[i]*100))
	}
	t.AddNote("each dropped bit narrows all 255 comparators by one bit; coarse buckets blur")
	t.AddNote("deadline order inside a bucket, eroding the tight stream's slack first")
	return t
}
