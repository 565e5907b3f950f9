package sched

import (
	"fmt"

	"repro/internal/timing"
)

// ApproxEDF is the reduced-complexity link scheduler the paper's
// Section 7 puts forward as future work: an *approximate* version of
// real-time channels that trades sorting precision for hardware cost.
//
// Keys are quantized by dropping the low g bits of the time component
// before comparison, so packets whose laxities (or early gaps) fall in
// the same 2^g-slot bucket are indistinguishable and serve in
// lowest-slot order. Every comparator in the tree narrows by g bits,
// and with coarse enough buckets the tree can be replaced by a small
// bucket-select priority encoder — the cost question CostModel's
// KeyBits column quantifies.
//
// The approximation is conservative in class but not in order: on-time
// never degrades to early (the class bit is exact; only the magnitude
// quantizes), so eligibility and horizon semantics are preserved, while
// deadline *order* inside a bucket is not. The X6 experiment measures
// what that costs in deadline slack across granularities.
type ApproxEDF struct {
	leafTable
	wheel timing.Wheel
	shift uint
}

// NewApproxEDF returns an approximate scheduler dropping the low
// `shift` bits of every key magnitude. shift = 0 is exact EDF.
func NewApproxEDF(slots int, wheel timing.Wheel, shift uint) (*ApproxEDF, error) {
	if slots <= 0 {
		return nil, fmt.Errorf("sched: slots must be positive")
	}
	if shift >= wheel.Bits() {
		return nil, fmt.Errorf("sched: quantization of %d bits leaves no key on a %d-bit clock",
			shift, wheel.Bits())
	}
	return &ApproxEDF{leafTable: newLeafTable(slots), wheel: wheel, shift: shift}, nil
}

// QuantizedKeyBits returns the comparator width after quantization
// (class bit plus the surviving magnitude bits).
func (a *ApproxEDF) QuantizedKeyBits() int { return int(a.wheel.Bits()-a.shift) + 1 }

// Select implements Scheduler with bucketed comparisons. The horizon
// check uses the exact gap — the buffer-reservation contract depends on
// it — so only the ordering is approximate.
func (a *ApproxEDF) Select(port int, now timing.Stamp, horizon uint32) Selection {
	type qkey struct {
		early  bool
		bucket uint32
	}
	less := func(x, y qkey) bool {
		if x.early != y.early {
			return y.early
		}
		return x.bucket < y.bucket
	}
	best := Selection{Slot: -1, Class: ClassNone, Key: a.wheel.KeyIneligible()}
	var bestQ qkey
	for i := range a.leaves {
		lf := &a.leaves[i]
		if !lf.InUse || !lf.Mask.Has(port) {
			continue
		}
		k, early, _ := a.wheel.SortKey(lf.L, lf.Dl, now)
		if early && !a.wheel.WithinHorizon(k, horizon) {
			continue
		}
		q := qkey{early: early, bucket: a.wheel.KeyGap(k) >> a.shift}
		if best.Slot < 0 || less(q, bestQ) {
			best.Slot = i
			best.Key = k
			bestQ = q
			if early {
				best.Class = ClassEarly
			} else {
				best.Class = ClassOnTime
			}
		}
	}
	return best
}
