package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/packet"
	"repro/internal/rtc"
	"repro/internal/timing"
)

// Fig6Result demonstrates the clock-rollover handling of Section 4.3 /
// Figure 6 in two parts: the static classification example from the
// figure (an 8-bit clock at t=240), and a long-running periodic channel
// whose lifetime spans many wraps of the 8-bit slot clock with zero
// deadline misses.
type Fig6Result struct {
	// Classifications mirrors Figure 6: stamp, class at t=240.
	Stamps  []uint8
	Classes []string
	Gaps    []uint32

	// Dynamic run across rollovers.
	Wraps      int64
	Delivered  int64
	Misses     int64
	MaxLatency float64
}

// RunFig6 evaluates the Figure 6 example and a multi-wrap soak run.
func RunFig6(wraps int64) (*Fig6Result, error) {
	if wraps < 1 {
		return nil, fmt.Errorf("experiments: wraps must be positive")
	}
	res := &Fig6Result{Wraps: wraps}
	w := timing.MustWheel(8)
	const now timing.Stamp = 240
	for _, s := range []uint8{210, 240, 250, 80, 111} {
		st := timing.Stamp(s)
		res.Stamps = append(res.Stamps, s)
		if w.OnTime(st, now) {
			res.Classes = append(res.Classes, "on-time")
			res.Gaps = append(res.Gaps, w.Sub(now, st))
		} else {
			res.Classes = append(res.Classes, "early")
			res.Gaps = append(res.Gaps, w.EarlyGap(st, now))
		}
	}

	// Soak: a periodic channel running across `wraps` rollovers of the
	// 256-slot clock. Any misclassification at a wrap would surface as a
	// held packet (deadline miss) or an early release.
	sys, err := core.Fixture{W: 2, H: 1, Channels: []core.ChannelReq{{
		Src: mesh.Coord{X: 0, Y: 0}, Dsts: []mesh.Coord{{X: 1, Y: 0}},
		Spec: rtc.Spec{Imin: 8, Smax: packet.TCPayloadBytes, D: 32},
	}}}.BuildAll()
	if err != nil {
		return nil, err
	}
	cycles := wraps * 256 * packet.TCBytes
	sys.Run(cycles)
	sum := sys.Summarize()
	res.Delivered = sum.TCDelivered
	res.Misses = sum.TCMisses
	res.MaxLatency = sum.TCLatency.Max()
	return res, nil
}

// Table renders both parts.
func (r *Fig6Result) Table() *Table {
	t := &Table{
		Title:  "Figure 6 — clock rollover with an 8-bit clock (t = 240)",
		Header: []string{"ℓ(m) stamp", "class", "slots to/from ℓ"},
	}
	for i := range r.Stamps {
		t.AddRow(fmt.Sprintf("%d", r.Stamps[i]), r.Classes[i], fmt.Sprintf("%d", r.Gaps[i]))
	}
	t.AddNote("paper example: ℓ=210 on-time, ℓ=80 early at t=240")
	t.AddNote("soak across %d clock wraps: %d packets delivered, %d deadline misses, max latency %.0f cycles",
		r.Wraps, r.Delivered, r.Misses, r.MaxLatency)
	return t
}
