package experiments

import (
	"fmt"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/packet"
	"repro/internal/rtc"
	"repro/internal/sim"
)

// HorizonResult is the X1 extension study: the horizon parameter trades
// average time-constrained latency against downstream buffer occupancy
// (Sections 2 and 4.1 discuss the trade-off; the paper does not plot
// it). One periodic connection crosses a three-router line with slack
// in its per-hop bounds, so packets arrive early at every hop; larger
// horizons release them sooner but hold more packets downstream.
type HorizonResult struct {
	Horizons  []uint32
	MeanLat   []float64 // cycles, injection to delivery
	PeakOcc   []int     // peak scheduler occupancy at the middle router
	BufBound  []int     // reserved buffers per the admission formula
	Delivered []int64
	Misses    int64
}

// occupancyProbe tracks the peak scheduler occupancy of one router.
type occupancyProbe struct {
	sys  *core.System
	at   mesh.Coord
	peak int
}

func (o *occupancyProbe) Name() string { return "occupancy" }
func (o *occupancyProbe) Tick(sim.Cycle) {
	if n := o.sys.Router(o.at).Scheduler().Occupancy(); n > o.peak {
		o.peak = n
	}
}

// RunHorizon sweeps the horizon parameter.
func RunHorizon(horizons []uint32, cycles int64) (*HorizonResult, error) {
	if len(horizons) == 0 || cycles <= 0 {
		return nil, fmt.Errorf("experiments: invalid horizon sweep config")
	}
	res := &HorizonResult{Horizons: horizons}
	spec := rtc.Spec{Imin: 16, Smax: packet.TCPayloadBytes, D: 120} // d = 30/hop: lots of slack
	for _, h := range horizons {
		sys, err := core.Fixture{
			W: 4, H: 1,
			Options: core.Options{}.WithAdmission(admission.Config{
				Policy:       admission.Partitioned,
				SourceWindow: 16,
				Horizon:      h,
			}),
			Channels: []core.ChannelReq{{Src: mesh.Coord{X: 0, Y: 0}, Dsts: []mesh.Coord{{X: 3, Y: 0}}, Spec: spec}},
		}.BuildAll()
		if err != nil {
			return nil, err
		}
		ch := sys.Channels[0]
		probe := &occupancyProbe{sys: sys.System, at: mesh.Coord{X: 1, Y: 0}}
		sys.Net.Kernel.Register(probe)
		sys.Run(cycles)
		sum := sys.Summarize()
		res.MeanLat = append(res.MeanLat, sum.TCLatency.Mean())
		res.PeakOcc = append(res.PeakOcc, probe.peak)
		res.BufBound = append(res.BufBound, rtc.BufferBound(int64(h)+ch.Admitted().LocalD, ch.Admitted().LocalD, spec))
		res.Delivered = append(res.Delivered, sum.TCDelivered)
		res.Misses += sum.TCMisses
	}
	return res, nil
}

// Table renders the sweep.
func (r *HorizonResult) Table() *Table {
	t := &Table{
		Title:  "X1 — horizon parameter: average latency vs. downstream buffering (4-router line, d=30/hop)",
		Header: []string{"horizon h (slots)", "mean latency (cycles)", "peak occupancy @hop1", "buffer bound/conn", "delivered"},
	}
	for i, h := range r.Horizons {
		t.AddRow(fmt.Sprintf("%d", h), f1(r.MeanLat[i]), di(r.PeakOcc[i]), di(r.BufBound[i]), d(r.Delivered[i]))
	}
	t.AddNote("larger horizons release early packets sooner (latency falls) but reserve more downstream buffers")
	t.AddNote("deadline misses across the sweep: %d", r.Misses)
	return t
}
