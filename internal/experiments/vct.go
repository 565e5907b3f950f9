package experiments

import (
	"fmt"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/traffic"
)

// VCTResult is the X3 extension study: Section 7 of the paper proposes
// virtual cut-through switching for time-constrained traffic — an
// arriving packet proceeds directly to its output link if no other
// packet has a smaller sorting key. The study measures mean latency of
// a lightly loaded periodic channel across a line of routers with the
// extension off and on, and the fraction of hops that cut through.
type VCTResult struct {
	Hops        int
	MeanOff     float64
	MeanOn      float64
	Saving      float64 // cycles
	CutFraction float64 // cut-throughs per forwarding opportunity
	Misses      int64
}

// vctLine is the study's rig: a periodic channel down a line of hops+1
// routers, with cross backlogged channels contending for the
// (1,0)→(2,0) link. A generous horizon lets early packets move at every
// hop, matching Section 7's "proceed directly" condition; tight per-hop
// bounds (d = 5 slots) keep packets near their logical arrival times,
// so latency is set by the forwarding pipeline rather than by
// eligibility gating — the regime where cut-through can pay off.
func vctLine(hops int, vct bool, cross int) core.Fixture {
	cfg := router.DefaultConfig()
	cfg.VCT = vct
	fx := core.Fixture{
		W: hops + 1, H: 1,
		Options: core.Options{Router: cfg}.WithAdmission(admission.Config{
			Policy:       admission.Partitioned,
			SourceWindow: 8,
			Horizon:      32,
		}),
		Channels: []core.ChannelReq{{
			Src: mesh.Coord{X: 0, Y: 0}, Dsts: []mesh.Coord{{X: hops, Y: 0}},
			Spec: rtc.Spec{Imin: 16, Smax: packet.TCPayloadBytes, D: int64(5 * (hops + 1))},
		}},
	}
	for i := 0; i < cross; i++ {
		fx.Channels = append(fx.Channels, core.ChannelReq{
			Src: mesh.Coord{X: 1, Y: 0}, Dsts: []mesh.Coord{{X: 2, Y: 0}}, Pattern: traffic.Backlogged,
			Spec: rtc.Spec{Imin: 8, Smax: packet.TCPayloadBytes, D: 32},
		})
	}
	return fx
}

// runVCTLine runs the rig and returns its summary and the fraction of
// forwarding events that cut through. TCTransmitted counts cut and
// stored transmissions alike, so the fraction is cuts over all of them.
func runVCTLine(fx core.Fixture, cycles int64) (core.Summary, float64, error) {
	sys, err := fx.BuildAll()
	if err != nil {
		return core.Summary{}, 0, err
	}
	sys.Run(cycles)
	var cuts, transmits int64
	for _, c := range sys.Net.Coords() {
		st := sys.Router(c).Stats
		cuts += st.TCCutThroughs
		for p := 0; p < router.NumPorts; p++ {
			transmits += st.TCTransmitted[p]
		}
	}
	frac := 0.0
	if transmits > 0 {
		frac = float64(cuts) / float64(transmits)
	}
	return sys.Summarize(), frac, nil
}

// RunVCT measures the virtual cut-through latency improvement across a
// line of hops+1 routers.
func RunVCT(hops int, cycles int64) (*VCTResult, error) {
	if hops < 1 || hops > 7 || cycles <= 0 {
		return nil, fmt.Errorf("experiments: invalid VCT config (hops %d)", hops)
	}
	off, _, err := runVCTLine(vctLine(hops, false, 0), cycles)
	if err != nil {
		return nil, err
	}
	on, frac, err := runVCTLine(vctLine(hops, true, 0), cycles)
	if err != nil {
		return nil, err
	}
	return &VCTResult{
		Hops:        hops,
		MeanOff:     off.TCLatency.Mean(),
		MeanOn:      on.TCLatency.Mean(),
		Saving:      off.TCLatency.Mean() - on.TCLatency.Mean(),
		CutFraction: frac,
		Misses:      off.TCMisses + on.TCMisses,
	}, nil
}

// VCTLoadResult extends the study with time-constrained cross-traffic:
// §7's cut condition is "no other packets have smaller sorting keys",
// so best-effort load never blocks a cut (on-time traffic preempts it
// anyway) — but competing TC channels do, reverting hops to
// store-and-forward. The sweep quantifies VCT as a light-TC-load
// optimization.
type VCTLoadResult struct {
	CrossChannels []int // competing channels through the middle link
	CutFraction   []float64
	TCMean        []float64
	Misses        int64
}

// RunVCTLoad sweeps TC cross-traffic on a 3-hop VCT line.
func RunVCTLoad(cross []int, cycles int64) (*VCTLoadResult, error) {
	if len(cross) == 0 || cycles <= 0 {
		return nil, fmt.Errorf("experiments: invalid VCT load sweep")
	}
	res := &VCTLoadResult{CrossChannels: cross}
	for _, n := range cross {
		if n < 0 || n > 6 {
			return nil, fmt.Errorf("experiments: cross-channel count %d out of [0,6]", n)
		}
		sum, frac, err := runVCTLine(vctLine(3, true, n), cycles)
		if err != nil {
			return nil, err
		}
		res.CutFraction = append(res.CutFraction, frac)
		res.TCMean = append(res.TCMean, sum.TCLatency.Mean())
		res.Misses += sum.TCMisses
	}
	return res, nil
}

// Table renders the load sweep.
func (r *VCTLoadResult) Table() *Table {
	t := &Table{
		Title:  "X3b — virtual cut-through under time-constrained cross-traffic",
		Header: []string{"cross channels", "hops cut (%)", "TC mean (cyc, all channels)"},
	}
	for i, n := range r.CrossChannels {
		t.AddRow(di(n), f1(r.CutFraction[i]*100), f1(r.TCMean[i]))
	}
	t.AddNote("§7's cut condition defers only to other time-constrained packets, so best-effort load")
	t.AddNote("never blocks a cut; TC contention reverts hops to store-and-forward (misses: %d)", r.Misses)
	return t
}

// Table renders the study.
func (r *VCTResult) Table() *Table {
	t := &Table{
		Title:  "X3 — virtual cut-through for time-constrained traffic (paper §7 future work)",
		Header: []string{"hops", "store-and-forward (cyc)", "cut-through (cyc)", "saving (cyc)", "hops cut (%)"},
	}
	t.AddRow(di(r.Hops), f1(r.MeanOff), f1(r.MeanOn), f1(r.Saving), f1(r.CutFraction*100))
	t.AddNote("per cut hop the packet skips the 20-cycle store plus the memory/scheduler pipeline")
	t.AddNote("deadline misses across both runs: %d", r.Misses)
	return t
}
