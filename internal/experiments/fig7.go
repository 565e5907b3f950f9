package experiments

import (
	"fmt"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// Fig7Config parameterizes the Figure 7 reproduction: three backlogged
// time-constrained connections with d = Imin (in 20-byte slots) share
// one link with backlogged best-effort traffic under a zero horizon.
type Fig7Config struct {
	Imins  []int64 // per-connection Imin = d, paper uses a 1:2:4 spread
	Cycles int64   // simulated cycles
	Sample int64   // sampling period for the service curves
}

// DefaultFig7 returns the configuration used in EXPERIMENTS.md: Imin =
// d ∈ {4, 8, 16} slots, 8000 cycles (400 slots).
func DefaultFig7() Fig7Config {
	return Fig7Config{Imins: []int64{4, 8, 16}, Cycles: 8000, Sample: 100}
}

// Fig7Result carries the cumulative service curves and their end
// points.
type Fig7Result struct {
	Cfg      Fig7Config
	TC       []*stats.Series // per connection, bytes
	BE       *stats.Series   // best-effort bytes
	TCTotal  []float64
	BETotal  float64
	Expected []float64 // reservation-proportional service
	Misses   int64
}

// sampler periodically samples the per-connection accumulators and the
// tapped router's best-effort byte counter on port +x.
type sampler struct {
	period int64
	accs   []*stats.Accumulator
	r      *router.Router
	be     *stats.Series
}

func (s *sampler) Name() string { return "sampler" }
func (s *sampler) Tick(now sim.Cycle) {
	if int64(now)%s.period == 0 {
		for _, a := range s.accs {
			a.Sample(int64(now))
		}
		s.be.Append(int64(now), float64(s.r.Stats.BEBytes[router.PortXPlus]))
	}
}

// RunFig7 reproduces the paper's mixed-traffic experiment.
func RunFig7(cfg Fig7Config) (*Fig7Result, error) {
	if len(cfg.Imins) == 0 || cfg.Cycles <= 0 || cfg.Sample <= 0 {
		return nil, fmt.Errorf("experiments: invalid Figure 7 config")
	}
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 1, Y: 0}
	fx := core.Fixture{
		W: 2, H: 1, Seed: 1,
		Options: core.Options{}.WithAdmission(admission.Config{
			Policy:       admission.Partitioned,
			SourceWindow: 4,
			Horizon:      0, // the paper's experiment uses h = 0
		}),
		// Backlogged best-effort traffic: saturate whatever the scheduler
		// leaves over.
		BestEffort: []core.BESource{{Src: src, Dst: &dst, Rate: 1.0, SizeMin: 60, SizeMax: 60}},
	}
	for _, imin := range cfg.Imins {
		fx.Channels = append(fx.Channels, core.ChannelReq{
			Src: src, Dsts: []mesh.Coord{dst}, Pattern: traffic.Backlogged,
			Spec: rtc.Spec{Imin: imin, Smax: packet.TCPayloadBytes, D: 2 * imin},
		})
	}
	sys, err := fx.BuildAll()
	if err != nil {
		return nil, err
	}

	res := &Fig7Result{Cfg: cfg}
	accs := make([]*stats.Accumulator, 0, len(cfg.Imins))
	connAcc := make(map[uint8]*stats.Accumulator)
	for i, imin := range cfg.Imins {
		acc := &stats.Accumulator{Series: stats.Series{Name: fmt.Sprintf("connection %d (d=Imin=%d)", i+1, imin)}}
		connAcc[sys.Channels[i].Admitted().SrcConn] = acc
		accs = append(accs, acc)
		res.TC = append(res.TC, &acc.Series)
	}
	res.BE = &stats.Series{Name: "best-effort"}

	// Tap the (0,0)→+x link: time-constrained service from the lifecycle
	// stream's transmit events, chained onto any observer already
	// attached (a trace collector, say); best-effort service is the
	// port's byte counter.
	r0 := sys.Router(src)
	prev := r0.OnLifecycle
	r0.OnLifecycle = func(ev router.LifecycleEvent) {
		if ev.Kind == router.EvTransmit && ev.Port == router.PortXPlus {
			if acc, ok := connAcc[ev.InConn]; ok {
				acc.Inc(packet.TCBytes)
			}
		}
		if prev != nil {
			prev(ev)
		}
	}

	sys.Net.Kernel.Register(&sampler{period: cfg.Sample, accs: accs, r: r0, be: res.BE})

	sys.Run(cfg.Cycles)

	slots := float64(cfg.Cycles) / packet.TCBytes
	for i, imin := range cfg.Imins {
		res.TCTotal = append(res.TCTotal, accs[i].Total())
		res.Expected = append(res.Expected, slots/float64(imin)*packet.TCBytes)
	}
	res.BETotal = float64(r0.Stats.BEBytes[router.PortXPlus])
	res.Misses = sys.Summarize().TCMisses
	return res, nil
}

// Table renders the end-of-run service totals against the
// reservation-proportional expectation.
func (r *Fig7Result) Table() *Table {
	t := &Table{
		Title: "Figure 7 — time-constrained and best-effort service on one link " +
			"(backlogged connections, h=0)",
		Header: []string{"flow", "Imin=d (slots)", "service (bytes)", "expected (bytes)", "ratio"},
	}
	for i, imin := range r.Cfg.Imins {
		ratio := 0.0
		if r.Expected[i] > 0 {
			ratio = r.TCTotal[i] / r.Expected[i]
		}
		t.AddRow(fmt.Sprintf("connection %d", i+1), d(imin), f1(r.TCTotal[i]), f1(r.Expected[i]), f2(ratio))
	}
	t.AddRow("best-effort", "-", f1(r.BETotal), "(excess bandwidth)", "-")
	var tc float64
	for _, v := range r.TCTotal {
		tc += v
	}
	util := (tc + r.BETotal) / float64(r.Cfg.Cycles)
	t.AddNote("connections served in proportion to 1/Imin as in the paper; deadline misses: %d", r.Misses)
	t.AddNote("link utilization %.1f%% (TC %.1f%% + BE %.1f%%): best-effort flits fill all excess bandwidth",
		util*100, tc/float64(r.Cfg.Cycles)*100, r.BETotal/float64(r.Cfg.Cycles)*100)
	return t
}

// Chart renders the Figure 7 service curves as ASCII art.
func (r *Fig7Result) Chart() string {
	series := append([]*stats.Series{}, r.TC...)
	series = append(series, r.BE)
	return stats.RenderASCII(64, 16, series...)
}
