package experiments

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// SkewResult is the X8 study of Section 4.1's assumption that "the
// tight coupling in parallel machines minimizes the effects of clock
// skew": logical arrival times travel in packet headers, so a
// downstream router interprets them against its own clock. The study
// skews the downstream router of a two-hop channel and measures
// delivery behaviour: sub-slot skew is invisible, slot-scale skew
// shifts eligibility and deadlines one-for-one, and skew beyond the
// per-hop slack turns into deadline misses.
type SkewResult struct {
	SkewCycles []int64
	MeanLat    []float64
	Misses     []int64
	Delivered  []int64
}

// RunSkew sweeps the downstream router's clock offset. The channel has
// d = 8 slots per hop, so misses are expected once skew approaches
// +8 slots (the downstream clock running ahead erodes the deadline).
func RunSkew(skews []int64, cycles int64) (*SkewResult, error) {
	if len(skews) == 0 || cycles <= 0 {
		return nil, fmt.Errorf("experiments: invalid skew sweep config")
	}
	res := &SkewResult{SkewCycles: skews}
	for _, skew := range skews {
		cfgA := router.DefaultConfig()
		cfgB := router.DefaultConfig()
		cfgB.SkewCycles = skew
		if err := cfgB.Validate(); err != nil {
			return nil, err
		}
		k := sim.NewKernel()
		a, err := router.New("A", cfgA)
		if err != nil {
			return nil, err
		}
		b, err := router.New("B", cfgB)
		if err != nil {
			return nil, err
		}
		ab := router.NewChannel(k)
		a.ConnectOut(router.PortXPlus, ab.Out())
		b.ConnectIn(router.PortXMinus, ab.In())
		if err := a.SetConnection(1, 2, 8, 1<<router.PortXPlus); err != nil {
			return nil, err
		}
		if err := b.SetConnection(2, 7, 8, 1<<router.PortLocal); err != nil {
			return nil, err
		}
		// One on-time packet per 16 slots, stamped on A's clock (skew
		// zero — global time).
		k.Register(traffic.NewPeriodicSource("skew-src", 16*packet.TCBytes, func(now sim.Cycle, seq uint32) {
			p := packet.TCPacket{Conn: 1, Stamp: packet.StampOf(a.SlotNow(int64(now)))}
			traffic.EncodeProbe(p.Payload[:], int64(now), seq)
			a.InjectTC(p)
		}))
		k.Register(a)
		k.Register(b)
		sink := traffic.NewSink("skew-sink", b)
		k.Register(sink)
		k.Run(cycles)
		res.MeanLat = append(res.MeanLat, sink.TCLatency.Mean())
		res.Misses = append(res.Misses, b.Stats.TCDeadlineMisses+a.Stats.TCDeadlineMisses)
		res.Delivered = append(res.Delivered, b.Stats.TCDelivered)
	}
	return res, nil
}

// Table renders the sweep.
func (r *SkewResult) Table() *Table {
	t := &Table{
		Title:  "X8 — clock skew tolerance (two hops, d=8 slots/hop; B's clock offset vs. A)",
		Header: []string{"skew (cycles)", "skew (slots)", "mean latency (cyc)", "misses", "delivered"},
	}
	for i, sk := range r.SkewCycles {
		t.AddRow(d(sk), fmt.Sprintf("%+.1f", float64(sk)/packet.TCBytes),
			f1(r.MeanLat[i]), d(r.Misses[i]), d(r.Delivered[i]))
	}
	t.AddNote("negative skew (B behind) holds packets longer as early traffic; positive skew")
	t.AddNote("erodes the local deadline and misses appear as skew approaches d — the §4.1 bound")
	return t
}
