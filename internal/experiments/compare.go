package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// CompareResult is the X2 extension study: the same two-class workload
// run over five router architectures — the paper's deadline-driven
// design, a FIFO output-queued switch, a static-priority scheduler,
// the priority-forwarding chip model, and a two-VC priority wormhole
// router. The workload interleaves a tight-deadline command stream with
// bulky loose-deadline streams that share its bottleneck link, the
// scenario the paper's Related Work argues FIFO hardware cannot serve.
// (The priority-VC design's intra-channel head-of-line limitation needs
// co-resident bulk traffic on the SAME channel to surface; baseline's
// TestVCHeadOfLineBlocking pins it directly.)
//
// Topology: a 3-router line. Two "loose" connections (Imin=16 slots,
// 5-packet messages, d=16/hop) run (0,0)→(2,0); one "tight" connection
// (Imin=4, 1 packet, d=4/hop) runs (1,0)→(2,0), contending with the
// loose streams at router (1,0)'s +x link.
type CompareResult struct {
	Disciplines []string
	TightMiss   []float64 // fraction of tight packets past their bound
	LooseMiss   []float64
	TightMean   []float64 // mean latency, cycles
	LooseMean   []float64
	TightN      []int64
	LooseN      []int64
}

const (
	cmpTightImin = 4
	cmpTightD    = 8 // 2 hops × d=4
	cmpLooseImin = 16
	cmpLooseSmax = 90 // 5 packets per message
	cmpLooseD    = 48 // 3 hops × d=16
)

// missBound converts an end-to-end slot bound into a cycle budget: the
// bound, plus the delivery slot itself, plus pipeline slack.
func missBound(dSlots int64) float64 {
	return float64((dSlots+2)*packet.TCBytes) + 10
}

// cmpStream is one connection of the X2 workload. The same three
// streams, all ending at router 2 of the line, drive every architecture.
type cmpStream struct {
	name  string
	at    int   // source router
	imin  int64 // slots
	d     int64 // end-to-end bound, slots
	size  int   // message payload bytes
	tight bool
}

var cmpStreams = []cmpStream{
	{"loose0", 0, cmpLooseImin, cmpLooseD, cmpLooseSmax, false},
	{"loose1", 0, cmpLooseImin, cmpLooseD, cmpLooseSmax, false},
	{"tight", 1, cmpTightImin, cmpTightD, packet.TCPayloadBytes, true},
}

// RunCompare evaluates all five architectures.
func RunCompare(cycles int64) (*CompareResult, error) {
	if cycles < 10000 {
		return nil, fmt.Errorf("experiments: comparison needs at least 10000 cycles")
	}
	overRouter := func(cfg router.Config) func(int64) (*bottleneck, error) {
		return func(cycles int64) (*bottleneck, error) { return runCompareRouter(cfg, cycles) }
	}
	res := &CompareResult{}
	for _, leg := range []struct {
		name string
		run  func(cycles int64) (*bottleneck, error)
	}{
		{"real-time (EDF)", overRouter(router.DefaultConfig())},
		{"FIFO output-queued", overRouter(baseline.FIFOConfig())},
		{"static priority", overRouter(baseline.StaticPriorityConfig())},
		{"priority-forwarding", runComparePF},
		{"priority-VC wormhole", runCompareVC},
	} {
		b, err := leg.run(cycles)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", leg.name, err)
		}
		res.Disciplines = append(res.Disciplines, leg.name)
		res.TightMiss = append(res.TightMiss, b.tight.missRate())
		res.LooseMiss = append(res.LooseMiss, b.loose.missRate())
		res.TightMean = append(res.TightMean, b.tight.lat.Mean())
		res.LooseMean = append(res.LooseMean, b.loose.lat.Mean())
		res.TightN = append(res.TightN, int64(b.tight.lat.N()))
		res.LooseN = append(res.LooseN, int64(b.loose.lat.N()))
	}
	return res, nil
}

type classStats struct {
	lat    stats.Hist
	bound  float64
	misses int64
}

func (c *classStats) missRate() float64 {
	if c.lat.N() == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.lat.N())
}

// bottleneck is one architecture's outcome on the workload: the latency
// of every probed message, by class, against the class's bound.
type bottleneck struct{ tight, loose classStats }

func newBottleneck() *bottleneck {
	return &bottleneck{
		tight: classStats{bound: missBound(cmpTightD)},
		loose: classStats{bound: missBound(cmpLooseD)},
	}
}

func (b *bottleneck) observe(tight bool, latency int64) {
	c := &b.loose
	if tight {
		c = &b.tight
	}
	c.lat.AddInt(latency)
	if float64(latency) > c.bound {
		c.misses++
	}
}

// runCompareRouter drives the workload over real-time router hardware
// with the given scheduler configuration.
func runCompareRouter(cfg router.Config, cycles int64) (*bottleneck, error) {
	dst := mesh.Coord{X: 2, Y: 0}
	fx := core.Fixture{W: 3, H: 1, Options: core.Options{Router: cfg}}
	for _, st := range cmpStreams {
		fx.Channels = append(fx.Channels, core.ChannelReq{
			Src: mesh.Coord{X: st.at, Y: 0}, Dsts: []mesh.Coord{dst},
			Spec: rtc.Spec{Imin: st.imin, Smax: st.size, D: st.d},
		})
	}
	sys, err := fx.BuildAll()
	if err != nil {
		return nil, err
	}
	b := newBottleneck()
	tight := make(map[uint8]bool)
	for i, st := range cmpStreams {
		tight[sys.Channels[i].Admitted().DstConn[0]] = st.tight
	}
	sys.Sink(dst).OnTC = func(d router.DeliveredTC) {
		if lat, ok := traffic.ProbeLatency(d.Payload[:], d.Cycle); ok {
			b.observe(tight[d.Conn], lat)
		}
	}
	sys.Run(cycles)
	return b, nil
}

// rival is what the two rival fabrics share with each other (and with
// the real-time router): a clocked component with link ports.
type rival interface {
	sim.Component
	ConnectIn(p int, l *router.InLink)
	ConnectOut(p int, l *router.OutLink)
}

// runRivalLine wires rs into a bidirectional line along x, gives each
// workload stream a periodic source firing inject at its source router
// (sources tick before the routers), and runs, calling collect after
// every cycle to empty the last router's delivery queue.
func runRivalLine[R rival](rs []R, inject func(st cmpStream, id int, r R, now sim.Cycle, seq uint32),
	collect func(), cycles int64) {
	k := sim.NewKernel()
	for i := 0; i+1 < len(rs); i++ {
		fw := router.NewChannel(k)
		rs[i].ConnectOut(router.PortXPlus, fw.Out())
		rs[i+1].ConnectIn(router.PortXMinus, fw.In())
		bw := router.NewChannel(k)
		rs[i+1].ConnectOut(router.PortXMinus, bw.Out())
		rs[i].ConnectIn(router.PortXPlus, bw.In())
	}
	for i, st := range cmpStreams {
		k.Register(traffic.NewPeriodicSource(st.name, st.imin*packet.TCBytes, func(now sim.Cycle, seq uint32) {
			inject(st, i, rs[st.at], now, seq)
		}))
	}
	for _, r := range rs {
		k.Register(r)
	}
	for c := int64(0); c < cycles; c++ {
		k.Step()
		collect()
	}
}

// runComparePF drives the same workload over the priority-forwarding
// model: stream i is connection i+1, routed along the line and delivered
// at pf2, its messages carrying a static priority in the stamp byte —
// the stream's per-hop delay bound (tight 4, loose 16), a
// deadline-monotonic assignment.
func runComparePF(cycles int64) (*bottleneck, error) {
	rs := make([]*baseline.PFRouter, 3)
	for i := range rs {
		var err error
		if rs[i], err = baseline.NewPFRouter(fmt.Sprintf("pf%d", i), 256); err != nil {
			return nil, err
		}
	}
	for i, st := range cmpStreams {
		id := uint8(i + 1)
		for at := st.at; at < len(rs); at++ {
			port := router.PortXPlus
			if at == len(rs)-1 {
				port = router.PortLocal
			}
			if err := rs[at].SetRoute(id, id, 1<<port); err != nil {
				return nil, err
			}
		}
	}
	b := newBottleneck()
	runRivalLine(rs, func(st cmpStream, i int, r *baseline.PFRouter, now sim.Cycle, seq uint32) {
		prio := uint8(st.d / int64(len(rs)-st.at))
		for n := 0; n*packet.TCPayloadBytes < st.size; n++ {
			p := packet.TCPacket{Conn: uint8(i + 1), Stamp: prio}
			// Probe only the first packet so message-level latency
			// counting matches the TCApp-driven architectures.
			if n == 0 {
				traffic.EncodeProbe(p.Payload[:], int64(now), seq)
			}
			r.Inject(p)
		}
	}, func() {
		for _, d := range rs[2].DrainTC() {
			if lat, ok := traffic.ProbeLatency(d.Payload[:], d.Cycle); ok {
				b.observe(cmpStreams[d.Conn-1].tight, lat)
			}
		}
	}, cycles)
	return b, nil
}

// runCompareVC drives the workload over the priority-virtual-channel
// wormhole model. Every time-critical packet rides VC0, the class
// mapping of priority-VC designs, undifferentiated within it: both
// streams share the channel, FIFO/round-robin inside it.
func runCompareVC(cycles int64) (*bottleneck, error) {
	rs := make([]*baseline.VCRouter, 3)
	for i := range rs {
		rs[i] = baseline.NewVCRouter(fmt.Sprintf("vc%d", i))
	}
	b := newBottleneck()
	runRivalLine(rs, func(st cmpStream, _ int, r *baseline.VCRouter, now sim.Cycle, seq uint32) {
		body := make([]byte, st.size)
		traffic.EncodeProbe(body, int64(now), seq)
		frame, err := packet.NewBE(len(rs)-1-st.at, 0, body)
		if err == nil {
			err = r.Inject(0, frame)
		}
		if err != nil {
			panic("experiments: " + err.Error())
		}
	}, func() {
		for _, d := range rs[2].Drain(0) {
			// A wormhole frame carries no connection id: the class is
			// read off the message size.
			if lat, ok := traffic.ProbeLatency(d.Payload, d.Cycle); ok {
				b.observe(len(d.Payload) != cmpLooseSmax, lat)
			}
		}
	}, cycles)
	return b, nil
}

// Table renders the comparison.
func (r *CompareResult) Table() *Table {
	t := &Table{
		Title:  "X2 — architecture comparison on a shared bottleneck (tight d=4-slot stream vs. bulky d=16 streams)",
		Header: []string{"architecture", "tight miss%", "tight mean (cyc)", "loose miss%", "loose mean (cyc)", "tight n", "loose n"},
	}
	for i, name := range r.Disciplines {
		t.AddRow(name,
			f1(r.TightMiss[i]*100), f1(r.TightMean[i]),
			f1(r.LooseMiss[i]*100), f1(r.LooseMean[i]),
			d(r.TightN[i]), d(r.LooseN[i]))
	}
	t.AddNote("expected shape: FIFO hardware misses tight deadlines behind bulky messages;")
	t.AddNote("deadline- and priority-aware designs protect the tight stream (paper §6 argument)")
	return t
}
