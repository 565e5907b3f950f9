package experiments

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// RingResult is the X10 study of the paper's claim that "although the
// implementation is geared toward two-dimensional meshes, the
// architecture directly extends to other network topologies": the
// time-constrained datapath is entirely table-driven, so the same chips
// form a unidirectional ring with no routing changes at all. N routers
// connect +x → −x around the circle; every node opens a channel to the
// node halfway around, the worst-case hop count; all deadlines must
// hold. (Best-effort traffic stays off this topology — its
// dimension-ordered offsets assume a mesh, which is exactly the
// asymmetry the paper's Table 2 sets up.)
type RingResult struct {
	Nodes     int
	Hops      int
	Delivered int64
	Expected  int64
	Misses    int64
	MaxLat    float64
	Budget    float64
}

// RunRing wires nodes routers into a unidirectional ring and runs
// every-node-to-antipode periodic channels with d slots per hop.
func RunRing(nodes int, dPerHop int64, cycles int64) (*RingResult, error) {
	if nodes < 3 || nodes > 32 {
		return nil, fmt.Errorf("experiments: ring size %d out of [3,32]", nodes)
	}
	hops := nodes / 2
	if dPerHop < 1 || dPerHop*int64(hops+1) >= 128 {
		return nil, fmt.Errorf("experiments: per-hop budget %d infeasible for %d hops", dPerHop, hops)
	}
	if cycles <= 0 {
		return nil, fmt.Errorf("experiments: cycles must be positive")
	}
	k := sim.NewKernel()
	res := &RingResult{Nodes: nodes, Hops: hops, Budget: missBound(dPerHop * int64(hops+1))}
	rs := make([]*router.Router, nodes)
	for i := range rs {
		r, err := router.New(fmt.Sprintf("ring%d", i), router.DefaultConfig())
		if err != nil {
			return nil, err
		}
		rs[i] = r
	}
	// The ring: each router's +x output feeds the next router's −x input.
	for i := range rs {
		ch := router.NewChannel(k)
		rs[i].ConnectOut(router.PortXPlus, ch.Out())
		rs[(i+1)%nodes].ConnectIn(router.PortXMinus, ch.In())
	}
	// Channel n: node n → node (n+hops) mod nodes, connection id n at
	// every router (distinct per channel since each node sources one).
	period := int64(4 * hops) // comfortable utilization: hops/(4·hops) per link
	for n := 0; n < nodes; n++ {
		id := uint8(n)
		for h := 0; h < hops; h++ {
			at := rs[(n+h)%nodes]
			if err := at.SetConnection(id, id, uint8(dPerHop), 1<<router.PortXPlus); err != nil {
				return nil, err
			}
		}
		dst := rs[(n+hops)%nodes]
		// Delivery id: reuse the channel id offset into the upper half of
		// the table to avoid clashing with transit entries at that node.
		if err := dst.SetConnection(id, id+128, uint8(dPerHop), 1<<router.PortLocal); err != nil {
			return nil, err
		}
		// One on-time packet per period, stamped on the source's clock.
		src := rs[n]
		k.Register(traffic.NewPeriodicSource(fmt.Sprint("ring-src-", n), period*packet.TCBytes, func(now sim.Cycle, seq uint32) {
			p := packet.TCPacket{Conn: id, Stamp: packet.StampOf(src.SlotNow(int64(now)))}
			traffic.EncodeProbe(p.Payload[:], int64(now), seq)
			src.InjectTC(p)
		}))
	}
	// Table-index safety: ids are globally unique per channel, and no
	// channel transits its own destination (hops < nodes), so a transit
	// entry and a delivery entry never share an index at one router.
	for _, r := range rs {
		k.Register(r)
	}
	sinks := make([]*traffic.Sink, nodes)
	for i, r := range rs {
		sinks[i] = traffic.NewSink("ring-collect", r)
		k.Register(sinks[i])
	}
	k.Run(cycles)

	// The final period's packets may still be in flight at cutoff.
	res.Expected = int64(nodes) * (cycles/(period*packet.TCBytes) - 1)
	for i, r := range rs {
		res.Delivered += sinks[i].TCCount
		res.MaxLat = max(res.MaxLat, sinks[i].TCLatency.Max())
		res.Misses += r.Stats.TCDeadlineMisses
	}
	return res, nil
}

// Table renders the study.
func (r *RingResult) Table() *Table {
	t := &Table{
		Title:  "X10 — table-driven routing beyond the mesh: unidirectional ring (conclusion's topology claim)",
		Header: []string{"nodes", "hops/channel", "delivered", "expected≥", "worst latency (cyc)", "budget (cyc)", "misses"},
	}
	t.AddRow(di(r.Nodes), di(r.Hops), d(r.Delivered), d(r.Expected),
		f1(r.MaxLat), f1(r.Budget), d(r.Misses))
	t.AddNote("no routing logic changed: connection tables express the ring; BE stays mesh-only (Table 2)")
	return t
}
