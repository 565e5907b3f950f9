package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/traffic"
)

// MulticastResult is the X4 study of the router's table-driven multicast
// (Section 3.3): one-to-k command distribution on a 4×4 mesh, checking
// that every branch receives every message inside the composed deadline
// and that the shared-leaf fan-out reclaims its memory.
type MulticastResult struct {
	Fanouts   []int
	MaxLat    []float64 // worst observed latency across branches, cycles
	Bound     []float64 // end-to-end budget in cycles
	Delivered []int64   // total deliveries (messages × branches)
	Expected  []int64
	Misses    int64
	SlotLeaks int
}

// RunMulticast sweeps the destination fan-out.
func RunMulticast(fanouts []int, messages int) (*MulticastResult, error) {
	if len(fanouts) == 0 || messages < 1 {
		return nil, fmt.Errorf("experiments: invalid multicast config")
	}
	// Destination sets by fan-out, all reachable from (0,0) on a 4×4
	// mesh.
	all := []mesh.Coord{
		{X: 3, Y: 0}, {X: 0, Y: 3}, {X: 3, Y: 3}, {X: 2, Y: 1},
		{X: 1, Y: 2}, {X: 2, Y: 3}, {X: 3, Y: 2}, {X: 1, Y: 1},
	}
	res := &MulticastResult{}
	for _, k := range fanouts {
		if k < 1 || k > len(all) {
			return nil, fmt.Errorf("experiments: fan-out %d out of range [1,%d]", k, len(all))
		}
		dsts := all[:k]
		spec := rtc.Spec{Imin: 16, Smax: packet.TCPayloadBytes, D: 98}
		sys, err := core.Fixture{W: 4, H: 4, Channels: []core.ChannelReq{{
			Src: mesh.Coord{X: 0, Y: 0}, Dsts: dsts, Spec: spec, Manual: true,
		}}}.BuildAll()
		if err != nil {
			return nil, err
		}
		var worst float64
		for _, d := range dsts {
			sys.Sink(d).OnTC = func(del router.DeliveredTC) {
				if lat, ok := traffic.ProbeLatency(del.Payload[:], del.Cycle); ok {
					worst = max(worst, float64(lat))
				}
			}
		}
		seq := uint32(0)
		if err := probeTrain(sys.System, sys.Channels[0], messages, &seq, nil); err != nil {
			return nil, err
		}
		sum := sys.Summarize()
		res.Fanouts = append(res.Fanouts, k)
		res.MaxLat = append(res.MaxLat, worst)
		res.Bound = append(res.Bound, missBound(spec.D))
		res.Delivered = append(res.Delivered, sum.TCDelivered)
		res.Expected = append(res.Expected, int64(messages*k))
		res.Misses += sum.TCMisses
		for _, c := range sys.Net.Coords() {
			r := sys.Router(c)
			if r.FreeSlots() != r.Config().Slots {
				res.SlotLeaks++
			}
		}
	}
	return res, nil
}

// Table renders the sweep.
func (r *MulticastResult) Table() *Table {
	t := &Table{
		Title:  "X4 — table-driven multicast on a 4x4 mesh (one-to-k command distribution)",
		Header: []string{"fan-out k", "delivered", "expected", "worst latency (cyc)", "budget (cyc)"},
	}
	for i, k := range r.Fanouts {
		t.AddRow(di(k), d(r.Delivered[i]), d(r.Expected[i]), f1(r.MaxLat[i]), f1(r.Bound[i]))
	}
	t.AddNote("one shared memory slot per router fans out to all branches; slot leaks: %d, misses: %d",
		r.SlotLeaks, r.Misses)
	return t
}
