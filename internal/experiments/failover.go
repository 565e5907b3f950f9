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

// FailoverResult is the X9 study of the resilience story the paper's
// introduction motivates: multi-hop topologies offer disjoint routes,
// so a link failure costs a re-establishment, not the connection. One
// periodic channel runs across a 3×3 mesh in three phases — healthy,
// failed (its XY link severed, traffic blackholing), and recovered
// (rerouted onto the disjoint YX path).
type FailoverResult struct {
	Phases    []string
	Sent      []int64
	Delivered []int64
	Drops     []int64
	Misses    []int64
	// RerouteOK records that re-admission found the disjoint path.
	RerouteOK bool
}

// probeTrain drives a Manual channel by hand: n probe-stamped messages
// numbered from *seq, one Imin apart — each, if non-nil, runs after
// message i is submitted — then a drain of the channel's bound D.
func probeTrain(sys *core.System, ch *core.Channel, n int, seq *uint32, each func(i int) error) error {
	spec := ch.Spec()
	for i := 0; i < n; i++ {
		if err := sendProbe(sys, ch, seq); err != nil {
			return err
		}
		if each != nil {
			if err := each(i); err != nil {
				return err
			}
		}
		sys.Run(spec.Imin * packet.TCBytes)
	}
	sys.Run(spec.D * packet.TCBytes)
	return nil
}

// sendProbe submits one full-size message stamped with the cycle the
// regulator first sees it.
func sendProbe(sys *core.System, ch *core.Channel, seq *uint32) error {
	body := make([]byte, packet.TCPayloadBytes)
	traffic.EncodeProbe(body, sys.Now()+1, *seq)
	*seq++
	return ch.Send(body)
}

// cornerChannel is the one-channel 3×3 rig X9 and X10 share: a Manual
// channel from (0,0) to (2,2), whose XY and YX routes are disjoint.
func cornerChannel(cfg router.Config, d int64) (*core.System, *core.Channel, error) {
	b, err := core.Fixture{W: 3, H: 3, Options: core.Options{Router: cfg}, Channels: []core.ChannelReq{{
		Src: mesh.Coord{X: 0, Y: 0}, Dsts: []mesh.Coord{{X: 2, Y: 2}}, Manual: true,
		Spec: rtc.Spec{Imin: 8, Smax: packet.TCPayloadBytes, D: d},
	}}}.BuildAll()
	if err != nil {
		return nil, nil, err
	}
	return b.System, b.Channels[0], nil
}

// RunFailover runs the three-phase timeline with the given messages per
// phase.
func RunFailover(perPhase int) (*FailoverResult, error) {
	if perPhase < 1 {
		return nil, fmt.Errorf("experiments: need at least one message per phase")
	}
	sys, ch, err := cornerChannel(router.Config{}, 80)
	if err != nil {
		return nil, err
	}
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 2, Y: 2}
	res := &FailoverResult{}
	seq := uint32(0)
	phase := func(name string, n int) error {
		startDeliv := sys.Sink(dst).TCCount
		startSum := sys.Summarize()
		if err := probeTrain(sys, ch, n, &seq, nil); err != nil {
			return err
		}
		endSum := sys.Summarize()
		res.Phases = append(res.Phases, name)
		res.Sent = append(res.Sent, int64(n))
		res.Delivered = append(res.Delivered, sys.Sink(dst).TCCount-startDeliv)
		res.Drops = append(res.Drops, endSum.TCDrops-startSum.TCDrops)
		res.Misses = append(res.Misses, endSum.TCMisses-startSum.TCMisses)
		return nil
	}
	if err := phase("healthy (XY route)", perPhase); err != nil {
		return nil, err
	}
	if err := sys.FailLink(src, router.PortXPlus); err != nil {
		return nil, err
	}
	if err := phase("link failed, not yet rerouted", perPhase); err != nil {
		return nil, err
	}
	if err := ch.Reroute(); err != nil {
		return nil, err
	}
	res.RerouteOK = !ch.Admitted().Uses(src, router.PortXPlus)
	if err := phase("recovered (YX route)", perPhase); err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the timeline.
func (r *FailoverResult) Table() *Table {
	t := &Table{
		Title:  "X9 — link failure and re-establishment (3x3 mesh, disjoint XY/YX routes)",
		Header: []string{"phase", "sent", "delivered", "dropped", "misses"},
	}
	for i, p := range r.Phases {
		t.AddRow(p, d(r.Sent[i]), d(r.Delivered[i]), d(r.Drops[i]), d(r.Misses[i]))
	}
	if r.RerouteOK {
		t.AddNote("re-admission moved the channel onto the disjoint dimension order; guarantees resumed")
	} else {
		t.AddNote("WARNING: rerouted channel still crosses the failed link")
	}
	return t
}
