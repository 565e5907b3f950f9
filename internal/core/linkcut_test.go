package core

import (
	"fmt"
	"testing"

	"repro/internal/admission"
	"repro/internal/mesh"
	"repro/internal/router"
	"repro/internal/rtc"
)

// TestLinkCutConservation cuts a link under two packets of the channel
// (0,0)→(2,2) at each cycle of the window the packets cross it, and
// checks that each packet is delivered or dropped exactly once and that
// no packet-memory slot stays held. The matrix: the first link of the
// route, (0,0)+x, at every cycle, and the link into the turn at (2,0),
// (1,0)+x, at every other cycle; plain wires, cut-through with the
// horizon at 0 and at 40 slots (early packets cut through at every hop,
// so a cut lands mid-stream on a router that is forwarding it), and
// Integrity (cut-through is off under it); wire latency 1 and 4; and an
// outage repaired before the next cycle, one of 100 cycles, and a
// permanent one. Under the race detector it samples every seventh cut.
func TestLinkCutConservation(t *testing.T) {
	modes := []struct {
		name           string
		vct, integrity bool
		horizon        uint32
	}{{"plain", false, false, 0}, {"vct", true, false, 0}, {"vct-early", true, false, 40}, {"integrity", false, true, 0}}
	links := []struct {
		from       mesh.Coord
		last, step int64
	}{{mesh.Coord{X: 0, Y: 0}, 160, 1}, {mesh.Coord{X: 1, Y: 0}, 420, 2}}
	for _, l := range links {
		for _, m := range modes {
			t.Run(fmt.Sprintf("%s+x/%s", l.from, m.name), func(t *testing.T) {
				t.Parallel()
				step := l.step
				if raceEnabled {
					step *= 7
				}
				for _, lat := range []int{1, 4} {
					for _, outage := range []int64{0, 100, -1} {
						opts := Options{Router: router.DefaultConfig(), Admission: admission.DefaultConfig()}
						opts.Router.VCT, opts.Router.Integrity, opts.Router.LinkLatency = m.vct, m.integrity, lat
						opts.Admission.Horizon = m.horizon
						for at := int64(0); at <= l.last; at += step {
							if err := cutRun(opts, l.from, at, outage); err != nil {
								t.Errorf("latency %d, outage %d, cut at %d: %v", lat, outage, at, err)
							}
						}
					}
				}
			})
		}
	}
}

// cutRun sends two packets from (0,0) to (2,2), fails the link leaving
// from through +x at cycle at, repairs it outage cycles later (never
// when outage < 0), and runs the mesh quiet.
func cutRun(opts Options, from mesh.Coord, at, outage int64) error {
	sys := MustNewMesh(3, 3, opts)
	defer sys.Close()
	ch, err := sys.OpenChannel(mesh.Coord{X: 0, Y: 0}, []mesh.Coord{{X: 2, Y: 2}}, rtc.Spec{Imin: 6, Smax: 18, D: 60})
	if err != nil {
		return err
	}
	for i := range 2 {
		if err := ch.Send([]byte{byte(i)}); err != nil {
			return err
		}
	}
	sys.Run(at)
	if err := sys.Net.FailLink(from, router.PortXPlus); err != nil {
		return err
	}
	if outage >= 0 {
		sys.Run(outage)
		if err := sys.Net.RepairLink(from, router.PortXPlus); err != nil {
			return err
		}
	}
	sys.Run(2000)
	s := sys.Summarize()
	if sent := ch.Paced().Sent; s.TCDelivered+s.TCDrops != sent {
		return fmt.Errorf("%d packets sent, %d delivered, %d dropped", sent, s.TCDelivered, s.TCDrops)
	}
	for _, c := range sys.Net.Coords() {
		if free := sys.Router(c).FreeSlots(); free != opts.Router.Slots {
			return fmt.Errorf("router %s holds %d memory slots", c, opts.Router.Slots-free)
		}
	}
	return nil
}
