package core

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/traffic"
)

// TestNodeHandOverOrder pins the registration order the sim package
// documents for a mesh: every router registers before any node software,
// so a packet its pacer releases in cycle c enters the router in cycle
// c+1 — the router has already run cycle c when the release lands, which
// the release event's cycle shows — and a packet the router delivers in
// cycle c is drained by its sink in cycle c. Both hold on the sequential
// kernel and on the worker pool, whose wake lists have the router or the
// sink asleep when most hand-overs reach it, and on a kernel a barrier
// keeps awake, which ticks everyone every cycle.
func TestNodeHandOverOrder(t *testing.T) {
	for _, leg := range []struct {
		name    string
		workers int
		control bool
	}{{"sequential", 1, false}, {"pool", 2, false}, {"every-cycle", 1, true}} {
		sys := MustNewMesh(3, 3, Options{Workers: leg.workers})
		if leg.workers > 1 {
			sys.Net.Kernel.ForcePool(true)
		}
		if leg.control {
			sys.Net.Kernel.Register(keepAwake{})
		}
		src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 2, Y: 1}
		spec := rtc.Spec{Imin: 24, Smax: 18, D: 60}
		ch, err := sys.OpenChannel(src, []mesh.Coord{dst}, spec)
		if err != nil {
			t.Fatal(err)
		}
		app, err := traffic.NewTCApp("tc", ch, spec, traffic.Periodic, spec.Smax)
		if err != nil {
			t.Fatal(err)
		}
		sys.RegisterNode(src, app)

		var releases, late, drains, stale int
		rs := sys.Router(src)
		prev := rs.OnLifecycle
		rs.OnLifecycle = func(e router.LifecycleEvent) {
			if prev != nil {
				prev(e)
			}
			if e.Kind == router.EvInject {
				releases++
				if e.Cycle != sys.Now() {
					late++
				}
			}
		}
		sys.Sink(dst).OnTC = func(d router.DeliveredTC) {
			drains++
			if d.Cycle != sys.Now() {
				stale++
			}
		}
		sys.Run(20000)
		sys.Close()
		if releases < 30 || drains < 30 || late != 0 || stale != 0 {
			t.Errorf("%s: %d releases, %d seen by a router that had not run their cycle; %d drains, %d not in the delivery's cycle",
				leg.name, releases, late, drains, stale)
		}
		if ticked, slept := sys.Net.Kernel.Activity(nil); leg.control != (slept == 0) || !leg.control && slept < ticked {
			t.Errorf("%s: slept %d of %d component-cycles", leg.name, slept, ticked+slept)
		}
	}
}
