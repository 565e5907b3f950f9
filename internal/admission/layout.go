package admission

import (
	"repro/internal/mesh"
	"repro/internal/router"
	"repro/internal/rtc"
)

// PlanSpec is an explicit channel layout: a concrete unicast route and
// a per-hop delay split, both chosen by the caller instead of the
// default planner. It is the admission-control face of the layout
// synthesizer (internal/layout): the synthesizer searches over routes
// and splits, and every candidate it settles on goes through exactly
// the same schedulability, buffer, rollover, and identifier checks as
// a default admission — just with the two degrees of freedom the paper
// leaves open (route selection and the decomposition of D into d_j)
// supplied explicitly.
type PlanSpec struct {
	Src, Dst mesh.Coord
	Spec     rtc.Spec
	// Route is the port sequence from Src, one entry per traversed
	// router, ending with PortLocal at Dst — the same shape
	// mesh.XYRoute produces. It must be a simple (loop-free) path.
	Route []int
	// DSplit is the per-hop delay bound d_j, parallel to Route (source
	// router first). Each d_j must cover the message service time, fit
	// the rollover constraints, and the split must sum to at most
	// Spec.D.
	DSplit []int64
}

// PlanLayout runs admission phase 1 for an explicit layout without
// mutating any controller state, returning the admission margin the
// layout would be granted. It is the synthesizer's what-if probe: a
// rejection carries the same typed Rejection (binding resource,
// failing test, margin, router) an Admit rejection would, which is
// exactly the feedback the greedy-plus-repair loop steers by.
func (c *Controller) PlanLayout(ps PlanSpec) (int64, error) {
	p, err := c.planLayout(ps, &c.sc)
	if err != nil {
		return 0, err
	}
	return p.Margin, nil
}

// AdmitLayout establishes a channel along an explicit layout, or
// explains why it cannot. It shares both phases with the default
// planner — planHops for the resource walk, commitPlan for the debit —
// so the ledger, the routers' connection tables, and teardown/restore
// treat a layout channel identically to a default one; the only
// differences are the caller-chosen route, the per-hop deadlines, and
// the audit op "admit_layout".
func (c *Controller) AdmitLayout(ps PlanSpec) (*Channel, error) {
	ch, err := c.planLayout(ps, &c.sc)
	if err == nil {
		ch, err = c.commitPlan(ch)
	}
	c.recordAdmit("admit_layout", ps.Src, []mesh.Coord{ps.Dst}, ps.Spec, ch, err)
	return ch, err
}

// RouteCoords appends the routers a port route visits from src, source
// first (one per route entry; the closing local delivery stays put).
func RouteCoords(buf []mesh.Coord, src mesh.Coord, route []int) []mesh.Coord {
	at := src
	for _, port := range route {
		buf = append(buf, at)
		if port != router.PortLocal {
			at = at.Add(port)
		}
	}
	return buf
}

// planLayout is the explicit-layout door into planHops: it validates
// the caller's route (in-mesh links, loop-free, local delivery at Dst)
// and delay split (every d_j covers the message service time and the
// rollover window, Σd_j ≤ D), lays the route out as a one-leaf skeleton
// with d_j at hop j, then runs the one resource walk. The channel's
// delay structure lives in DSplit; LocalD stays zero.
func (c *Controller) planLayout(ps PlanSpec, sc *evalScratch) (*Channel, error) {
	spec := ps.Spec
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	dsts := []mesh.Coord{ps.Dst}
	if err := c.endpointsOK(ps.Src, dsts); err != nil {
		return nil, err
	}
	n := len(ps.Route)
	if n == 0 {
		return nil, badLayout("empty_route", "admission: layout: empty route")
	}
	if len(ps.DSplit) != n {
		return nil, badLayout("split_length", "admission: layout: %d delay bounds for a %d-hop route", len(ps.DSplit), n)
	}

	// Walk the route once up front: every coordinate visited exactly
	// once, links stay inside the mesh, and the path terminates with a
	// local delivery at the destination.
	at := ps.Src
	for i, port := range ps.Route {
		if i == n-1 {
			if port != router.PortLocal {
				return nil, badLayout("no_local_delivery", "admission: layout: route must end with local delivery, got %s", router.PortName(port))
			}
			if at != ps.Dst {
				return nil, badLayout("wrong_end", "admission: layout: route ends at %s, not %s", at, ps.Dst)
			}
			break
		}
		if port < 0 || port >= router.NumLinks {
			return nil, badLayout("not_a_link", "admission: layout: hop %d uses port %s, not a link", i, router.PortName(port))
		}
		next := at.Add(port)
		if !c.net.Contains(next) {
			return nil, badLayout("leaves_mesh", "admission: layout: route leaves the mesh at %s via %s", at, router.PortName(port))
		}
		at = next
	}
	// Lay the route out as the skeleton, d_j at hop j, checking
	// loop-freedom on the way: a simple path in a mesh revisits a router
	// only if some prefix returns to it; checking pairwise is O(n²) but n
	// is a Manhattan path length, and this runs once per probe.
	hops := appendPath(sc.hops[:0], ps.Src, ps.Route, 0)
	sc.hops = hops
	for i := range hops {
		hops[i].d = ps.DSplit[i]
		for j := 0; j < i; j++ {
			if hops[i].node == hops[j].node {
				return nil, badLayout("revisits", "admission: layout: route revisits %s", hops[i].node)
			}
		}
	}

	// Delay-split constraints: every hop's bound covers the message
	// service time, respects the rollover window (what the downstream
	// hop can see early is window+d_0 at the source, h+d_j elsewhere),
	// and the split spends no more than the end-to-end budget.
	wheel := c.node(ps.Src).wheel
	slots := spec.MessageSlots()
	var sum int64
	for j, d := range ps.DSplit {
		if d < slots {
			return nil, badLayout("bound_below_service", "admission: layout: hop %d bound %d below message service time %d", j, d, slots)
		}
		if err := rolloverOK(wheel, "horizon", int64(c.cfg.Horizon), d); err != nil {
			return nil, err
		}
		sum += d
	}
	if err := rolloverOK(wheel, "source window", c.cfg.SourceWindow, ps.DSplit[0]); err != nil {
		return nil, err
	}
	if sum > spec.D {
		return nil, badLayout("split_over_budget", "admission: layout: split sums to %d, over the end-to-end bound %d", sum, spec.D)
	}

	ch, err := c.planHops(ps.Src, dsts, spec, sc)
	if err != nil {
		return nil, err
	}
	ch.DSplit = append([]int64(nil), ps.DSplit...)
	return ch, nil
}
