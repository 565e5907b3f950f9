// Package layout synthesizes channel layouts: given a traffic matrix
// and a mesh, it searches over candidate routes (XY, YX, and minimal
// staircase paths) and non-uniform per-hop delay splits to admit more
// channels than the default planner's fixed XY/YX-plus-uniform-split
// policy can.
//
// The paper fixes neither degree of freedom — any loop-free route and
// any decomposition of D into per-hop d_j that passes the admission
// tests is legal — but its control plane (and this repo's default
// planner) picks the conservative corner of that space: dimension-
// ordered routes and the uniform floor split, which discards up to
// D mod hops slots of deadline slack at every hop. The synthesizer
// recovers both freedoms with a greedy-plus-repair loop: start from
// the exact greedy layout, and on rejection use the typed rejection's
// binding-link/margin feedback to shift delay slack toward the binding
// hop (busy-period failures) or reroute around it (utilization
// failures), probing each candidate with the controller's read-only
// PlanLayout before committing anything.
//
// Everything the synthesizer admits goes through the same
// schedulability, buffer, rollover, and identifier checks as a default
// admission — it proposes layouts, the controller disposes.
package layout

import (
	"errors"
	"slices"

	"repro/internal/admission"
	"repro/internal/mesh"
	"repro/internal/router"
	"repro/internal/rtc"
)

// Request is one channel request of a traffic matrix.
type Request struct {
	Src, Dst mesh.Coord
	Spec     rtc.Spec
}

// Options is the synthesizer's option set. It has no fields: the search
// bounds are the constants maxRepairs and maxRoutes. The type stays
// because Synthesize's callers, the frozen benchmark module among them,
// pass Options{}.
type Options struct{}

// maxRepairs is the per-route cap on repair iterations (delay-slack
// shifts and buffer shrinks) before the search moves to the next
// candidate route: enough to drain a hop's slack surplus one transfer at
// a time at campaign scale. maxRoutes caps the candidate routes tried per
// request (the two dimension orders plus staircase variants): enough to
// reach past the two dimension orders without exploding probe counts.
const (
	maxRepairs = 64
	maxRoutes  = 8
)

// Admitted records one synthesized admission: the channel the
// controller granted and the exact layout it was granted for (the
// shadow re-validation replays these verbatim).
type Admitted struct {
	Request int // index into the request slice
	Plan    admission.PlanSpec
	Channel *admission.Channel
}

// Rejected records one request no candidate layout could place, with
// the last rejection the search saw.
type Rejected struct {
	Request int
	Err     error
}

// Stats counts the search's work in steps: a repair loop the cycle
// rule stops early (see repair) still counts every step it would have
// taken, so the counts do not depend on how many probes were skipped.
type Stats struct {
	// Probes is the number of layout probes the search took, each a
	// read-only PlanLayout call or a repeat the cycle rule answered
	// without one.
	Probes int
	// Repairs is the number of delay-split adjustments the search took,
	// those of a skipped repeat included.
	Repairs int
	// Rerouted counts admissions whose route is neither XY nor YX.
	Rerouted int
	// Nonuniform counts admissions whose split is not the uniform floor.
	Nonuniform int
}

// Result is the synthesizer's output for one request sequence.
type Result struct {
	Admitted []Admitted
	Rejected []Rejected
	Stats    Stats
}

// Synthesize runs the requests in order against the controller,
// admitting each through the best layout the search finds. Requests
// are processed greedily (no backtracking over earlier admissions);
// the candidate order guarantees any request the default planner would
// admit is admitted with the byte-identical layout, so a synthesized
// run never places fewer channels than the greedy baseline on the same
// sequence prefix. net is the mesh ctl admits on; the search reads the
// legal range of every delay bound from ctl itself.
func Synthesize(net *mesh.Network, ctl *admission.Controller, reqs []Request, _ Options) *Result {
	res := &Result{}
	s := &synth{ctl: ctl, res: res}
	for i, req := range reqs {
		ps, err := s.place(req)
		if err != nil {
			res.Rejected = append(res.Rejected, Rejected{Request: i, Err: err})
			continue
		}
		ch, err := ctl.AdmitLayout(ps)
		if err != nil {
			// The probe said yes and nothing committed in between, so
			// this cannot happen; surface it as a rejection rather than
			// panicking in a campaign.
			res.Rejected = append(res.Rejected, Rejected{Request: i, Err: err})
			continue
		}
		res.Admitted = append(res.Admitted, Admitted{Request: i, Plan: ps, Channel: ch})
		if !isDimensionOrdered(req.Src, req.Dst, ps.Route) {
			res.Stats.Rerouted++
		}
		if !isUniform(ps.DSplit) {
			res.Stats.Nonuniform++
		}
	}
	return res
}

type synth struct {
	ctl *admission.Controller
	res *Result
	// probed holds the splits repair has probed on its current route,
	// one route-length run per iteration, and errs the rejection of each.
	probed []int64
	errs   []error
}

// place searches for a layout that admits one request. Candidate
// order: the exact greedy layouts first (XY then YX with the uniform
// floor split — byte-identical to what Admit would commit), then the
// slack-aware search (the full budget split with repair) over XY, YX,
// and staircase routes. The first probe that passes wins; a split
// outside the controller's DelayRange is never probed.
func (s *synth) place(req Request) (admission.PlanSpec, error) {
	routes := candidateRoutes(req.Src, req.Dst, maxRoutes)
	var lastErr error

	// Greedy-identical pass: guarantees the synthesizer never does
	// worse than the default planner on any prefix of the sequence.
	// Every minimal route has the same length, so one uniform bound
	// serves both orders.
	dimRoutes := 1
	if len(routes) > 1 && isDimensionOrdered(req.Src, req.Dst, routes[1]) {
		dimRoutes = 2
	}
	d := req.Spec.D / int64(len(routes[0]))
	if lo, hi := s.ctl.DelayRange(req.Src, req.Spec, 0); d >= lo && d <= hi {
		for _, route := range routes[:dimRoutes] {
			ds := make([]int64, len(route))
			for j := range ds {
				ds[j] = d
			}
			ps := admission.PlanSpec{Src: req.Src, Dst: req.Dst, Spec: req.Spec, Route: route, DSplit: ds}
			s.res.Stats.Probes++
			if _, err := s.ctl.PlanLayout(ps); err == nil {
				return ps, nil
			} else {
				lastErr = err
			}
		}
	}

	// Slack-aware search: full-budget split, repaired toward the
	// binding hop on busy-period failures, rerouted on utilization or
	// failed-link ones.
	for _, route := range routes {
		ps, err := s.repair(req, route)
		if err == nil {
			return ps, nil
		}
		lastErr = err
	}
	return admission.PlanSpec{}, lastErr
}

// errNoSplit refuses a request none of whose candidate splits lies in
// the controller's DelayRange: its budget is too tight for the route's
// message service times, or too loose for the rollover window.
var errNoSplit = errors.New("layout: no delay split of the route fits the legal range of d_j")

// repair probes one route starting from the full-budget split — D
// divided evenly over the hops, the remainder one slot each on the
// first hops, where queueing for injection concentrates — and steers by
// the typed rejection until the layout passes, the repair budget runs
// out, or the rejection says this route cannot work at any split
// (utilization and link failures are split-independent).
//
// The loop stops at its first repeat. PlanLayout is a pure function of
// the controller's state and the layout, nothing commits between probes,
// and each repair depends only on the split and the rejection; so once
// the split about to be probed equals the split of an earlier iteration
// m, the loop runs in a cycle of period iter − m, every remaining
// iteration probing and repairing, up to maxRepairs. The cycle rule
// counts those steps without taking them and returns the rejection the
// last one would have seen.
func (s *synth) repair(req Request, route []int) (admission.PlanSpec, error) {
	segs := int64(len(route))
	dsplit := make([]int64, segs)
	for j := range dsplit {
		dsplit[j] = req.Spec.D / segs
		if int64(j) < req.Spec.D%segs {
			dsplit[j]++
		}
	}
	// The first hop holds the largest bound and has the tightest range,
	// the last the smallest bound.
	lo, hi0 := s.ctl.DelayRange(req.Src, req.Spec, 0)
	if dsplit[segs-1] < lo || dsplit[0] > hi0 {
		return admission.PlanSpec{}, errNoSplit
	}
	coords := admission.RouteCoords(nil, req.Src, route)
	s.probed, s.errs = s.probed[:0], s.errs[:0]
	for iter := 0; iter <= maxRepairs; iter++ {
		if m := s.seen(dsplit); m >= 0 {
			left := maxRepairs + 1 - iter
			s.res.Stats.Probes += left
			s.res.Stats.Repairs += left
			return admission.PlanSpec{}, s.errs[m+(maxRepairs-m)%(iter-m)]
		}
		ps := admission.PlanSpec{Src: req.Src, Dst: req.Dst, Spec: req.Spec, Route: route, DSplit: dsplit}
		s.res.Stats.Probes++
		_, err := s.ctl.PlanLayout(ps)
		if err == nil {
			return ps, nil
		}
		s.probed = append(s.probed, dsplit...)
		s.errs = append(s.errs, err)
		rej, ok := admission.Explain(err)
		if !ok {
			// Validation error (rollover, budget): not repairable by
			// slot-level shifts — next route.
			return admission.PlanSpec{}, err
		}
		var repaired bool
		switch rej.FailingTest() {
		case "busy_period":
			// The binding link's deadline is too tight: grow that hop's
			// bound with slack taken from the richest other hop. The
			// utilization sum ΣC/T is split-independent, so only the
			// demand-bound half of the test can be repaired this way.
			if j := hopIndex(coords, rej.Router()); j >= 0 {
				_, hi := s.ctl.DelayRange(req.Src, req.Spec, j)
				repaired = shiftToward(dsplit, j, lo, hi)
			}
		case "buffers":
			// The buffer bound at hop j grows with d_{j-1}+d_j; shrink
			// the larger of the two (forfeiting end-to-end slack).
			if j := hopIndex(coords, rej.Router()); j >= 0 {
				repaired = shrinkAround(dsplit, j, lo)
			}
		default:
			// utilization, link_failed, conn_ids: no delay split fixes
			// these — reroute.
			return admission.PlanSpec{}, err
		}
		if !repaired {
			return admission.PlanSpec{}, err
		}
		s.res.Stats.Repairs++
	}
	return admission.PlanSpec{}, s.errs[maxRepairs]
}

// seen returns the iteration whose probed split equals ds, or -1. It
// looks newest first: most cycles have period 2.
func (s *synth) seen(ds []int64) int {
	n := len(ds)
	for m := len(s.errs) - 1; m >= 0; m-- {
		if slices.Equal(s.probed[m*n:(m+1)*n], ds) {
			return m
		}
	}
	return -1
}

// shiftToward moves delay slack onto hop j from the hop with the
// largest bound, transferring half the donor's surplus over lo per call
// (at least one slot) so repeated repairs converge geometrically; the
// transfer halves until hop j's bound stays within hi. Returns false
// when no donor has surplus or the receiver cannot grow at all.
func shiftToward(ds []int64, j int, lo, hi int64) bool {
	donor := -1
	for k := range ds {
		if k == j || ds[k] <= lo {
			continue
		}
		if donor < 0 || ds[k] > ds[donor] {
			donor = k
		}
	}
	if donor < 0 {
		return false
	}
	t := (ds[donor] - lo + 1) / 2
	for t > 0 && ds[j]+t > hi {
		t /= 2
	}
	if t <= 0 {
		return false
	}
	ds[donor] -= t
	ds[j] += t
	return true
}

// shrinkAround lowers the buffer bound at hop j by shrinking the
// larger of d_{j-1} and d_j one slot (never below the message service
// time lo). The forfeited slot shortens the end-to-end bound —
// acceptable for admitting a channel the pool could not otherwise
// buffer.
func shrinkAround(ds []int64, j int, lo int64) bool {
	cand := j
	if j > 0 && ds[j-1] > ds[j] {
		cand = j - 1
	}
	if ds[cand] <= lo {
		// Try the other side before giving up.
		other := j
		if cand == j && j > 0 {
			other = j - 1
		}
		if other == cand || ds[other] <= lo {
			return false
		}
		cand = other
	}
	ds[cand]--
	return true
}

// hopIndex finds the route hop owned by the named router (rejection
// Router() strings render mesh coordinates), -1 when the router is not
// on the route (cannot happen for controller rejections of this
// layout's own probe). Each coordinate is rendered into a stack buffer:
// every repair probe asks, so it must not allocate.
func hopIndex(coords []mesh.Coord, routerName string) int {
	var buf [48]byte
	for i, co := range coords {
		if string(co.AppendString(buf[:0])) == routerName {
			return i
		}
	}
	return -1
}

// isDimensionOrdered reports whether route is the XY or YX path for
// the endpoints.
func isDimensionOrdered(src, dst mesh.Coord, route []int) bool {
	return slices.Equal(route, mesh.XYRoute(src, dst)) || slices.Equal(route, mesh.YXRoute(src, dst))
}

// isUniform reports whether every hop shares one bound — the shape the
// default planner's floor split produces.
func isUniform(ds []int64) bool {
	for _, d := range ds[1:] {
		if d != ds[0] {
			return false
		}
	}
	return true
}

// candidateRoutes enumerates Manhattan-minimal routes from src to dst:
// the XY path, the YX path (when both dimensions move), and staircase
// paths that switch dimensions partway (k steps in the first dimension,
// the full second dimension, then the remainder). All candidates end
// with the local delivery port; max bounds the list. XY and YX lead so
// the greedy-identical pass can reuse the prefix.
func candidateRoutes(src, dst mesh.Coord, max int) [][]int {
	routes := [][]int{mesh.XYRoute(src, dst)}
	dx, dy := dst.X-src.X, dst.Y-src.Y
	if dx == 0 || dy == 0 {
		return routes // one dimension: XY, YX and all staircases coincide
	}
	routes = append(routes, mesh.YXRoute(src, dst))
	xPort, yPort := router.PortXPlus, router.PortYPlus
	nx, ny := dx, dy
	if nx < 0 {
		xPort, nx = router.PortXMinus, -nx
	}
	if ny < 0 {
		yPort, ny = router.PortYMinus, -ny
	}
	stair := func(firstPort, secondPort int, k, nFirst, nSecond int) []int {
		r := make([]int, 0, nx+ny+1)
		for i := 0; i < k; i++ {
			r = append(r, firstPort)
		}
		for i := 0; i < nSecond; i++ {
			r = append(r, secondPort)
		}
		for i := k; i < nFirst; i++ {
			r = append(r, firstPort)
		}
		return append(r, router.PortLocal)
	}
	// Interleave x-first and y-first staircases by split point so a
	// small max still samples both families near the middle of the
	// path, where staircases diverge most from the dimension orders.
	for k := 1; len(routes) < max && (k < nx || k < ny); k++ {
		if k < nx {
			routes = append(routes, stair(xPort, yPort, k, nx, ny))
		}
		if len(routes) < max && k < ny {
			routes = append(routes, stair(yPort, xPort, k, ny, nx))
		}
	}
	return routes
}
