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
	"slices"

	"repro/internal/admission"
	"repro/internal/mesh"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/timing"
)

// Request is one channel request of a traffic matrix.
type Request struct {
	Src, Dst mesh.Coord
	Spec     rtc.Spec
}

// Options bounds the synthesizer's search.
type Options struct {
	// MaxRepairs is the per-route cap on repair iterations (delay-slack
	// shifts and buffer shrinks) before the search moves to the next
	// candidate route. Zero means DefaultMaxRepairs.
	MaxRepairs int
	// MaxRoutes caps the candidate routes tried per request (the two
	// dimension orders plus staircase variants). Zero means
	// DefaultMaxRoutes.
	MaxRoutes int
}

// DefaultMaxRepairs and DefaultMaxRoutes bound the search when Options
// leaves them zero: enough iterations to drain a hop's slack surplus
// one transfer at a time at campaign scale, and enough routes to reach
// past the two dimension orders without exploding probe counts.
const (
	DefaultMaxRepairs = 64
	DefaultMaxRoutes  = 8
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

// Stats counts the search's work.
type Stats struct {
	// Probes is the number of read-only PlanLayout calls issued.
	Probes int
	// Repairs is the number of delay-split adjustments applied.
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
// sequence prefix.
func Synthesize(net *mesh.Network, ctl *admission.Controller, reqs []Request, opts Options) *Result {
	if opts.MaxRepairs <= 0 {
		opts.MaxRepairs = DefaultMaxRepairs
	}
	if opts.MaxRoutes <= 0 {
		opts.MaxRoutes = DefaultMaxRoutes
	}
	res := &Result{}
	s := &synth{net: net, ctl: ctl, opts: opts, res: res}
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
	net  *mesh.Network
	ctl  *admission.Controller
	opts Options
	res  *Result
}

// place searches for a layout that admits one request. Candidate
// order: the exact greedy layouts first (XY then YX with the uniform
// floor split — byte-identical to what Admit would commit), then the
// slack-aware search (full-budget Decompose split with repair) over
// XY, YX, and staircase routes. The first probe that passes wins.
func (s *synth) place(req Request) (admission.PlanSpec, error) {
	wheel := s.net.Router(req.Src).Wheel()
	routes := candidateRoutes(req.Src, req.Dst, s.opts.MaxRoutes)
	var lastErr error

	// Greedy-identical pass: guarantees the synthesizer never does
	// worse than the default planner on any prefix of the sequence.
	dimRoutes := 1
	if len(routes) > 1 && isDimensionOrdered(req.Src, req.Dst, routes[1]) {
		dimRoutes = 2
	}
	for _, route := range routes[:dimRoutes] {
		d, err := rtc.DecomposeUniform(req.Spec, len(route), wheel)
		if err != nil {
			lastErr = err
			continue
		}
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

	// Slack-aware search: full-budget split, repaired toward the
	// binding hop on busy-period failures, rerouted on utilization or
	// failed-link ones.
	for _, route := range routes {
		ps, err := s.repair(req, route, wheel)
		if err == nil {
			return ps, nil
		}
		lastErr = err
	}
	return admission.PlanSpec{}, lastErr
}

// repair probes one route starting from the full-budget Decompose
// split and steers by the typed rejection until the layout passes, the
// repair budget runs out, or the rejection says this route cannot work
// at any split (utilization and link failures are split-independent).
func (s *synth) repair(req Request, route []int, wheel timing.Wheel) (admission.PlanSpec, error) {
	ds, err := rtc.Decompose(req.Spec, len(route), wheel)
	if err != nil {
		return admission.PlanSpec{}, err
	}
	dsplit := append([]int64(nil), ds...)
	coords := admission.RouteCoords(nil, req.Src, route)
	c := req.Spec.MessageSlots()
	var lastErr error
	for iter := 0; iter <= s.opts.MaxRepairs; iter++ {
		ps := admission.PlanSpec{Src: req.Src, Dst: req.Dst, Spec: req.Spec, Route: route, DSplit: dsplit}
		s.res.Stats.Probes++
		_, err := s.ctl.PlanLayout(ps)
		if err == nil {
			return ps, nil
		}
		lastErr = err
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
				repaired = s.shiftToward(dsplit, j, c, wheel)
			}
		case "buffers":
			// The buffer bound at hop j grows with d_{j-1}+d_j; shrink
			// the larger of the two (forfeiting end-to-end slack).
			if j := hopIndex(coords, rej.Router()); j >= 0 {
				repaired = s.shrinkAround(dsplit, j, c)
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
	return admission.PlanSpec{}, lastErr
}

// shiftToward moves delay slack onto hop j from the hop with the
// largest bound, transferring half the donor's surplus per call (at
// least one slot) so repeated repairs converge geometrically. Returns
// false when no donor has surplus or the receiver cannot grow without
// violating the rollover window.
func (s *synth) shiftToward(ds []int64, j int, c int64, wheel timing.Wheel) bool {
	donor := -1
	for k := range ds {
		if k == j || ds[k] <= c {
			continue
		}
		if donor < 0 || ds[k] > ds[donor] {
			donor = k
		}
	}
	if donor < 0 {
		return false
	}
	t := (ds[donor] - c + 1) / 2
	cfg := s.ctl.ConfigView()
	for t > 0 {
		ok := wheel.ValidDelay(int64(cfg.Horizon) + ds[j] + t)
		if ok && j == 0 {
			ok = wheel.ValidDelay(cfg.SourceWindow + ds[j] + t)
		}
		if ok {
			break
		}
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
// time). The forfeited slot shortens the end-to-end bound — acceptable
// for admitting a channel the pool could not otherwise buffer.
func (s *synth) shrinkAround(ds []int64, j int, c int64) bool {
	cand := j
	if j > 0 && ds[j-1] > ds[j] {
		cand = j - 1
	}
	if ds[cand] <= c {
		// Try the other side before giving up.
		other := j
		if cand == j && j > 0 {
			other = j - 1
		}
		if other == cand || ds[other] <= c {
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
// layout's own probe).
func hopIndex(coords []mesh.Coord, routerName string) int {
	for i, co := range coords {
		if co.String() == routerName {
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
