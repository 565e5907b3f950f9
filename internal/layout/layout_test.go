package layout

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/admission"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/rtc"
)

func newPair(t testing.TB, w, h int, reference bool) (*mesh.Network, *admission.Controller) {
	t.Helper()
	cfg := admission.DefaultConfig()
	cfg.Reference = reference
	return newCtl(t, w, h, router.DefaultConfig(), cfg)
}

// newCtl builds a w×h mesh of rcfg routers and a controller over it.
func newCtl(t testing.TB, w, h int, rcfg router.Config, cfg admission.Config) (*mesh.Network, *admission.Controller) {
	t.Helper()
	net, err := mesh.New(w, h, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := admission.New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net, ctl
}

// TestUniformBoundWithRemainderAtRangeTop is the regression test for a
// uniform door that validated a bound it never programs. With no source
// window and no horizon the legal range of d on an 8-bit clock tops out
// at 127; D = 255 over two routers splits as 127 per hop with one slot
// left over. The door programs 127 at both hops, so the request is legal
// through every door: Admit, PlanLayout of the uniform split, and the
// synthesizer — which used to refuse it after 0 probes because the
// remainder slot made 128 look like a bound to check.
func TestUniformBoundWithRemainderAtRangeTop(t *testing.T) {
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 1, Y: 0}
	spec := rtc.Spec{Imin: 200, Smax: 18, D: 255}
	cfg := admission.Config{SourceWindow: 0}

	_, ctl := newCtl(t, 2, 1, router.DefaultConfig(), cfg)
	if lo, hi := ctl.DelayRange(src, spec, 0); lo != 1 || hi != 127 {
		t.Fatalf("source DelayRange = [%d, %d], want [1, 127]", lo, hi)
	}
	ps := admission.PlanSpec{Src: src, Dst: dst, Spec: spec, Route: mesh.XYRoute(src, dst), DSplit: []int64{127, 127}}
	if _, err := ctl.PlanLayout(ps); err != nil {
		t.Fatalf("PlanLayout refuses the uniform split [127 127]: %v", err)
	}
	ch, err := ctl.Admit(src, []mesh.Coord{dst}, spec)
	if err != nil {
		t.Fatalf("Admit refuses D = 255 over 2 hops: %v", err)
	}
	if ch.LocalD != 127 {
		t.Fatalf("Admit programmed LocalD %d, want 127", ch.LocalD)
	}

	net, sctl := newCtl(t, 2, 1, router.DefaultConfig(), cfg)
	res := Synthesize(net, sctl, []Request{{Src: src, Dst: dst, Spec: spec}}, Options{})
	if len(res.Admitted) != 1 || res.Stats.Probes != 1 {
		t.Fatalf("Synthesize admitted %d after %d probes (rejections %v), want 1 after 1",
			len(res.Admitted), res.Stats.Probes, res.Rejected)
	}
	if got := res.Admitted[0].Plan.DSplit; !slices.Equal(got, []int64{127, 127}) {
		t.Fatalf("Synthesize split %v, want the greedy [127 127]", got)
	}
}

// TestRepairShiftClampedByRange drives one repair whose slack transfer
// must halve to keep the receiving hop inside its DelayRange. On a
// 6-bit clock with no window or horizon every hop's range is [1, 31].
// Two channels of 13-slot messages from (1,0) load the link (1,0)→+x
// with deadlines 26, so a third task there meets its deadline only if
// that deadline is at least 27 (dbf(26) = 26 + 1 otherwise). The
// request (0,0)→(2,0) with D = 75 starts from the split [25 25 25],
// which fails busy_period at hop 1; the repair's transfer from hop 0 is
// half its surplus, 12 slots, which would put hop 1 at 37 > 31. Halved
// once to 6 it lands on 31, the top of the range, and the layout
// passes.
func TestRepairShiftClampedByRange(t *testing.T) {
	rcfg := router.DefaultConfig()
	rcfg.ClockBits = 6
	net, ctl := newCtl(t, 3, 2, rcfg, admission.Config{SourceWindow: 0})
	load := rtc.Spec{Imin: 100, Smax: 13 * 18, D: 3 * 26}
	for i := 0; i < 2; i++ {
		if _, err := ctl.Admit(mesh.Coord{X: 1, Y: 0}, []mesh.Coord{{X: 2, Y: 1}}, load); err != nil {
			t.Fatalf("load channel %d: %v", i, err)
		}
	}
	req := Request{Src: mesh.Coord{X: 0, Y: 0}, Dst: mesh.Coord{X: 2, Y: 0}, Spec: rtc.Spec{Imin: 100, Smax: 18, D: 75}}
	if _, hi := ctl.DelayRange(req.Src, req.Spec, 1); hi != 31 {
		t.Fatalf("downstream DelayRange tops out at %d, want 31", hi)
	}
	res := Synthesize(net, ctl, []Request{req}, Options{})
	if len(res.Admitted) != 1 {
		t.Fatalf("request refused: %v", res.Rejected)
	}
	if got := res.Admitted[0].Plan.DSplit; !slices.Equal(got, []int64{19, 31, 25}) || res.Stats.Repairs != 1 {
		t.Fatalf("split %v after %d repairs, want [19 31 25] after 1", got, res.Stats.Repairs)
	}
}

// uniformRequests is a deterministic stride pattern past saturation.
func uniformRequests(w, h, n int) []Request {
	reqs := make([]Request, n)
	nodes := w * h
	for i := range reqs {
		s := (i*7 + 3) % nodes
		d := (i*13 + 5) % nodes
		if d == s {
			d = (d + 1) % nodes
		}
		reqs[i] = Request{
			Src:  mesh.Coord{X: s % w, Y: s / w},
			Dst:  mesh.Coord{X: d % w, Y: d / w},
			Spec: rtc.Spec{Imin: 16, Smax: 18, D: 64},
		}
	}
	return reqs
}

// TestSynthesizerInertness is the differential guarantee the PR rides
// on: with the optimizer unused, the default Admit path's observable
// bytes — sealed ledger, audit dump hash, and every rejection string —
// are identical whether or not layout probes ever ran against the
// controller. PlanLayout is a read-only what-if; if it ever perturbs
// admission state, this test catches the drift byte-for-byte.
func TestSynthesizerInertness(t *testing.T) {
	w, h := 6, 6
	_, plain := newPair(t, w, h, false)
	_, probed := newPair(t, w, h, false)
	plainLog, probedLog := obs.NewAuditLog(), obs.NewAuditLog()
	plain.AttachAudit(plainLog)
	probed.AttachAudit(probedLog)

	reqs := uniformRequests(w, h, 3*w*h)
	rng := rand.New(rand.NewSource(3))
	for i, r := range reqs {
		// Interleave read-only layout probes on the probed controller:
		// valid ones, invalid ones, and ones that are refused on
		// resources. None may leave a trace.
		for k := 0; k < 1+rng.Intn(3); k++ {
			route := mesh.XYRoute(r.Src, r.Dst)
			if rng.Intn(2) == 0 {
				route = mesh.YXRoute(r.Src, r.Dst)
			}
			split := make([]int64, len(route))
			per := r.Spec.D / int64(len(route))
			for j := range split {
				split[j] = per - int64(rng.Intn(3)) // sometimes below service time
			}
			probed.PlanLayout(admission.PlanSpec{
				Src: r.Src, Dst: r.Dst, Spec: r.Spec, Route: route, DSplit: split,
			})
		}
		_, perr := plain.Admit(r.Src, []mesh.Coord{r.Dst}, r.Spec)
		_, qerr := probed.Admit(r.Src, []mesh.Coord{r.Dst}, r.Spec)
		if (perr == nil) != (qerr == nil) {
			t.Fatalf("request %d: verdicts diverge after layout probes: plain=%v probed=%v", i, perr, qerr)
		}
		if perr != nil && perr.Error() != qerr.Error() {
			t.Fatalf("request %d: rejection bytes diverge after layout probes:\n plain %q\nprobed %q", i, perr, qerr)
		}
	}
	plainSeal, err := json.Marshal(plain.Seal())
	if err != nil {
		t.Fatal(err)
	}
	probedSeal, err := json.Marshal(probed.Seal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainSeal, probedSeal) {
		t.Fatal("sealed ledgers diverge: layout probes perturbed default admission state")
	}
	if plainLog.DumpHash() != probedLog.DumpHash() {
		t.Fatal("audit logs diverge: layout probes left records on the default path")
	}
	if err := probed.VerifyLedger(); err != nil {
		t.Fatal(err)
	}
}

// TestSynthesizedPlansReferenceAgreement is the fuzz leg: every layout
// the synthesizer settles on is re-admitted, in commit order, by a
// from-scratch Reference-mode controller, which must agree on channel
// identity, reservation totals, and the final sealed ledger bytes.
func TestSynthesizedPlansReferenceAgreement(t *testing.T) {
	w, h := 6, 6
	net, ctl := newPair(t, w, h, false)
	res := Synthesize(net, ctl, uniformRequests(w, h, 3*w*h), Options{})
	if len(res.Admitted) == 0 {
		t.Fatal("synthesizer admitted nothing")
	}
	_, shadow := newPair(t, w, h, true)
	for _, adm := range res.Admitted {
		sch, err := shadow.AdmitLayout(adm.Plan)
		if err != nil {
			t.Fatalf("reference controller refused synthesized layout for request %d: %v", adm.Request, err)
		}
		if sch.ID != adm.Channel.ID || sch.Margin != adm.Channel.Margin ||
			sch.SrcConn != adm.Channel.SrcConn || sch.Bound() != adm.Channel.Bound() {
			t.Fatalf("request %d: reference channel diverges: got id=%d margin=%d conn=%d bound=%d, want id=%d margin=%d conn=%d bound=%d",
				adm.Request, sch.ID, sch.Margin, sch.SrcConn, sch.Bound(),
				adm.Channel.ID, adm.Channel.Margin, adm.Channel.SrcConn, adm.Channel.Bound())
		}
	}
	ctlSeal, err := json.Marshal(ctl.Seal())
	if err != nil {
		t.Fatal(err)
	}
	shadowSeal, err := json.Marshal(shadow.Seal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ctlSeal, shadowSeal) {
		t.Fatal("sealed ledgers diverge between synthesizer run and reference replay")
	}
	if err := shadow.VerifyLedger(); err != nil {
		t.Fatal(err)
	}
}

// TestSynthesizeAtLeastGreedy checks the structural guarantee that the
// search's first candidates are the greedy planner's own layouts: on
// any request sequence the synthesizer admits at least as many channels
// as the default path.
func TestSynthesizeAtLeastGreedy(t *testing.T) {
	w, h := 6, 6
	reqs := uniformRequests(w, h, 3*w*h)

	_, greedy := newPair(t, w, h, false)
	admitted := 0
	for _, r := range reqs {
		if _, err := greedy.Admit(r.Src, []mesh.Coord{r.Dst}, r.Spec); err == nil {
			admitted++
		}
	}
	net, ctl := newPair(t, w, h, false)
	res := Synthesize(net, ctl, reqs, Options{})
	if len(res.Admitted) < admitted {
		t.Fatalf("synthesizer admitted %d < greedy %d", len(res.Admitted), admitted)
	}
	if got := len(res.Admitted) + len(res.Rejected); got != len(reqs) {
		t.Fatalf("admitted %d + rejected %d != %d requests", len(res.Admitted), len(res.Rejected), len(reqs))
	}
}

// TestCandidateRoutes checks the route generator's invariants: XY
// first, then YX, then staircases; every candidate is Manhattan-minimal
// and ends with local delivery at the destination.
func TestCandidateRoutes(t *testing.T) {
	src, dst := mesh.Coord{X: 1, Y: 1}, mesh.Coord{X: 4, Y: 3}
	routes := candidateRoutes(src, dst, maxRoutes)
	if len(routes) < 2 {
		t.Fatalf("got %d candidates, want at least XY and YX", len(routes))
	}
	manhattan := 3 + 2 + 1 // dx + dy + local
	seen := make(map[string]bool)
	for i, route := range routes {
		if len(route) != manhattan {
			t.Errorf("candidate %d has %d hops, want %d (Manhattan-minimal)", i, len(route), manhattan)
		}
		at := src
		for j, port := range route {
			if j == len(route)-1 {
				if port != router.PortLocal {
					t.Errorf("candidate %d does not end with local delivery", i)
				}
				break
			}
			at = at.Add(port)
		}
		if at != dst {
			t.Errorf("candidate %d ends at %s, want %s", i, at, dst)
		}
		key := ""
		for _, p := range route {
			key += router.PortName(p) + ","
		}
		if seen[key] {
			t.Errorf("candidate %d duplicates an earlier route", i)
		}
		seen[key] = true
	}

	// Single-dimension pairs have exactly one minimal route.
	routes = candidateRoutes(mesh.Coord{X: 0, Y: 2}, mesh.Coord{X: 3, Y: 2}, maxRoutes)
	if len(routes) != 1 {
		t.Errorf("aligned pair produced %d candidates, want 1", len(routes))
	}
}

// oracle is the search without the cycle rule: every repair loop probes
// until a layout passes, a rejection cannot be repaired, or maxRepairs+1
// probes are spent. It records the splits each loop probed
// and, per loop that repeated one, the iteration m of the first repeated
// split and the period L of the cycle it opens.
type oracle struct {
	synth
	starts, periods []int
}

// place is synth.place with oracle.repair in place of synth.repair.
func (o *oracle) place(req Request) (admission.PlanSpec, error) {
	routes := candidateRoutes(req.Src, req.Dst, maxRoutes)
	var lastErr error
	dimRoutes := 1
	if len(routes) > 1 && isDimensionOrdered(req.Src, req.Dst, routes[1]) {
		dimRoutes = 2
	}
	d := req.Spec.D / int64(len(routes[0]))
	if lo, hi := o.ctl.DelayRange(req.Src, req.Spec, 0); d >= lo && d <= hi {
		for _, route := range routes[:dimRoutes] {
			ds := make([]int64, len(route))
			for j := range ds {
				ds[j] = d
			}
			ps := admission.PlanSpec{Src: req.Src, Dst: req.Dst, Spec: req.Spec, Route: route, DSplit: ds}
			o.res.Stats.Probes++
			if _, err := o.ctl.PlanLayout(ps); err == nil {
				return ps, nil
			} else {
				lastErr = err
			}
		}
	}
	for _, route := range routes {
		ps, err := o.repair(req, route)
		if err == nil {
			return ps, nil
		}
		lastErr = err
	}
	return admission.PlanSpec{}, lastErr
}

// repair is the full repair loop: synth.repair without the cycle rule.
func (o *oracle) repair(req Request, route []int) (admission.PlanSpec, error) {
	segs := int64(len(route))
	dsplit := make([]int64, segs)
	for j := range dsplit {
		dsplit[j] = req.Spec.D / segs
		if int64(j) < req.Spec.D%segs {
			dsplit[j]++
		}
	}
	lo, hi0 := o.ctl.DelayRange(req.Src, req.Spec, 0)
	if dsplit[segs-1] < lo || dsplit[0] > hi0 {
		return admission.PlanSpec{}, errNoSplit
	}
	coords := admission.RouteCoords(nil, req.Src, route)
	var probed [][]int64
	defer func() {
		for i := range probed {
			for m := range i {
				if slices.Equal(probed[m], probed[i]) {
					o.starts, o.periods = append(o.starts, m), append(o.periods, i-m)
					return
				}
			}
		}
	}()
	var lastErr error
	for iter := 0; iter <= maxRepairs; iter++ {
		ps := admission.PlanSpec{Src: req.Src, Dst: req.Dst, Spec: req.Spec, Route: route, DSplit: dsplit}
		o.res.Stats.Probes++
		probed = append(probed, slices.Clone(dsplit))
		_, err := o.ctl.PlanLayout(ps)
		if err == nil {
			return ps, nil
		}
		lastErr = err
		rej, ok := admission.Explain(err)
		if !ok {
			return admission.PlanSpec{}, err
		}
		var repaired bool
		switch rej.FailingTest() {
		case "busy_period":
			if j := hopIndex(coords, rej.Router()); j >= 0 {
				_, hi := o.ctl.DelayRange(req.Src, req.Spec, j)
				repaired = shiftToward(dsplit, j, lo, hi)
			}
		case "buffers":
			if j := hopIndex(coords, rej.Router()); j >= 0 {
				repaired = shrinkAround(dsplit, j, lo)
			}
		default:
			return admission.PlanSpec{}, err
		}
		if !repaired {
			return admission.PlanSpec{}, err
		}
		o.res.Stats.Repairs++
	}
	return admission.PlanSpec{}, lastErr
}

// hotspotRequests draws n requests on a w×w mesh the way the ledger's
// layout workload does: half of them to one of four hot nodes, the rest
// transposed or uniform, each with a contract from the ledger's menu and
// D = 12 slots per router + 16.
func hotspotRequests(w, n int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	hot := [4]mesh.Coord{{X: w / 4, Y: w / 4}, {X: 3 * w / 4, Y: w / 4}, {X: w / 4, Y: 3 * w / 4}, {X: 3 * w / 4, Y: 3 * w / 4}}
	menu := [4]rtc.Spec{{Imin: 16, Smax: 18}, {Imin: 24, Smax: 18}, {Imin: 48, Smax: 18}, {Imin: 32, Smax: 36}}
	reqs := make([]Request, n)
	for i := range reqs {
		src := mesh.Coord{X: rng.Intn(w), Y: rng.Intn(w)}
		var dst mesh.Coord
		switch p := rng.Intn(100); {
		case p < 50:
			dst = hot[rng.Intn(4)]
		case p < 65:
			dst = mesh.Coord{X: src.Y, Y: src.X}
		default:
			dst = mesh.Coord{X: rng.Intn(w), Y: rng.Intn(w)}
		}
		if dst == src {
			dst.X = (src.X + 1 + rng.Intn(w-1)) % w
		}
		spec := menu[rng.Intn(4)]
		hops := max(dst.X-src.X, src.X-dst.X) + max(dst.Y-src.Y, src.Y-dst.Y) + 1
		spec.D = int64(12*hops + 16)
		reqs[i] = Request{Src: src, Dst: dst, Spec: spec}
	}
	return reqs
}

// TestCycleRuleMatchesFullRepair holds the cycle rule to the full repair
// loop: on seeded hot-spot streams, before each commit, the oracle and
// place search the same controller, and must return the same layout or
// the same rejection text and count the same probes and repairs. The
// streams must hold cycles of period 2 and longer, and cycles that open
// after iteration 0, or the rule's phase arithmetic goes untested.
func TestCycleRuleMatchesFullRepair(t *testing.T) {
	var starts, periods []int
	for _, tc := range []struct {
		w, n  int
		seeds []int64
	}{{8, 300, []int64{1, 9}}, {16, 768, []int64{6}}} { // 9 and 6 hold the period-3 cycles
		for _, seed := range tc.seeds {
			_, ctl := newPair(t, tc.w, tc.w, false)
			o := &oracle{synth: synth{ctl: ctl, res: &Result{}}}
			for i, req := range hotspotRequests(tc.w, tc.n, seed) {
				o.res.Stats = Stats{}
				want, werr := o.place(req)
				s := &synth{ctl: ctl, res: &Result{}}
				got, gerr := s.place(req)
				if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) || s.res.Stats != o.res.Stats {
					t.Fatalf("%d×%d seed %d request %d: place %+v, %v, %+v; full repair %+v, %v, %+v",
						tc.w, tc.w, seed, i, got, gerr, s.res.Stats, want, werr, o.res.Stats)
				}
				if gerr == nil {
					if _, err := ctl.AdmitLayout(got); err != nil {
						t.Fatalf("%d×%d seed %d request %d: probed layout refused: %v", tc.w, tc.w, seed, i, err)
					}
				}
			}
			starts, periods = append(starts, o.starts...), append(periods, o.periods...)
		}
	}
	long := slices.ContainsFunc(periods, func(l int) bool { return l > 2 })
	late := slices.ContainsFunc(starts, func(m int) bool { return m > 0 })
	if !slices.Contains(periods, 2) || !long || !late {
		t.Fatalf("%d cycles, periods %v, starts %v: want period 2, a period > 2 and a start > 0",
			len(periods), periods, starts)
	}
}

// BenchmarkSynthesize times the layout search: one op is Synthesize over
// a 768-request hot-spot stream on an empty 16×16 controller. Between ops
// (off the clock, but in a CPU profile) every admitted channel is torn
// down again, which costs far less than building a new controller.
// `make profile-admission` profiles it.
func BenchmarkSynthesize(b *testing.B) {
	reqs := hotspotRequests(16, 768, 1)
	net, ctl := newPair(b, 16, 16, false)
	for i := 0; i < b.N; i++ {
		res := Synthesize(net, ctl, reqs, Options{})
		b.StopTimer()
		for _, a := range res.Admitted {
			if err := ctl.Teardown(a.Channel); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
}
