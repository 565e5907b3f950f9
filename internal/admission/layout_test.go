package admission

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/rtc"
)

// xyPlan builds a PlanSpec along the XY route with an explicit split.
func xyPlan(t *testing.T, net *mesh.Network, src, dst mesh.Coord, spec rtc.Spec, dsplit []int64) PlanSpec {
	t.Helper()
	route := mesh.XYRoute(src, dst)
	if len(dsplit) != len(route) {
		t.Fatalf("test split has %d bounds for a %d-hop route", len(dsplit), len(route))
	}
	return PlanSpec{Src: src, Dst: dst, Spec: spec, Route: route, DSplit: dsplit}
}

// TestLayoutValidation drives each planLayout validation error: the
// message bytes are pinned, a malformed layout is an *ErrBadLayout with
// its Reason (errors.As), and Explain refuses it — misuse, not a
// resource refusal. An off-mesh source is the endpoint check's plain
// error, not a layout one.
func TestLayoutValidation(t *testing.T) {
	net := newNet(t, 4, 4)
	c, err := New(net, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := rtc.Spec{Imin: 16, Smax: 18, D: 64}
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 2, Y: 0}
	okRoute := mesh.XYRoute(src, dst) // [+x +x local]

	cases := []struct {
		name   string
		ps     PlanSpec
		reason string
		want   string
	}{
		{"empty route", PlanSpec{Src: src, Dst: dst, Spec: spec}, "empty_route",
			"admission: layout: empty route"},
		{"split length", PlanSpec{Src: src, Dst: dst, Spec: spec, Route: okRoute, DSplit: []int64{10, 10}}, "split_length",
			"admission: layout: 2 delay bounds for a 3-hop route"},
		{"src outside", PlanSpec{Src: mesh.Coord{X: 9, Y: 9}, Dst: dst, Spec: spec, Route: okRoute, DSplit: []int64{10, 10, 10}}, "",
			"admission: source (9,9) outside mesh"},
		{"not a link", PlanSpec{Src: src, Dst: dst, Spec: spec,
			Route: []int{router.PortLocal, router.PortLocal}, DSplit: []int64{10, 10}}, "not_a_link",
			"admission: layout: hop 0 uses port local, not a link"},
		{"no local delivery", PlanSpec{Src: src, Dst: dst, Spec: spec,
			Route: []int{router.PortXPlus, router.PortXPlus, router.PortXPlus}, DSplit: []int64{10, 10, 10}}, "no_local_delivery",
			"admission: layout: route must end with local delivery, got +x"},
		{"wrong terminus", PlanSpec{Src: src, Dst: dst, Spec: spec,
			Route: []int{router.PortXPlus, router.PortLocal}, DSplit: []int64{10, 10}}, "wrong_end",
			"admission: layout: route ends at (1,0), not (2,0)"},
		{"leaves mesh", PlanSpec{Src: src, Dst: dst, Spec: spec,
			Route: []int{router.PortYMinus, router.PortLocal}, DSplit: []int64{10, 10}}, "leaves_mesh",
			"admission: layout: route leaves the mesh at (0,0) via -y"},
		{"revisits", PlanSpec{Src: src, Dst: dst, Spec: spec,
			Route:  []int{router.PortXPlus, router.PortXMinus, router.PortXPlus, router.PortXPlus, router.PortLocal},
			DSplit: []int64{10, 10, 10, 10, 10}}, "revisits",
			"admission: layout: route revisits (0,0)"},
		{"bound below service", xyPlan(t, net, src, dst, spec, []int64{0, 10, 10}), "bound_below_service",
			"admission: layout: hop 0 bound 0 below message service time 1"},
		{"split over budget", xyPlan(t, net, src, dst, spec, []int64{30, 30, 30}), "split_over_budget",
			"admission: layout: split sums to 90, over the end-to-end bound 64"},
	}
	for _, tc := range cases {
		_, err := c.PlanLayout(tc.ps)
		if err == nil {
			t.Errorf("%s: accepted, want %q", tc.name, tc.want)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("%s: error %q, want %q", tc.name, err, tc.want)
		}
		var bad *ErrBadLayout
		if got := errors.As(err, &bad); got != (tc.reason != "") || (got && bad.Reason != tc.reason) {
			t.Errorf("%s: errors.As(*ErrBadLayout) = %v (%+v), want reason %q", tc.name, got, bad, tc.reason)
		}
		if _, typed := Explain(err); typed {
			t.Errorf("%s: Explain calls malformed input a resource rejection", tc.name)
		}
	}
	if c.Active() != 0 {
		t.Errorf("rejected probes left %d active channels", c.Active())
	}
	if err := c.VerifyLedger(); err != nil {
		t.Errorf("rejected probes dirtied the ledger: %v", err)
	}
}

// TestAdmitLayoutCommit admits a non-uniform split over a YX route and
// checks the channel records the layout verbatim, the ledger verifies
// (per-hop deadlines reconstruct the reservations), and teardown
// restores the empty ledger exactly.
func TestAdmitLayoutCommit(t *testing.T) {
	net := newNet(t, 4, 4)
	c, err := New(net, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	empty, err := json.Marshal(c.Seal())
	if err != nil {
		t.Fatal(err)
	}
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 2, Y: 1}
	spec := rtc.Spec{Imin: 16, Smax: 18, D: 64}
	route := mesh.YXRoute(src, dst) // [+y +x +x local]
	split := []int64{25, 13, 13, 13}
	ch, err := c.AdmitLayout(PlanSpec{Src: src, Dst: dst, Spec: spec, Route: route, DSplit: split})
	if err != nil {
		t.Fatal(err)
	}
	if ch.LocalD != 0 {
		t.Errorf("layout channel LocalD = %d, want 0 (delay structure lives in DSplit)", ch.LocalD)
	}
	if len(ch.DSplit) != len(split) {
		t.Fatalf("DSplit = %v, want %v", ch.DSplit, split)
	}
	for i := range split {
		if ch.DSplit[i] != split[i] {
			t.Fatalf("DSplit = %v, want %v", ch.DSplit, split)
		}
	}
	if got := ch.Bound(); got != 64 {
		t.Errorf("Bound = %d, want 64 (sum of split)", got)
	}
	if got := ch.SourceD(); got != 25 {
		t.Errorf("SourceD = %d, want 25 (first split element)", got)
	}
	if got := ch.Hops(); got != 4 {
		t.Errorf("Hops = %d, want 4", got)
	}
	if ch.Route() == "" {
		t.Error("layout channel has empty Route()")
	}
	if err := c.VerifyLedger(); err != nil {
		t.Errorf("ledger does not verify with a layout channel active: %v", err)
	}
	if err := c.Teardown(ch); err != nil {
		t.Fatal(err)
	}
	after, err := json.Marshal(c.Seal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(empty, after) {
		t.Error("teardown of a layout channel did not restore the empty ledger byte-for-byte")
	}
}

// TestAdmitLayoutAudit pins the layout audit record: op admit_layout,
// the d=[a+b+...] split rendering on success, and router= attribution
// on refusal.
func TestAdmitLayoutAudit(t *testing.T) {
	net := newNet(t, 4, 4)
	c, err := New(net, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	log := obs.NewAuditLog()
	c.AttachAudit(log)
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 2, Y: 0}
	spec := rtc.Spec{Imin: 16, Smax: 18, D: 64}
	ps := xyPlan(t, net, src, dst, spec, []int64{30, 17, 17})
	if _, err := c.AdmitLayout(ps); err != nil {
		t.Fatal(err)
	}
	recs := log.Merged()
	rec := recs[len(recs)-1]
	if rec.Op != "admit_layout" || rec.Outcome != "admitted" {
		t.Fatalf("audit record %q/%q, want admit_layout/admitted", rec.Op, rec.Outcome)
	}
	if rec.DSplit != "30+17+17" {
		t.Errorf("audit DSplit = %q, want 30+17+17", rec.DSplit)
	}
	line := rec.String()
	if !strings.Contains(line, " d=[30+17+17] hops=3 ") {
		t.Errorf("audit line %q missing d=[30+17+17] hops=3", line)
	}

	// Saturate the injection port so a refusal lands, and check it is
	// attributed to a router.
	tight := rtc.Spec{Imin: 4, Smax: 18, D: 24}
	var rejErr error
	for i := 0; i < 50; i++ {
		_, rejErr = c.AdmitLayout(xyPlan(t, net, src, dst, tight, []int64{8, 8, 8}))
		if rejErr != nil {
			break
		}
	}
	if rejErr == nil {
		t.Fatal("injection port never saturated")
	}
	recs = log.Merged()
	rec = recs[len(recs)-1]
	if rec.Op != "admit_layout" || rec.Outcome != "rejected" {
		t.Fatalf("audit record %q/%q, want admit_layout/rejected", rec.Op, rec.Outcome)
	}
	if rec.Router == "" {
		t.Error("layout refusal record does not name a router")
	}
}

// TestLayoutReferenceAgreement fuzzes random layouts against a pair of
// controllers — incremental and Reference mode — fed the identical
// sequence. Every AdmitLayout must agree on verdict, channel identity,
// margin, and error bytes, and the sealed ledgers must match
// byte-for-byte at the end.
func TestLayoutReferenceAgreement(t *testing.T) {
	w, h := 5, 4
	fast, err := New(newNet(t, w, h), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	refCfg := DefaultConfig()
	refCfg.Reference = true
	ref, err := New(newNet(t, w, h), refCfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		src := mesh.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
		dst := mesh.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
		if dst == src {
			dst.X = (dst.X + 1) % w
		}
		spec := rtc.Spec{Imin: int64(8 * (1 + rng.Intn(4))), Smax: 18, D: int64(32 + rng.Intn(64))}
		route := mesh.XYRoute(src, dst)
		if rng.Intn(2) == 0 {
			route = mesh.YXRoute(src, dst)
		}
		// Random split: mostly valid, sometimes deliberately broken so
		// rejection strings are compared too.
		split := make([]int64, len(route))
		per := spec.D / int64(len(route))
		for j := range split {
			split[j] = per
			if per > 1 && rng.Intn(3) == 0 {
				split[j] = per - int64(rng.Intn(int(per)))
			}
		}
		ps := PlanSpec{Src: src, Dst: dst, Spec: spec, Route: route, DSplit: split}
		fch, ferr := fast.AdmitLayout(ps)
		rch, rerr := ref.AdmitLayout(ps)
		if (ferr == nil) != (rerr == nil) {
			t.Fatalf("request %d: verdicts diverge: fast=%v ref=%v", i, ferr, rerr)
		}
		if ferr != nil {
			if ferr.Error() != rerr.Error() {
				t.Fatalf("request %d: rejection bytes diverge:\n fast %q\n  ref %q", i, ferr, rerr)
			}
			continue
		}
		if fch.ID != rch.ID || fch.Margin != rch.Margin || fch.SrcConn != rch.SrcConn || fch.Bound() != rch.Bound() {
			t.Fatalf("request %d: channel identity diverges: fast id=%d margin=%d conn=%d bound=%d, ref id=%d margin=%d conn=%d bound=%d",
				i, fch.ID, fch.Margin, fch.SrcConn, fch.Bound(), rch.ID, rch.Margin, rch.SrcConn, rch.Bound())
		}
	}
	fSeal, err := json.Marshal(fast.Seal())
	if err != nil {
		t.Fatal(err)
	}
	rSeal, err := json.Marshal(ref.Seal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fSeal, rSeal) {
		t.Fatal("sealed ledgers diverge between incremental and Reference layout admission")
	}
	if err := fast.VerifyLedger(); err != nil {
		t.Fatal(err)
	}
	if err := ref.VerifyLedger(); err != nil {
		t.Fatal(err)
	}
}
