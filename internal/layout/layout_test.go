package layout

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/admission"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/rtc"
)

func newPair(t *testing.T, w, h int, reference bool) (*mesh.Network, *admission.Controller) {
	t.Helper()
	cfg := admission.DefaultConfig()
	cfg.Reference = reference
	return newCtl(t, w, h, router.DefaultConfig(), cfg)
}

// newCtl builds a w×h mesh of rcfg routers and a controller over it.
func newCtl(t *testing.T, w, h int, rcfg router.Config, cfg admission.Config) (*mesh.Network, *admission.Controller) {
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
