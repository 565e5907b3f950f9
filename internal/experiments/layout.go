package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/admission"
	"repro/internal/layout"
	"repro/internal/mesh"
	"repro/internal/metrics"
)

// LayoutBindingCount is one binding resource's rejection tally.
type LayoutBindingCount struct {
	Resource string `json:"resource"`
	Count    int    `json:"count"`
}

// LayoutFamilyResult compares the greedy planner against the layout
// synthesizer on one request family.
type LayoutFamilyResult struct {
	Name     string
	Requests int
	// GreedyAdmitted is what the default Admit path places on a fresh
	// controller; SynthAdmitted what the synthesizer places on another.
	GreedyAdmitted int
	SynthAdmitted  int
	// Probes/Repairs are the synthesizer's search effort; Rerouted and
	// Nonuniform count admissions that actually used the recovered
	// freedoms (non-dimension-ordered route, non-uniform split).
	Probes     int
	Repairs    int
	Rerouted   int
	Nonuniform int
	// GreedyBindings/SynthBindings are the rejection tallies per binding
	// resource, most-refused first — the heatmap's tabular twin.
	GreedyBindings []LayoutBindingCount
	SynthBindings  []LayoutBindingCount
	// GreedyRejectHeat is the per-router grid of greedy rejection counts
	// (digit-clamped); SynthHeat the utilization heatmap of the
	// synthesized ledger at end of run.
	GreedyRejectHeat string
	SynthHeat        string
	// Snapshot is the synthesized run's sealed ledger.
	Snapshot *metrics.CapacitySnapshot
	// ShadowAgreed is true when a Reference-mode controller re-admitted
	// every synthesized layout with identical channel state and sealed
	// ledger bytes.
	ShadowAgreed bool
}

// LayoutResult is the outcome of RunLayout across all families.
type LayoutResult struct {
	W, H     int
	Requests int
	Families []LayoutFamilyResult
	Checks
}

// StrictlyBeatsGreedy reports whether the synthesizer admitted strictly
// more channels than the greedy baseline on the named family.
func (r *LayoutResult) StrictlyBeatsGreedy(family string) bool {
	for _, f := range r.Families {
		if f.Name == family {
			return f.SynthAdmitted > f.GreedyAdmitted
		}
	}
	return false
}

// DefaultLayoutFamilies returns the layout campaign's request families.
// uniform and transpose mirror the capacity campaign byte-for-byte.
// hotspot differs deliberately: capacity's hotspot funnels every
// request into one router, whose delivery port then binds on
// utilization — a route- and split-independent wall no synthesizer can
// move. Here the funnel targets the mesh's center column: under XY
// routing every request's Y-travel happens inside that column, so its
// vertical links saturate while the delivery ports still have
// headroom. YX and staircase routes carry the Y-travel in the source's
// own column and enter the hot column only at the destination row —
// exactly the congestion route search can steer around.
func DefaultLayoutFamilies() []CapacityFamily {
	fams := DefaultCapacityFamilies()
	for fi := range fams {
		if fams[fi].Name != "hotspot" {
			continue
		}
		fams[fi].Place = func(i, w, h int) (mesh.Coord, mesh.Coord) {
			n := w * h
			dst := mesh.Coord{X: w / 2, Y: (i*3 + 1) % h}
			s := (i*11 + 1) % n
			src := mesh.Coord{X: s % w, Y: s / w}
			if src == dst {
				s = (s + 1) % n
				src = mesh.Coord{X: s % w, Y: s / w}
			}
			return src, dst
		}
	}
	return fams
}

// layoutRequests expands a capacity family into layout requests.
func layoutRequests(fam CapacityFamily, w, h, n int) []layout.Request {
	reqs := make([]layout.Request, n)
	for i := 0; i < n; i++ {
		src, dst := fam.Place(i, w, h)
		reqs[i] = layout.Request{Src: src, Dst: dst, Spec: fam.Spec}
	}
	return reqs
}

// bindingCounts sorts a rejection tally most-refused first (ties by
// name, so output is deterministic), keeping the top entries.
func bindingCounts(tally map[string]int, top int) []LayoutBindingCount {
	out := make([]LayoutBindingCount, 0, len(tally))
	for res, n := range tally {
		out = append(out, LayoutBindingCount{Resource: res, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Resource < out[j].Resource
	})
	if top > 0 && len(out) > top {
		out = out[:top]
	}
	return out
}

// rejectionHeatmap renders per-router rejection counts as a w×h digit
// grid, "." for routers that never bound a rejection.
func rejectionHeatmap(w, h int, counts map[string]int) string {
	var b strings.Builder
	for y := 0; y < h; y++ {
		b.WriteString("  ")
		for x := 0; x < w; x++ {
			n := counts[mesh.Coord{X: x, Y: y}.String()]
			switch {
			case n == 0:
				b.WriteByte('.')
			case n > 9:
				b.WriteByte('9')
			default:
				b.WriteByte(byte('0' + n))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// defaultLayoutRequests sizes a family's request sequence well past the
// mesh's saturation point so the synthesizer has rejections to repair.
func defaultLayoutRequests(w, h int) int { return 3 * w * h }

// RunLayout runs the channel-layout campaign on a w×h mesh: per family,
// a greedy baseline (the default Admit path, request by request) and a
// synthesized run (layout.Synthesize over the identical sequence), with
// binding-resource tallies for both, conservation checks on both
// ledgers, and a Reference-mode shadow controller re-admitting every
// synthesized layout to prove the fast-path controller granted nothing
// the from-scratch analysis would refuse.
func RunLayout(w, h, requests int, families []CapacityFamily) (*LayoutResult, error) {
	if len(families) == 0 {
		families = DefaultLayoutFamilies()
	}
	if requests <= 0 {
		requests = defaultLayoutRequests(w, h)
	}
	res := &LayoutResult{W: w, H: h, Requests: requests}
	check := res.Checks.add
	for _, fam := range families {
		fr := LayoutFamilyResult{Name: fam.Name, Requests: requests}

		// Greedy baseline: the default planner, one request at a time.
		_, gctl, err := newController(w, h, admission.DefaultConfig(), nil)
		if err != nil {
			return nil, err
		}
		greedyTally := make(map[string]int)
		greedyRouters := make(map[string]int)
		for i := 0; i < requests; i++ {
			src, dst := fam.Place(i, w, h)
			if _, aerr := gctl.Admit(src, []mesh.Coord{dst}, fam.Spec); aerr != nil {
				if rej, ok := admission.Explain(aerr); ok {
					greedyTally[rej.BindingResource()]++
					greedyRouters[rej.Router()]++
				}
				continue
			}
			fr.GreedyAdmitted++
		}
		check(fam.Name+"_greedy_ledger", gctl.VerifyLedger() == nil,
			"%d channels: %v", fr.GreedyAdmitted, gctl.VerifyLedger())
		fr.GreedyBindings = bindingCounts(greedyTally, 8)
		fr.GreedyRejectHeat = rejectionHeatmap(w, h, greedyRouters)

		// Synthesized run: identical sequence, layout search enabled.
		snet, sctl, err := newController(w, h, admission.DefaultConfig(), nil)
		if err != nil {
			return nil, err
		}
		sres := layout.Synthesize(snet, sctl, layoutRequests(fam, w, h, requests), layout.Options{})
		fr.SynthAdmitted = len(sres.Admitted)
		fr.Probes = sres.Stats.Probes
		fr.Repairs = sres.Stats.Repairs
		fr.Rerouted = sres.Stats.Rerouted
		fr.Nonuniform = sres.Stats.Nonuniform
		synthTally := make(map[string]int)
		for _, rej := range sres.Rejected {
			if exp, ok := admission.Explain(rej.Err); ok {
				synthTally[exp.BindingResource()]++
			}
		}
		fr.SynthBindings = bindingCounts(synthTally, 8)
		check(fam.Name+"_synth_ledger", sctl.VerifyLedger() == nil,
			"%d channels: %v", fr.SynthAdmitted, sctl.VerifyLedger())
		check(fam.Name+"_synth_at_least_greedy", fr.SynthAdmitted >= fr.GreedyAdmitted,
			"synthesized %d < greedy %d", fr.SynthAdmitted, fr.GreedyAdmitted)
		fr.Snapshot = sctl.Seal()
		fr.SynthHeat = utilizationHeatmap(w, h, fr.Snapshot)

		// Shadow re-validation: a Reference-mode controller (no caches,
		// no fast paths) replays every accepted layout verbatim. Each
		// must be re-admitted with the same channel identity, and the
		// final sealed ledgers must be byte-identical.
		refCfg := admission.DefaultConfig()
		refCfg.Reference = true
		_, shadow, err := newController(w, h, refCfg, nil)
		if err != nil {
			return nil, err
		}
		fr.ShadowAgreed = true
		for _, adm := range sres.Admitted {
			sch, serr := shadow.AdmitLayout(adm.Plan)
			if serr != nil {
				fr.ShadowAgreed = false
				check(fam.Name+"_shadow_verdict", false,
					"reference controller refused accepted layout for request %d: %v", adm.Request, serr)
				break
			}
			if sch.ID != adm.Channel.ID || sch.Margin != adm.Channel.Margin ||
				sch.SrcConn != adm.Channel.SrcConn || sch.Bound() != adm.Channel.Bound() {
				fr.ShadowAgreed = false
				check(fam.Name+"_shadow_verdict", false,
					"reference channel state diverged on request %d (id %d/%d margin %d/%d)",
					adm.Request, sch.ID, adm.Channel.ID, sch.Margin, adm.Channel.Margin)
				break
			}
		}
		if fr.ShadowAgreed {
			synthSeal, _ := json.Marshal(fr.Snapshot)
			shadowSeal, _ := json.Marshal(shadow.Seal())
			sealsEqual := bytes.Equal(synthSeal, shadowSeal)
			fr.ShadowAgreed = sealsEqual && shadow.VerifyLedger() == nil
			check(fam.Name+"_shadow_seal_identical", sealsEqual,
				"reference-mode sealed ledger differs from synthesized run's")
		}

		res.Families = append(res.Families, fr)
	}
	return res, nil
}

// Table renders the per-family greedy-vs-synthesized summary.
func (r *LayoutResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Layout synthesis: %dx%d mesh, %d requests/family", r.W, r.H, r.Requests),
		Header: []string{"family", "requests", "greedy", "synth", "gain",
			"rerouted", "nonuniform", "probes", "repairs", "shadow"},
	}
	for _, f := range r.Families {
		shadow := "agreed"
		if !f.ShadowAgreed {
			shadow = "DIVERGED"
		}
		t.AddRow(f.Name, di(f.Requests), di(f.GreedyAdmitted), di(f.SynthAdmitted),
			fmt.Sprintf("%+d", f.SynthAdmitted-f.GreedyAdmitted),
			di(f.Rerouted), di(f.Nonuniform), di(f.Probes), di(f.Repairs), shadow)
	}
	r.Checks.noteFailures(t)
	return t
}

// BindingTable renders one family's most-refused binding resources for
// greedy and synthesized runs side by side.
func (f *LayoutFamilyResult) BindingTable() *Table {
	t := &Table{
		Title:  fmt.Sprintf("%s: binding resources at rejection", f.Name),
		Header: []string{"greedy_binding", "rejections", "synth_binding", "rejections"},
	}
	n := len(f.GreedyBindings)
	if len(f.SynthBindings) > n {
		n = len(f.SynthBindings)
	}
	for i := 0; i < n; i++ {
		g, gr, s, sr := "-", "-", "-", "-"
		if i < len(f.GreedyBindings) {
			g, gr = f.GreedyBindings[i].Resource, di(f.GreedyBindings[i].Count)
		}
		if i < len(f.SynthBindings) {
			s, sr = f.SynthBindings[i].Resource, di(f.SynthBindings[i].Count)
		}
		t.AddRow(g, gr, s, sr)
	}
	return t
}
