package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/admission"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rtc"
	"repro/internal/scenario"
)

// CapacityFamily is one deterministic sequence of channel requests: the
// i-th request's endpoints come from Place, all requests share Spec.
// The capacity campaign admits the sequence until its first refusal:
// the longest admissible prefix is the family's max admissible channel
// count — the baseline number the layout-synthesis engine has to beat.
type CapacityFamily struct {
	Name string
	Spec rtc.Spec
	// Place returns the i-th request's endpoints on a w×h mesh. It must
	// be a pure function of its arguments so runs are reproducible.
	Place func(i, w, h int) (src, dst mesh.Coord)
}

// DefaultCapacityFamilies returns the standard scenario families:
// uniform stride placement (spread load, links bind), a hotspot funnel
// into the mesh center (the center's delivery port binds), and a
// transpose pattern (diagonal links bind under XY routing).
func DefaultCapacityFamilies() []CapacityFamily {
	return []CapacityFamily{
		{
			Name: "uniform",
			Spec: rtc.Spec{Imin: 16, Smax: 18, D: 64},
			Place: func(i, w, h int) (mesh.Coord, mesh.Coord) {
				n := w * h
				s := (i*7 + 3) % n
				d := (i*13 + 5) % n
				if d == s {
					d = (d + 1) % n
				}
				return mesh.Coord{X: s % w, Y: s / w}, mesh.Coord{X: d % w, Y: d / w}
			},
		},
		{
			Name: "hotspot",
			Spec: rtc.Spec{Imin: 24, Smax: 18, D: 96},
			Place: func(i, w, h int) (mesh.Coord, mesh.Coord) {
				n := w * h
				center := mesh.Coord{X: w / 2, Y: h / 2}
				s := (i*11 + 1) % n
				src := mesh.Coord{X: s % w, Y: s / w}
				if src == center {
					s = (s + 1) % n
					src = mesh.Coord{X: s % w, Y: s / w}
				}
				return src, center
			},
		},
		{
			Name: "transpose",
			Spec: rtc.Spec{Imin: 16, Smax: 18, D: 64},
			Place: func(i, w, h int) (mesh.Coord, mesh.Coord) {
				n := w * h
				s := (i*5 + 1) % n
				src := mesh.Coord{X: s % w, Y: s / w}
				dst := mesh.Coord{X: src.Y % w, Y: src.X % h}
				if dst == src {
					dst.X = (dst.X + 1) % w
					if dst == src {
						dst.Y = (dst.Y + 1) % h
					}
				}
				return src, dst
			},
		},
	}
}

// Check is one pass/fail invariant of a campaign.
type Check struct {
	Name   string
	OK     bool
	Detail string
}

// Checks is the invariant list every campaign result embeds.
type Checks []Check

func (cs *Checks) add(name string, ok bool, format string, args ...any) {
	*cs = append(*cs, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// OK reports whether every check passed.
func (cs Checks) OK() bool {
	for _, c := range cs {
		if !c.OK {
			return false
		}
	}
	return true
}

// noteFailures adds one table note per failed check.
func (cs Checks) noteFailures(t *Table) {
	for _, c := range cs {
		if !c.OK {
			t.AddNote("FAILED %s: %s", c.Name, c.Detail)
		}
	}
}

// CapacityFamilyResult is one family's saturation point and the sealed
// ledger at that point.
type CapacityFamilyResult struct {
	Name string
	// MaxChannels is the longest fully admissible request prefix: "the
	// first n requests all admit" holds exactly for n up to the index of
	// the first refusal, so one sequential pass finds it. Capped means
	// the pass spent its request budget without a refusal (the family
	// cannot saturate this mesh).
	MaxChannels int
	Capped      bool
	// Snapshot is the sealed capacity ledger with MaxChannels admitted.
	Snapshot *metrics.CapacitySnapshot
	// The first rejected request's typed explanation (empty if Capped).
	RejectBinding string
	RejectTest    string
	RejectMargin  float64
	// Heatmap is the per-node utilization grid at saturation.
	Heatmap string
}

// CapacityResult is the outcome of RunCapacity across all families.
type CapacityResult struct {
	W, H     int
	Families []CapacityFamilyResult
	Checks   // conservation and explanation invariants
}

// capacityRequestBudget bounds the request sequence per family, as a
// multiple of the node count. A family that admits its whole budget is
// reported Capped.
const capacityRequestBudget = 8

// utilizationHeatmap renders the sealed ledger as a w×h digit grid: each
// cell is the highest utilization of any resource leaving that node
// (mesh links, delivery port, injection), floor(util*10) clamped to 9,
// "." for idle nodes.
func utilizationHeatmap(w, h int, snap *metrics.CapacitySnapshot) string {
	load := make([]float64, w*h)
	for _, lc := range snap.Links {
		idx := lc.NodeY*w + lc.NodeX
		if lc.Utilization > load[idx] {
			load[idx] = lc.Utilization
		}
	}
	var b strings.Builder
	for y := 0; y < h; y++ {
		b.WriteString("  ")
		for x := 0; x < w; x++ {
			u := load[y*w+x]
			switch {
			case u == 0:
				b.WriteByte('.')
			case u >= 0.95:
				b.WriteByte('9')
			default:
				b.WriteByte(byte('0' + int(u*10)))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RunCapacity runs the capacity campaign on a w×h mesh: for each
// request family it admits requests until the first refusal, seals the
// ledger at that saturation point, and checks the conservation
// invariant (per-link/per-node totals equal the sum of channel
// reservations, restored exactly by teardown) plus the typed-explanation
// contract (the refusal names a binding resource, test, and margin, and
// leaves the ledger untouched).
func RunCapacity(w, h int, families []CapacityFamily) (*CapacityResult, error) {
	if len(families) == 0 {
		families = DefaultCapacityFamilies()
	}
	res := &CapacityResult{W: w, H: h}
	check := res.Checks.add
	budget := capacityRequestBudget * w * h
	for _, fam := range families {
		_, ctl, err := newController(w, h, admission.DefaultConfig(), nil)
		if err != nil {
			return nil, fmt.Errorf("capacity %s on %dx%d: %w", fam.Name, w, h, err)
		}
		var chans []*admission.Channel
		var rerr error // the refusal that ends the pass
		for len(chans) < budget && rerr == nil {
			src, dst := fam.Place(len(chans), w, h)
			ch, err := ctl.Admit(src, []mesh.Coord{dst}, fam.Spec)
			if err != nil {
				rerr = err
			} else {
				chans = append(chans, ch)
			}
		}
		max := len(chans)
		fr := CapacityFamilyResult{Name: fam.Name, MaxChannels: max, Capped: rerr == nil}
		fr.Snapshot = ctl.Seal()
		fr.Heatmap = utilizationHeatmap(w, h, fr.Snapshot)
		verr := ctl.VerifyLedger()
		check(fam.Name+"_ledger_conservation", verr == nil, "%d channels admitted: %v", max, verr)

		if rerr != nil {
			// The refusal must carry a typed explanation, and must have
			// left the ledger holding exactly the admitted prefix: the
			// conservation check above would name any residue.
			if exp, ok := admission.Explain(rerr); ok {
				fr.RejectBinding = exp.BindingResource()
				fr.RejectTest = exp.FailingTest()
				fr.RejectMargin = exp.FailMargin()
				check(fam.Name+"_saturation_rejects", true,
					"binding %s, test %s, margin %+g", fr.RejectBinding, fr.RejectTest, fr.RejectMargin)
			} else {
				check(fam.Name+"_saturation_rejects", false,
					"rejection carries no typed explanation: %v", rerr)
			}
			check(fam.Name+"_rejection_inert",
				verr == nil && ctl.Active() == max && fr.Snapshot.Channels == max,
				"%d active, %d sealed after request %d was refused with %d admitted",
				ctl.Active(), fr.Snapshot.Channels, max, max)
		}

		// Tear every channel down; the ledger must return to empty.
		var tderr error
		for _, ch := range chans {
			if err := ctl.Teardown(ch); err != nil && tderr == nil {
				tderr = err
			}
		}
		if tderr == nil {
			tderr = ctl.VerifyLedger()
		}
		empty := ctl.Seal()
		check(fam.Name+"_teardown_restores",
			tderr == nil && ctl.Active() == 0 && len(empty.Links) == 0 && empty.Channels == 0,
			"%d active, %d reserved links after full teardown (err %v)",
			ctl.Active(), len(empty.Links), tderr)

		res.Families = append(res.Families, fr)
	}
	return res, nil
}

// Table renders the per-family saturation summary.
func (r *CapacityResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Capacity campaign: %dx%d mesh", r.W, r.H),
		Header: []string{"family", "max_channels", "worst_link",
			"worst_util", "min_headroom", "binding", "test", "margin"},
	}
	for _, f := range r.Families {
		binding, test, margin := f.RejectBinding, f.RejectTest, fmt.Sprintf("%+g", f.RejectMargin)
		if f.Capped {
			binding, test, margin = "-", "(request budget reached)", "-"
		}
		t.AddRow(f.Name, di(f.MaxChannels), f.Snapshot.WorstLink, f2(f.Snapshot.WorstUtilization),
			d(f.Snapshot.MinHeadroomSlots), binding, test, margin)
	}
	r.Checks.noteFailures(t)
	return t
}

// HeadroomTable renders the most loaded links of one family at
// saturation.
func (f *CapacityFamilyResult) HeadroomTable(top int) *Table {
	t := &Table{
		Title: fmt.Sprintf("%s: tightest links at %d channels", f.Name, f.MaxChannels),
		Header: []string{"link", "channels", "util", "reserved_slots",
			"edf_headroom", "worst_margin"},
	}
	links := append([]metrics.LinkCapacity(nil), f.Snapshot.Links...)
	sort.SliceStable(links, func(i, j int) bool {
		return links[i].Utilization > links[j].Utilization
	})
	if top > 0 && len(links) > top {
		links = links[:top]
	}
	for _, lc := range links {
		t.AddRow(lc.Link, di(lc.Channels), f2(lc.Utilization),
			d(lc.ReservedSlots), d(lc.HeadroomSlots), d(lc.WorstMarginSlots))
	}
	return t
}

// AuditIdentityResult is the outcome of RunAuditIdentity: whether the
// admission audit log and the sealed capacity ledger came out
// byte-identical at every worker count.
type AuditIdentityResult struct {
	Scenario  string
	Workers   []int
	Identical bool
	// Decisions is the reference run's audit-log length; Log the
	// reference dump (audit lines followed by the ledger JSON).
	Decisions int
	Log       string
}

// clipScenario shortens a loaded scenario to the capped run length:
// failure episodes starting past the end vanish, repairs past the end
// clamp to it. No-op when cycles is zero or not shorter.
func clipScenario(sc *scenario.Scenario, cycles int64) {
	if cycles <= 0 || cycles >= sc.Cycles {
		return
	}
	sc.Cycles = cycles
	kept := sc.Failures[:0]
	for _, f := range sc.Failures {
		if f.At >= cycles {
			continue
		}
		if f.RepairAt > cycles {
			f.RepairAt = cycles
		}
		kept = append(kept, f)
	}
	sc.Failures = kept
}

// RunAuditIdentity runs the scenario once per worker count with an
// audit log attached and verifies the merged audit dump and the final
// sealed capacity ledger are byte-identical across worker counts — the
// admission plane's PR-3 contract. cycles > 0 caps the run length.
func RunAuditIdentity(path string, cycles int64, workers []int) (*AuditIdentityResult, error) {
	if len(workers) == 0 {
		workers = DefaultForensicsWorkers
	}
	res := &AuditIdentityResult{Scenario: path, Workers: workers, Identical: true}
	var ref []byte
	for i, wk := range workers {
		sc, err := scenario.Load(path)
		if err != nil {
			return nil, err
		}
		clipScenario(sc, cycles)
		aud := obs.NewAuditLog()
		_, sys, err := sc.RunWith(scenario.RunOpts{Audit: aud, Workers: wk})
		if err != nil {
			return nil, fmt.Errorf("audit identity %s x%d: %w", path, wk, err)
		}
		var buf bytes.Buffer
		if err := aud.Dump(&buf); err != nil {
			return nil, err
		}
		ledger, err := json.MarshalIndent(sys.SealCapacity(), "", "  ")
		sys.Close()
		if err != nil {
			return nil, err
		}
		buf.Write(ledger)
		buf.WriteByte('\n')
		if i == 0 {
			ref = append([]byte(nil), buf.Bytes()...)
			res.Decisions = aud.Len()
			res.Log = buf.String()
		} else if !bytes.Equal(ref, buf.Bytes()) {
			res.Identical = false
		}
	}
	return res, nil
}
