package experiments

import (
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/mesh"
)

// TestCapacityCampaign runs the campaign on a small mesh: every family
// must saturate (a finite max admissible channel count, request max−1
// admitted and request max refused with a typed rejection), every
// conservation check must pass, and the heatmap must be renderable.
func TestCapacityCampaign(t *testing.T) {
	res, err := RunCapacity(4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Checks {
		if !c.OK {
			t.Errorf("check %s failed: %s", c.Name, c.Detail)
		}
	}
	saturated := 0
	for i, f := range res.Families {
		if f.MaxChannels <= 0 {
			t.Errorf("family %s admitted no channels at all", f.Name)
		}
		if f.Capped {
			continue
		}
		saturated++
		// MaxChannels is a boundary: on a fresh controller every request
		// up to max−1 admits and request max is the first refused.
		fam := DefaultCapacityFamilies()[i]
		_, ctl, err := newController(4, 4, admission.DefaultConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n <= f.MaxChannels; n++ {
			src, dst := fam.Place(n, 4, 4)
			_, err := ctl.Admit(src, []mesh.Coord{dst}, fam.Spec)
			if refused := err != nil; refused != (n == f.MaxChannels) {
				t.Errorf("family %s, max %d: request %d refused = %v (%v)", f.Name, f.MaxChannels, n, refused, err)
			}
		}
		if f.RejectTest == "" || f.RejectBinding == "" {
			t.Errorf("family %s saturated without a typed explanation (binding %q, test %q)",
				f.Name, f.RejectBinding, f.RejectTest)
		}
		if f.RejectMargin > 0 {
			t.Errorf("family %s rejection carries positive margin %+g", f.Name, f.RejectMargin)
		}
		if f.Snapshot == nil || len(f.Snapshot.Links) == 0 {
			t.Errorf("family %s sealed an empty ledger at saturation", f.Name)
			continue
		}
		if lines := strings.Count(f.Heatmap, "\n"); lines != 4 {
			t.Errorf("family %s heatmap has %d rows, want 4:\n%s", f.Name, lines, f.Heatmap)
		}
		if f.Snapshot.WorstUtilization <= 0 || f.Snapshot.WorstLink == "" {
			t.Errorf("family %s worst link missing: %q at %g",
				f.Name, f.Snapshot.WorstLink, f.Snapshot.WorstUtilization)
		}
	}
	if saturated < 2 {
		t.Errorf("only %d families saturated; the campaign needs at least 2 for a meaningful report", saturated)
	}
}

// TestCapacityHeatmapHotspot pins the hotspot family's spatial story:
// the most loaded resource must sit at the mesh center the family
// funnels into.
func TestCapacityHeatmapHotspot(t *testing.T) {
	res, err := RunCapacity(4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Families {
		if f.Name != "hotspot" || f.Capped {
			continue
		}
		if !strings.Contains(f.Snapshot.WorstLink, "(2,2)") {
			t.Errorf("hotspot worst link %s is not at the center (2,2)", f.Snapshot.WorstLink)
		}
		return
	}
	t.Skip("hotspot family did not saturate on 4x4")
}

// TestAuditIdentityFig6 checks the admission plane's sharded contract
// on the clean paper scenario: the merged audit log and the sealed
// ledger are byte-identical at workers {1, 2, 4}.
func TestAuditIdentityFig6(t *testing.T) {
	res, err := RunAuditIdentity("../../scenarios/fig6.json", gateCycles(2000, 8000), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Errorf("audit log differs across workers %v", res.Workers)
	}
	if res.Decisions == 0 {
		t.Error("fig6 produced no audit records; 5 channel opens expected")
	}
	if !strings.Contains(res.Log, "admit") || !strings.Contains(res.Log, "margin=") {
		t.Errorf("audit dump missing admit records:\n%s", res.Log)
	}
}

// TestAuditIdentityFaulty runs the identity gate on the fault scenario;
// past the flap outage the log carries reroute and failback records and
// must still be byte-identical at every worker count.
func TestAuditIdentityFaulty(t *testing.T) {
	cycles := gateCycles(4000, 80000)
	res, err := RunAuditIdentity("../../scenarios/faulty.json", cycles, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Errorf("audit log differs across workers %v", res.Workers)
	}
	if res.Decisions == 0 {
		t.Error("faulty produced no audit records")
	}
	if !testing.Short() {
		// The flap outage at cycle 30000 displaces channel 0 and the
		// repair at 70000 fails it back; both must be in the log.
		if !strings.Contains(res.Log, "reroute") {
			t.Error("full faulty run recorded no reroute decisions")
		}
	}
}
