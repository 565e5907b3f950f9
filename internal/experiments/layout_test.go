package experiments

import (
	"strings"
	"testing"
)

// TestLayoutCampaign runs the synthesis campaign on a small mesh: every
// check — ledger conservation on both runs, synth ≥ greedy, and the
// Reference-mode shadow re-validation — must pass, and the report
// surfaces must render.
func TestLayoutCampaign(t *testing.T) {
	res, err := RunLayout(5, 5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Checks {
		if !c.OK {
			t.Errorf("check %s failed: %s", c.Name, c.Detail)
		}
	}
	if !res.OK() {
		t.Fatal("campaign not OK")
	}
	if res.Requests != defaultLayoutRequests(5, 5) {
		t.Errorf("requests defaulted to %d, want %d", res.Requests, defaultLayoutRequests(5, 5))
	}
	for _, f := range res.Families {
		if f.GreedyAdmitted <= 0 || f.SynthAdmitted <= 0 {
			t.Errorf("family %s admitted nothing (greedy %d, synth %d)", f.Name, f.GreedyAdmitted, f.SynthAdmitted)
		}
		if f.SynthAdmitted < f.GreedyAdmitted {
			t.Errorf("family %s: synthesized %d < greedy %d", f.Name, f.SynthAdmitted, f.GreedyAdmitted)
		}
		if !f.ShadowAgreed {
			t.Errorf("family %s: reference shadow diverged", f.Name)
		}
		if lines := strings.Count(f.GreedyRejectHeat, "\n"); lines != 5 {
			t.Errorf("family %s rejection heatmap has %d rows, want 5:\n%s", f.Name, lines, f.GreedyRejectHeat)
		}
		if f.Snapshot == nil || len(f.Snapshot.Links) == 0 {
			t.Errorf("family %s sealed an empty synthesized ledger", f.Name)
		}
	}
	if res.Table() == nil {
		t.Error("nil summary table")
	}
}
