package experiments

import (
	"strings"
	"testing"
)

// gateCycles picks the capped run length for the forensics gate tests:
// short enough for -short, long enough otherwise to reach the faulty
// scenario's first fault episode.
func gateCycles(short, full int64) int64 {
	if testing.Short() {
		return short
	}
	return full
}

func runGate(t *testing.T, path string, cycles int64) *ForensicsResult {
	t.Helper()
	return runGateLinks(t, path, cycles, 1)
}

func runGateLinks(t *testing.T, path string, cycles int64, linkLat int) *ForensicsResult {
	t.Helper()
	res, err := RunForensics(path, cycles, nil, linkLat)
	if err != nil {
		t.Fatalf("RunForensics(%s): %v", path, err)
	}
	if !res.Identical {
		t.Errorf("forensics report not byte-identical across workers %v", res.Workers)
	}
	for _, c := range res.Checks {
		if !c.OK {
			t.Errorf("check %s failed: %s", c.Name, c.Detail)
		}
	}
	return res
}

// TestForensicsGateFig6 runs the full gate — byte-identical reports at
// workers {1,2,4}, zero unattributed stall cycles, conservation, and
// counter reconciliation — on the clean paper scenario.
func TestForensicsGateFig6(t *testing.T) {
	res := runGate(t, "../../scenarios/fig6.json", gateCycles(4000, 10000))
	if res.Stats.TCStallCycles == 0 {
		t.Error("fig6 produced no attributed TC stall cycles; the engine saw nothing")
	}
	for _, section := range []string{
		"=== stall attribution: cause totals ===",
		"=== blame matrix (victim x blamed) ===",
		"=== slack waterfalls (retained episodes) ===",
		"=== longest stall episodes ===",
	} {
		if !strings.Contains(res.Report, section) {
			t.Errorf("report missing section %q", section)
		}
	}
}

// TestForensicsGateFaulty runs the gate on the fault scenario; past the
// first corruption episode the run must still attribute every stall and
// reconcile with the hardware counters.
func TestForensicsGateFaulty(t *testing.T) {
	res := runGate(t, "../../scenarios/faulty.json", gateCycles(6000, 14000))
	if res.Stats.Unattributed != 0 {
		t.Errorf("unattributed stall cycles: %d", res.Stats.Unattributed)
	}
	// Trigger firing itself is covered deterministically by the core
	// tiny-ring recorder test; faulty.json's 0.002 corruption rate is
	// too sparse to guarantee a hit inside the capped window.
}

// TestForensicsGateEpoch runs the gate epoch-synchronized: with the
// links deepened to 4 cycles and the barrier amortized over 4-cycle
// epochs, the report must still be byte-identical at workers {1,2,4}
// and every invariant must still reconcile.
func TestForensicsGateEpoch(t *testing.T) {
	res := runGateLinks(t, "../../scenarios/fig6.json", gateCycles(4000, 10000), 4)
	if res.Stats.TCStallCycles == 0 {
		t.Error("epoch-4 fig6 produced no attributed TC stall cycles; the engine saw nothing")
	}
}
