package experiments

import (
	"os"
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

// TestSweepDiff covers the baseline matcher and the regression gate on
// synthetic rows: a halved speedup trips the gate, a within-tolerance
// row and a single-worker row do not.
func TestSweepDiff(t *testing.T) {
	cur := &SweepResult{Rows: []SweepRow{
		{W: 8, H: 8, Workers: 1, Speedup: 0.5, ParAllocsPerCycle: 2.0},
		{W: 8, H: 8, Workers: 4, Speedup: 1.0, ParAllocsPerCycle: 2.0},
		{W: 16, H: 16, Workers: 4, Speedup: 2.0, ParAllocsPerCycle: 2.0},
	}}
	base := &SweepBaseline{Rows: []BaselineRow{
		{Mesh: "8x8", Workers: 1, Speedup: 1.0, ParAllocsPerCycle: 2.0},
		{Mesh: "8x8", Workers: 4, Speedup: 2.0, ParAllocsPerCycle: 2.0},
		{Mesh: "16x16", Workers: 4, Speedup: 2.1, ParAllocsPerCycle: 2.0},
		{Mesh: "32x32", Workers: 4, Speedup: 3.0, ParAllocsPerCycle: 2.0},
	}}
	deltas := cur.Diff(base)
	if len(deltas) != 3 {
		t.Fatalf("matched %d rows, want 3 (32x32 has no current row)", len(deltas))
	}
	if err := CheckRegression(deltas, 0.2); err == nil {
		t.Error("halved 8x8 x4 speedup passed a 20%% gate")
	} else if !strings.Contains(err.Error(), "8x8 x4") {
		t.Errorf("gate blamed the wrong row: %v", err)
	}
	if err := CheckRegression(deltas[:1], 0.2); err != nil {
		t.Errorf("single-worker row tripped the speedup floor: %v", err)
	}
	if err := CheckRegression(deltas[2:], 0.2); err != nil {
		t.Errorf("within-tolerance row tripped the gate: %v", err)
	}
	if err := CheckRegression(deltas, 0); err != nil {
		t.Errorf("disabled gate (max-regress 0) still failed: %v", err)
	}

	// Allocation growth trips the gate independently of speedup.
	grew := []SweepDelta{{Mesh: "8x8", Workers: 4, BaseSpeedup: 2.0,
		CurSpeedup: 2.0, SpeedupRatio: 1.0,
		BaseAllocs: 1.0, CurAllocs: 1.5, AllocsRatio: 1.5}}
	if err := CheckRegression(grew, 0.2); err == nil {
		t.Error("50%% allocation growth passed a 20%% gate")
	}
}

// TestLoadSweepBaseline exercises the archive loader's error paths and
// round-trip.
func TestLoadSweepBaseline(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		p := dir + "/" + name
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := write("good.json",
		`{"gomaxprocs": 8, "rows": [{"mesh": "8x8", "workers": 4, "speedup": 2.5}]}`)
	b, err := LoadSweepBaseline(good)
	if err != nil {
		t.Fatal(err)
	}
	if b.GOMAXPROCS != 8 || len(b.Rows) != 1 || b.Rows[0].Speedup != 2.5 {
		t.Errorf("round-trip mismatch: %+v", b)
	}
	if _, err := LoadSweepBaseline(dir + "/missing.json"); err == nil {
		t.Error("missing file loaded")
	}
	if _, err := LoadSweepBaseline(write("empty.json", `{"rows": []}`)); err == nil {
		t.Error("empty baseline loaded")
	}
	if _, err := LoadSweepBaseline(write("bad.json", `{"rows": [`)); err == nil {
		t.Error("malformed baseline loaded")
	}
}
