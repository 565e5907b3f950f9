package metrics

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestFold: two routers sharing a name fold into one block. Counters add
// what each counted since its own last fold, high-waters keep the
// maximum, and a level moves only when the folding router moved it: the
// memory level as flagged, the leaf level with a beat.
func TestFold(t *testing.T) {
	m := NewRegistry().Router("r")
	var a0, a1, b0, b1 RouterCounts
	a1.TCEnqueued, a1.Drops[DropTCNoRoute], a1.MemHighWater, a1.MemOccupancy = 5, 1, 9, 4
	m.Fold(&a1, &a0, true)
	b1.TCEnqueued, b1.MemHighWater, b1.MemOccupancy, b1.SchedSelects, b1.SchedOccupancy = 3, 6, 2, 1, 7
	m.Fold(&b1, &b0, false)
	a2 := a1
	a2.TCEnqueued, a2.ArbWins[1][ArbEarly], a2.SchedOccupancy = 8, 2, 5
	m.Fold(&a2, &a1, false)
	if m.TCEnqueued != 11 || m.ArbWins[1][ArbEarly] != 2 || m.Drops[DropTCNoRoute] != 1 {
		t.Errorf("counters %d enqueued, %d early wins, %d drops; want 11, 2, 1",
			m.TCEnqueued, m.ArbWins[1][ArbEarly], m.Drops[DropTCNoRoute])
	}
	if m.MemHighWater != 9 {
		t.Errorf("high-water %d, want the larger fold's 9", m.MemHighWater)
	}
	if m.MemOccupancy != 4 || m.SchedOccupancy != 7 {
		t.Errorf("levels mem %d sched %d; want 4 and 7, each from the router that moved it",
			m.MemOccupancy, m.SchedOccupancy)
	}
}

func TestRouterBlockNilSafe(t *testing.T) {
	var m *RouterMetrics
	m.Reset() // must not panic
	if m.Name() != "" {
		t.Error("nil block has a name")
	}
}

func TestRegistryRouterIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Router("(0,0)")
	b := reg.Router("(0,0)")
	if a != b {
		t.Fatal("Router() returned distinct blocks for one name")
	}
	reg.Router("(1,0)")
	if got := reg.Routers(); len(got) != 2 || got[0] != "(0,0)" || got[1] != "(1,0)" {
		t.Errorf("Routers() = %v", got)
	}
}

func fill(reg *Registry) {
	m := reg.Router("(0,0)")
	m.TCEnqueued = 10
	m.TCDequeued[0] = 9
	m.ArbWins[0][ArbOnTime] = 7
	m.ArbWins[0][ArbEarly] = 2
	m.ArbWins[4][ArbBE] = 100
	m.MemOccupancy = 3
	m.MemHighWater = 12
	m.SlotRollovers = 4
	m.DeadlineMisses = 1
	m.Drops[DropTCNoRoute] = 2
	n := reg.Router("(1,0)")
	n.TCEnqueued = 5
	n.MemHighWater = 8
}

func TestSnapshotTotals(t *testing.T) {
	reg := NewRegistry()
	fill(reg)
	snap := reg.Snapshot()
	if snap.Totals.TCEnqueued != 15 {
		t.Errorf("total enqueued = %d, want 15", snap.Totals.TCEnqueued)
	}
	if snap.Totals.MemHighWater != 12 {
		t.Errorf("total high water = %d, want max 12", snap.Totals.MemHighWater)
	}
	if snap.Totals.ArbWins["+x"]["on_time"] != 7 {
		t.Errorf("total on-time wins = %d, want 7", snap.Totals.ArbWins["+x"]["on_time"])
	}
	if snap.Totals.Drops["tc_no_route"] != 2 {
		t.Errorf("total no-route drops = %d, want 2", snap.Totals.Drops["tc_no_route"])
	}
	if len(snap.Routers) != 2 {
		t.Fatalf("routers = %d, want 2", len(snap.Routers))
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	reg := NewRegistry()
	fill(reg)
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if snap.Totals.SlotRollovers != 4 || snap.Totals.DeadlineMisses != 1 {
		t.Errorf("decoded totals wrong: %+v", snap.Totals)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	fill(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`rt_arb_wins_total{router="(0,0)",port="+x",class="on_time"} 7`,
		`rt_mem_high_water{router="(0,0)"} 12`,
		`rt_deadline_misses_total{router="(0,0)"} 1`,
		`rt_slot_rollovers_total{router="(0,0)"} 4`,
		`rt_drops_total{router="(0,0)",reason="tc_no_route"} 2`,
		"# TYPE rt_arb_wins_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

func TestResetZeroes(t *testing.T) {
	reg := NewRegistry()
	fill(reg)
	reg.Reset()
	snap := reg.Snapshot()
	if snap.Totals.TCEnqueued != 0 || snap.Totals.MemHighWater != 0 {
		t.Errorf("reset left counts: %+v", snap.Totals)
	}
	// Occupancy level survives reset by design (it is a level, not a count).
	if snap.Totals.MemOccupancy != 3 {
		t.Errorf("occupancy level = %d, want 3 preserved", snap.Totals.MemOccupancy)
	}
}

func TestServeHTTPFormats(t *testing.T) {
	reg := NewRegistry()
	fill(reg)
	rr := httptest.NewRecorder()
	reg.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rr.Body.String(), "rt_arb_wins_total") {
		t.Error("default response is not prometheus text")
	}
	rr = httptest.NewRecorder()
	reg.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics.json", nil))
	var snap Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Errorf(".json endpoint not JSON: %v", err)
	}
	rr = httptest.NewRecorder()
	reg.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics?format=json", nil))
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Errorf("format=json endpoint not JSON: %v", err)
	}
}
