package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/traffic"
)

// forensicsWorkload drives a loaded 3×3 mesh — three crossing TC
// channels plus best-effort background on every node — under the given
// options and returns the system after cycles ticks. The workload is
// deterministic, so two calls with behavior-neutral option differences
// must produce identical hardware counters.
func forensicsWorkload(t *testing.T, opts Options, inject bool, cycles int64) *System {
	t.Helper()
	rcfg := router.DefaultConfig()
	rcfg.Integrity = true
	opts.Router = rcfg
	sys, err := NewMesh(3, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if inject {
		inj := fault.New(99)
		if err := inj.InjectAll(sys.Net, fault.Config{Kind: fault.Corrupt, Rate: 0.01, Burst: 3}); err != nil {
			t.Fatal(err)
		}
	}
	spec := rtc.Spec{Imin: 8, Smax: 18, D: 90}
	routes := [][]mesh.Coord{
		{{X: 0, Y: 0}, {X: 2, Y: 2}},
		{{X: 2, Y: 0}, {X: 0, Y: 2}},
		{{X: 0, Y: 1}, {X: 2, Y: 1}},
	}
	for i, rt := range routes {
		ch, err := sys.OpenChannel(rt[0], rt[1:], spec)
		if err != nil {
			t.Fatalf("channel %d: %v", i, err)
		}
		app, err := traffic.NewTCApp(fmt.Sprintf("tc%d", i), ch.Paced(), spec, traffic.Periodic, 18)
		if err != nil {
			t.Fatal(err)
		}
		sys.RegisterNode(rt[0], app)
	}
	for i, c := range sys.Net.Coords() {
		be, err := traffic.NewBEApp(fmt.Sprintf("be%d", i), sys.Net, c,
			traffic.UniformDst(sys.Net, c), traffic.UniformSize(16, 96), 0.3, int64(i)+1)
		if err != nil {
			t.Fatal(err)
		}
		sys.RegisterNode(c, be)
	}
	sys.Run(cycles)
	return sys
}

// TestForensicsInert: attaching the slack-attribution engine and the
// flight recorder must not perturb the simulated machine — every
// hardware counter and delivery count matches a bare run.
func TestForensicsInert(t *testing.T) {
	bare := forensicsWorkload(t, Options{}, false, 6000)
	defer bare.Close()
	fns := obs.NewForensics()
	rec := obs.NewRecorder(64, 2)
	wired := forensicsWorkload(t, Options{Forensics: fns, Recorder: rec}, false, 6000)
	defer wired.Close()

	for _, c := range bare.Net.Coords() {
		a, b := bare.Router(c).Stats, wired.Router(c).Stats
		if a != b {
			t.Errorf("router %v counters diverged with forensics attached:\n%+v\nvs\n%+v", c, a, b)
		}
		if at, bt := bare.Sink(c).TCCount, wired.Sink(c).TCCount; at != bt {
			t.Errorf("router %v TC deliveries diverged: %d vs %d", c, at, bt)
		}
		if ab, bb := bare.Sink(c).BECount, wired.Sink(c).BECount; ab != bb {
			t.Errorf("router %v BE deliveries diverged: %d vs %d", c, ab, bb)
		}
	}
}

// TestForensicsSealedExport: the metrics sources stay nil until Flush
// seals the run (so a live scrape never races the compute phase), and
// after sealing the snapshot carries a conserved blame breakdown and
// the Prometheus text exposes the rt_blame_*/rt_forensics_* families.
func TestForensicsSealedExport(t *testing.T) {
	reg := metrics.NewRegistry()
	fns := obs.NewForensics()
	rec := obs.NewRecorder(0, 0)
	sys := forensicsWorkload(t, Options{Metrics: reg, Forensics: fns, Recorder: rec}, false, 6000)
	defer sys.Close()

	pre := reg.Snapshot()
	if pre.Blame != nil || pre.Forensics != nil {
		t.Fatal("blame/forensics exported before Flush sealed the run")
	}

	fns.Flush()
	snap := reg.Snapshot()
	if snap.Forensics == nil {
		t.Fatal("no forensics snapshot after Flush")
	}
	if len(snap.Blame) == 0 {
		t.Fatal("no blame rows after a loaded run")
	}
	fs := snap.Forensics
	if fs.Unattributed != 0 {
		t.Errorf("unattributed stall cycles: %d", fs.Unattributed)
	}
	var tcSum, rowSum int64
	for cause, v := range fs.ByCause {
		if cause != router.CauseCreditStarved.String() {
			tcSum += v
		}
	}
	if tcSum != fs.TCStallCycles {
		t.Errorf("cause sum %d != tc stall cycles %d", tcSum, fs.TCStallCycles)
	}
	// The blame matrix is the same ledger at finer grain: its cycle
	// total must equal the cause totals'.
	var causeSum int64
	for _, v := range fs.ByCause {
		causeSum += v
	}
	for _, row := range snap.Blame {
		rowSum += row.Cycles
	}
	if rowSum != causeSum {
		t.Errorf("blame rows sum %d != cause totals sum %d", rowSum, causeSum)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, family := range []string{
		"rt_blame_cycles_total{",
		"rt_forensics_tc_stall_cycles_total",
		"rt_forensics_unattributed_cycles_total",
		"rt_forensics_cause_cycles_total{",
		"rt_forensics_triggers_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("Prometheus text missing %s", family)
		}
	}
}

// TestRecorderTinyRing: satellite coverage for the -short flight
// recorder path. A deliberately tiny per-node ring under a corrupting
// fault injector must keep counting evicted triggers, retain at most
// ring-depth descriptors per node in merged order, and still dump a
// well-formed JSONL window; a recorder that saw no trouble must decline
// to dump at all.
func TestRecorderTinyRing(t *testing.T) {
	col := obs.NewSharded(4096)
	slo := obs.NewSLO()
	fns := obs.NewForensics()
	rec := obs.NewRecorder(64, 2)
	sys := forensicsWorkload(t, Options{
		Collector: col, ChannelSLO: slo, Forensics: fns, Recorder: rec,
	}, true, 8000)
	defer sys.Close()
	fns.Flush()

	if rec.Count() == 0 {
		t.Fatal("corrupting injector fired no flight-recorder triggers")
	}
	if rec.CountKind("fault_drop") == 0 {
		t.Error("no fault_drop triggers under a corrupting injector")
	}
	if rec.CountKind("no_such_kind") != 0 {
		t.Error("unknown trigger kind returned a nonzero count")
	}
	ts := rec.Triggers()
	if len(ts) == 0 || int64(len(ts)) > rec.Count() {
		t.Fatalf("retained %d triggers of %d counted", len(ts), rec.Count())
	}
	if max := 9 * 2; len(ts) > max {
		t.Errorf("tiny ring retained %d triggers, cap is %d", len(ts), max)
	}
	for i := 1; i < len(ts); i++ {
		a, b := ts[i-1], ts[i]
		if b.Cycle < a.Cycle || (b.Cycle == a.Cycle && b.Node < a.Node) {
			t.Fatalf("triggers out of (cycle, node) order at %d: %+v then %+v", i, a, b)
		}
	}

	var jsonl bytes.Buffer
	fired, err := rec.DumpJSONL(&jsonl, col)
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("DumpJSONL declined with retained triggers")
	}
	lines := strings.Split(strings.TrimRight(jsonl.String(), "\n"), "\n")
	if !strings.Contains(lines[0], `"kind":"trigger"`) {
		t.Errorf("JSONL dump does not lead with trigger records: %q", lines[0])
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "{") || !strings.HasSuffix(l, "}") {
			t.Fatalf("malformed JSONL line: %q", l)
		}
		if strings.Contains(l, `"kind":"trigger"`) && !strings.Contains(l, `"free_slots":`) {
			t.Errorf("trigger record missing occupancy snapshot: %q", l)
		}
	}

	var chrome bytes.Buffer
	fired, err = rec.DumpChrome(&chrome, col, slo)
	if err != nil {
		t.Fatal(err)
	}
	if !fired || chrome.Len() == 0 {
		t.Fatal("DumpChrome declined with retained triggers")
	}

	// A recorder that never saw trouble must not write anything.
	idle := obs.NewRecorder(64, 2)
	var empty bytes.Buffer
	if fired, err := idle.DumpChrome(&empty, col, slo); err != nil || fired {
		t.Fatalf("idle recorder dumped: fired=%v err=%v", fired, err)
	}
	if fired, err := idle.DumpJSONL(&empty, col); err != nil || fired {
		t.Fatalf("idle recorder dumped JSONL: fired=%v err=%v", fired, err)
	}
	if empty.Len() != 0 {
		t.Fatalf("idle recorder wrote %d bytes", empty.Len())
	}
}

// TestRecorderCountsReset: a warm-up ResetStats zeroes the flight
// recorder's trigger counts together with its trigger log, so from the
// reset on CountKind("hop_miss") moves in lockstep with the routers'
// TCDeadlineMisses again.
func TestRecorderCountsReset(t *testing.T) {
	rec := obs.NewRecorder(64, 2)
	sys := forensicsWorkload(t, Options{Recorder: rec}, true, 8000)
	defer sys.Close()
	if rec.Count() == 0 {
		t.Fatal("corrupting injector fired no flight-recorder triggers before the reset")
	}

	sys.ResetStats()
	if n := rec.Count(); n != 0 {
		t.Errorf("Count() = %d after ResetStats, want 0", n)
	}
	for _, kind := range []string{"hop_miss", "deadline_miss", "fault_drop", "fault_retransmit"} {
		if n := rec.CountKind(kind); n != 0 {
			t.Errorf("CountKind(%q) = %d after ResetStats, want 0", kind, n)
		}
	}
	if ts := rec.Triggers(); len(ts) != 0 {
		t.Errorf("%d triggers retained after ResetStats", len(ts))
	}

	sys.Run(8000)
	if rec.Count() == 0 {
		t.Fatal("no triggers fired after the reset")
	}
	var misses int64
	for _, c := range sys.Net.Coords() {
		misses += sys.Router(c).Stats.TCDeadlineMisses
	}
	if got := rec.CountKind("hop_miss"); got != misses {
		t.Errorf("CountKind(hop_miss) = %d after the reset, routers count %d deadline misses", got, misses)
	}
}
