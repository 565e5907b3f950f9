package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/scenario"
)

// ForensicsResult is the outcome of RunForensics: the attribution
// report of the reference run, the determinism verdict across worker
// counts, and the conservation / reconciliation checks the CI gate
// enforces.
type ForensicsResult struct {
	Scenario string
	Cycles   int64
	Workers  []int
	// LinkLatency is the mesh-wire depth every run used; the parallel
	// runs synchronize once per that many cycles.
	LinkLatency int
	// Identical reports whether every worker count produced a
	// byte-identical forensics report (attribution + recorder summary).
	Identical bool
	// Report is the reference (first worker count) report text.
	Report string
	// Stats are the reference run's attribution totals.
	Stats metrics.ForensicsSnapshot
	// Triggers is the reference run's flight-recorder trigger count.
	Triggers int64
	Checks
}

// OK reports whether every check passed and the reports matched.
func (r *ForensicsResult) OK() bool { return r.Identical && r.Checks.OK() }

// DefaultForensicsWorkers is the worker set the determinism check
// covers.
var DefaultForensicsWorkers = []int{1, 2, 4}

// forensicsRun is one scenario execution with the full forensics stack
// attached.
type forensicsRun struct {
	report []byte
	stats  metrics.ForensicsSnapshot
	reg    *metrics.Registry
	rec    *obs.Recorder
}

func runForensicsOnce(path string, cycles int64, workers, linkLat, shardCap int) (*forensicsRun, error) {
	sc, err := scenario.Load(path)
	if err != nil {
		return nil, err
	}
	clipScenario(sc, cycles)
	reg := metrics.NewRegistry()
	col := obs.NewSharded(shardCap)
	slo := obs.NewSLO()
	fns := obs.NewForensics()
	rec := obs.NewRecorder(0, 0)
	_, sys, err := sc.RunWith(scenario.RunOpts{
		Router:  router.Config{LinkLatency: linkLat},
		Metrics: reg, Collector: col, ChannelSLO: slo,
		Forensics: fns, Recorder: rec, Workers: workers,
	})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	fns.Flush()
	var buf bytes.Buffer
	fns.Report(&buf, col.Merged())
	buf.WriteString("\n")
	rec.Summary(&buf)
	return &forensicsRun{
		report: buf.Bytes(), stats: fns.Stats(), reg: reg, rec: rec,
	}, nil
}

// RunForensics runs the scenario once per worker count with the slack
// attribution engine and flight recorder attached, verifies the
// forensics report is byte-identical across worker counts, and checks
// the attribution invariants:
//
//   - conservation: every attributed time-constrained stall cycle
//     carries exactly one cause, and none is unattributed;
//   - credit_starved cycles reconcile exactly with the hardware
//     rt_be_stall_cycles counters;
//   - hop_miss triggers reconcile exactly with the hardware
//     DeadlineMisses counter;
//   - fault_retransmit attribution appears only when the fault
//     machinery actually retransmitted or aborted.
//
// cycles > 0 caps the scenario's run length (the -short test mode).
// linkLat > 1 runs every worker count over deepened links — the parallel
// ones epoch-synchronized — so the byte-identical gate covers the epoch
// path too.
func RunForensics(path string, cycles int64, workers []int, linkLat int) (*ForensicsResult, error) {
	if len(workers) == 0 {
		workers = DefaultForensicsWorkers
	}
	if linkLat < 1 {
		linkLat = 1
	}
	const shardCap = 1 << 15
	res := &ForensicsResult{Scenario: path, Workers: workers, LinkLatency: linkLat, Identical: true}
	var ref *forensicsRun
	for i, wk := range workers {
		run, err := runForensicsOnce(path, cycles, wk, linkLat, shardCap)
		if err != nil {
			return nil, fmt.Errorf("forensics %s x%d: %w", path, wk, err)
		}
		if i == 0 {
			ref = run
			continue
		}
		if !bytes.Equal(ref.report, run.report) {
			res.Identical = false
		}
	}
	res.Report = string(ref.report)
	res.Stats = ref.stats
	res.Triggers = ref.rec.Count()
	res.Cycles = ref.reg.Cycles.Load()

	check := res.Checks.add

	st := ref.stats
	check("unattributed_zero", st.Unattributed == 0,
		"unattributed stall cycles: %d", st.Unattributed)

	var tcSum int64
	for c := router.StallCause(1); c < router.NumStallCauses; c++ {
		if c == router.CauseCreditStarved {
			continue
		}
		tcSum += st.ByCause[c.String()]
	}
	check("cause_conservation", tcSum == st.TCStallCycles,
		"sum of tc causes %d vs tc stall cycles %d", tcSum, st.TCStallCycles)

	snap := ref.reg.Snapshot()
	var beStalls, misses, retx, aborts int64
	for _, rs := range snap.Routers {
		for _, v := range rs.BEStallCycles {
			beStalls += v
		}
		misses += rs.DeadlineMisses
		retx += rs.BERetransmits
		aborts += rs.BEFrameAborts
	}
	starved := st.ByCause[router.CauseCreditStarved.String()]
	check("credit_starved_matches_be_stalls", starved == beStalls,
		"credit_starved %d vs rt_be_stall_cycles %d", starved, beStalls)

	hopMiss := ref.rec.CountKind("hop_miss")
	check("hop_miss_triggers_match_deadline_misses", hopMiss == misses,
		"hop_miss triggers %d vs deadline misses %d", hopMiss, misses)

	faultBlame := st.ByCause[router.CauseFaultRetransmit.String()]
	check("fault_blame_implies_fault_activity",
		faultBlame == 0 || retx+aborts > 0,
		"fault_retransmit cycles %d with %d retransmits, %d aborts",
		faultBlame, retx, aborts)

	return res, nil
}

// Table renders the check list.
func (r *ForensicsResult) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Forensics gate: %s (%d cycles, %d-cycle links)", r.Scenario, r.Cycles, r.LinkLatency),
		Header: []string{"check", "ok", "detail"},
	}
	t.AddRow("byte_identical_reports", fmt.Sprintf("%v", r.Identical),
		fmt.Sprintf("workers %v", r.Workers))
	for _, c := range r.Checks {
		t.AddRow(c.Name, fmt.Sprintf("%v", c.OK), c.Detail)
	}
	t.AddNote("tc stall cycles %d, flight-recorder triggers %d",
		r.Stats.TCStallCycles, r.Triggers)
	return t
}
