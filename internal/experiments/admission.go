package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/admission"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/router"
)

// AdmissionBatchRow is one AdmitBatch measurement at a fixed worker
// count: throughput plus the byte-identity verdict against the
// incremental sequential run.
type AdmissionBatchRow struct {
	Workers         int
	Secs            float64
	DecisionsPerSec float64
	Replans         int64
	Identical       bool
}

// AdmissionFamilyResult is one request family's mass-admission
// measurements: the reference (pre-incremental) sequential path, the
// incremental sequential path, AdmitBatch at each worker count, and the
// churn phase that tears down and re-admits a third of the admitted set.
type AdmissionFamilyResult struct {
	Name     string
	Requests int
	Admitted int
	Rejected int
	// RefSecs times the Reference-mode controller (from-scratch EDF, no
	// memos, no speculation, same planner) over the same request
	// sequence, measured in-run so the speedup — what the caches alone
	// buy — never compares across machines.
	RefSecs            float64
	RefDecisionsPerSec float64
	// SeqSecs times the incremental sequential Admit loop.
	SeqSecs            float64
	SeqDecisionsPerSec float64
	// Speedup is incremental-sequential over reference-sequential —
	// serial versus serial, so it holds on a single-CPU runner too.
	Speedup float64
	// P99AdmitMicros is the 99th-percentile single-decision latency of
	// the incremental sequential run (admissions and rejections both).
	P99AdmitMicros float64
	Batch          []AdmissionBatchRow
	// Churn phase: every third admitted channel torn down and re-admitted
	// on the live controller, then the ledger re-verified.
	ChurnOps       int
	ChurnOpsPerSec float64
}

// AdmissionResult is the outcome of RunAdmission across all families.
type AdmissionResult struct {
	W, H       int
	Requests   int
	WorkerSet  []int
	NumCPU     int
	GOMAXPROCS int
	Families   []AdmissionFamilyResult
	Checks     // identity and ledger invariants
}

// MinSpeedup returns the smallest per-family incremental-vs-reference
// speedup, the number the CI gate floors.
func (r *AdmissionResult) MinSpeedup() float64 {
	min := 0.0
	for i, f := range r.Families {
		if i == 0 || f.Speedup < min {
			min = f.Speedup
		}
	}
	return min
}

// BestBatchRate returns the highest AdmitBatch decisions/sec observed
// across families and worker counts.
func (r *AdmissionResult) BestBatchRate() float64 {
	best := 0.0
	for _, f := range r.Families {
		for _, b := range f.Batch {
			if b.DecisionsPerSec > best {
				best = b.DecisionsPerSec
			}
		}
	}
	return best
}

// admissionRequests expands a capacity family into its first n requests.
func admissionRequests(fam CapacityFamily, w, h, n int) []admission.Request {
	reqs := make([]admission.Request, n)
	for i := 0; i < n; i++ {
		src, dst := fam.Place(i, w, h)
		reqs[i] = admission.Request{Src: src, Dsts: []mesh.Coord{dst}, Spec: fam.Spec}
	}
	return reqs
}

// admissionRun is one controller's pass over a request sequence: the
// outcome counts, the sealed-ledger bytes, and the audit-log fingerprint
// that the identity checks compare.
type admissionRun struct {
	secs      float64
	admitted  int
	rejected  int
	seal      []byte
	auditLen  int
	auditHash uint64
	// chans[i] is the channel admitted for request i (nil if rejected);
	// only the incremental sequential run keeps it, for the churn phase.
	chans []*admission.Channel
	ctl   *admission.Controller
}

// newController builds a fresh w×h mesh with an admission controller
// over it — every campaign's starting point — attaching aud when it is
// non-nil.
func newController(w, h int, cfg admission.Config, aud *obs.AuditLog) (*mesh.Network, *admission.Controller, error) {
	net, err := mesh.New(w, h, router.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	ctl, err := admission.New(net, cfg)
	if err != nil {
		return nil, nil, err
	}
	if aud != nil {
		ctl.AttachAudit(aud)
	}
	return net, ctl, nil
}

// sequentialRun admits the sequence one request at a time. latencies, if
// non-nil, receives one duration per decision (for the p99 figure).
func sequentialRun(w, h int, reference bool, reqs []admission.Request, latencies *[]time.Duration) (*admissionRun, error) {
	cfg := admission.DefaultConfig()
	cfg.Reference = reference
	aud := obs.NewAuditLog()
	_, ctl, err := newController(w, h, cfg, aud)
	if err != nil {
		return nil, err
	}
	run := &admissionRun{chans: make([]*admission.Channel, len(reqs)), ctl: ctl}
	// Collect the previous run's garbage first — the Reference run leaves
	// plenty — so no run pays for another's.
	runtime.GC()
	start := time.Now()
	for i, r := range reqs {
		var t0 time.Time
		if latencies != nil {
			t0 = time.Now()
		}
		ch, err := ctl.Admit(r.Src, r.Dsts, r.Spec)
		if latencies != nil {
			*latencies = append(*latencies, time.Since(t0))
		}
		if err != nil {
			run.rejected++
			continue
		}
		run.chans[i] = ch
		run.admitted++
	}
	run.secs = time.Since(start).Seconds()
	return run, finishAdmissionRun(run, aud)
}

// batchRun admits the sequence through AdmitBatch at the given worker
// count.
func batchRun(w, h, workers int, reqs []admission.Request) (*admissionRun, int64, error) {
	aud := obs.NewAuditLog()
	_, ctl, err := newController(w, h, admission.DefaultConfig(), aud)
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	start := time.Now()
	res := ctl.AdmitBatch(reqs, workers)
	run := &admissionRun{
		secs:     time.Since(start).Seconds(),
		admitted: res.Admitted,
		rejected: res.Rejected,
		chans:    res.Channels,
		ctl:      ctl,
	}
	return run, ctl.Stats().BatchReplans, finishAdmissionRun(run, aud)
}

func finishAdmissionRun(run *admissionRun, aud *obs.AuditLog) error {
	if err := run.ctl.VerifyLedger(); err != nil {
		return fmt.Errorf("ledger after run: %w", err)
	}
	seal, err := json.Marshal(run.ctl.Seal())
	if err != nil {
		return err
	}
	run.seal = seal
	run.auditLen = aud.Len()
	run.auditHash = aud.DumpHash()
	return nil
}

// sameRun compares two runs' decisions, sealed ledgers, and audit logs.
func sameRun(a, b *admissionRun) (bool, string) {
	if a.admitted != b.admitted || a.rejected != b.rejected {
		return false, fmt.Sprintf("decisions %d/%d vs %d/%d", a.admitted, a.rejected, b.admitted, b.rejected)
	}
	if !bytes.Equal(a.seal, b.seal) {
		return false, "sealed ledger bytes differ"
	}
	if a.auditLen != b.auditLen || a.auditHash != b.auditHash {
		return false, fmt.Sprintf("audit log differs (%d records hash %x vs %d records hash %x)",
			a.auditLen, a.auditHash, b.auditLen, b.auditHash)
	}
	return true, ""
}

func p99Micros(lat []time.Duration) float64 {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (99*len(sorted) + 99) / 100 // ceil(0.99*n)
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return float64(sorted[idx-1]) / float64(time.Microsecond)
}

// RunAdmission runs the mass-admission campaign on a w×h mesh: per
// request family it times the reference sequential path against the
// incremental sequential path over the same `requests`-long sequence
// (the in-run speedup the CI gate floors), measures AdmitBatch at each
// worker count with byte-identity checks against the sequential run,
// and finishes with a teardown/re-admit churn phase on the live
// controller. requests defaults to 100000, workers to {1, 2, 4}.
func RunAdmission(w, h, requests int, workers []int) (*AdmissionResult, error) {
	if requests <= 0 {
		requests = 100000
	}
	if len(workers) == 0 {
		workers = []int{1, 2, 4}
	}
	res := &AdmissionResult{
		W: w, H: h, Requests: requests, WorkerSet: workers,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	check := res.Checks.add
	for _, fam := range DefaultCapacityFamilies() {
		reqs := admissionRequests(fam, w, h, requests)
		fr := AdmissionFamilyResult{Name: fam.Name, Requests: len(reqs)}

		refRun, err := sequentialRun(w, h, true, reqs, nil)
		if err != nil {
			return nil, fmt.Errorf("admission %s reference: %w", fam.Name, err)
		}
		latencies := make([]time.Duration, 0, len(reqs))
		seqRun, err := sequentialRun(w, h, false, reqs, &latencies)
		if err != nil {
			return nil, fmt.Errorf("admission %s sequential: %w", fam.Name, err)
		}
		fr.Admitted, fr.Rejected = seqRun.admitted, seqRun.rejected
		fr.RefSecs, fr.SeqSecs = refRun.secs, seqRun.secs
		if refRun.secs > 0 {
			fr.RefDecisionsPerSec = float64(len(reqs)) / refRun.secs
		}
		if seqRun.secs > 0 {
			fr.SeqDecisionsPerSec = float64(len(reqs)) / seqRun.secs
			fr.Speedup = refRun.secs / seqRun.secs
		}
		fr.P99AdmitMicros = p99Micros(latencies)
		check(fam.Name+"_saturates", fr.Admitted > 0 && fr.Rejected > 0,
			"admitted %d rejected %d of %d (identity checks need both outcomes)",
			fr.Admitted, fr.Rejected, len(reqs))
		// The reference controller is the oracle: the incremental path
		// must reproduce its decisions, ledger, and audit log exactly.
		ok, why := sameRun(refRun, seqRun)
		check(fam.Name+"_ref_identity", ok, "%s", why)

		for _, wk := range workers {
			bRun, replans, err := batchRun(w, h, wk, reqs)
			if err != nil {
				return nil, fmt.Errorf("admission %s batch x%d: %w", fam.Name, wk, err)
			}
			row := AdmissionBatchRow{Workers: wk, Secs: bRun.secs, Replans: replans}
			if bRun.secs > 0 {
				row.DecisionsPerSec = float64(len(reqs)) / bRun.secs
			}
			row.Identical, why = sameRun(seqRun, bRun)
			check(fmt.Sprintf("%s_batch_identity_x%d", fam.Name, wk), row.Identical, "%s", why)
			fr.Batch = append(fr.Batch, row)
		}

		// Churn: tear down every third admitted channel on the live
		// sequential controller, re-admit the same requests, and verify
		// the ledger survives. Re-admission must succeed — the final set
		// is a subset of what the controller already proved feasible.
		var victims []int
		for i, ch := range seqRun.chans {
			if ch != nil && len(victims)*3 <= i {
				victims = append(victims, i)
			}
		}
		churnErr := error(nil)
		start := time.Now()
		for _, i := range victims {
			if err := seqRun.ctl.Teardown(seqRun.chans[i]); err != nil {
				churnErr = fmt.Errorf("teardown request %d: %w", i, err)
				break
			}
		}
		if churnErr == nil {
			for _, i := range victims {
				r := reqs[i]
				ch, err := seqRun.ctl.Admit(r.Src, r.Dsts, r.Spec)
				if err != nil {
					churnErr = fmt.Errorf("re-admit request %d: %w", i, err)
					break
				}
				seqRun.chans[i] = ch
			}
		}
		churnSecs := time.Since(start).Seconds()
		if churnErr == nil {
			churnErr = seqRun.ctl.VerifyLedger()
		}
		fr.ChurnOps = 2 * len(victims)
		if churnSecs > 0 {
			fr.ChurnOpsPerSec = float64(fr.ChurnOps) / churnSecs
		}
		check(fam.Name+"_churn_ledger", churnErr == nil,
			"%d teardown/re-admit ops: %v", fr.ChurnOps, churnErr)

		res.Families = append(res.Families, fr)
	}
	return res, nil
}

// Table renders the per-family throughput summary.
func (r *AdmissionResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Admission campaign: %dx%d mesh, %d requests (GOMAXPROCS=%d, NumCPU=%d)",
			r.W, r.H, r.Requests, r.GOMAXPROCS, r.NumCPU),
		Header: []string{"family", "admitted", "ref_dec/s", "inc_dec/s", "speedup",
			"p99_us"},
	}
	for _, wk := range r.WorkerSet {
		t.Header = append(t.Header, fmt.Sprintf("batch_x%d/s", wk))
	}
	t.Header = append(t.Header, "replans", "identical", "churn_ops/s")
	for _, f := range r.Families {
		row := []string{
			f.Name, di(f.Admitted),
			fmt.Sprintf("%.0f", f.RefDecisionsPerSec),
			fmt.Sprintf("%.0f", f.SeqDecisionsPerSec),
			fmt.Sprintf("%.1fx", f.Speedup),
			f2(f.P99AdmitMicros),
		}
		var replans int64
		identical := true
		for _, b := range f.Batch {
			row = append(row, fmt.Sprintf("%.0f", b.DecisionsPerSec))
			replans += b.Replans
			identical = identical && b.Identical
		}
		row = append(row, d(replans), fmt.Sprintf("%v", identical),
			fmt.Sprintf("%.0f", f.ChurnOpsPerSec))
		t.AddRow(row...)
	}
	r.Checks.noteFailures(t)
	return t
}
