package admission

// edfFeasible decides whether a set of sporadic connections is
// schedulable on one link under the deadline-driven discipline the
// router implements. Each task demands C slots every T slots with
// relative deadline D (all in slots, all < 128 by the rollover
// constraint).
//
// The test is the processor-demand criterion for sporadic tasks under
// EDF: the link is feasible iff utilization does not exceed one and, for
// every absolute deadline t up to the analysis bound,
//
//	dbf(t) = Σ_i max(0, ⌊(t − D_i)/T_i⌋ + 1)·C_i ≤ t.
//
// Early traffic served under the horizon parameter is work performed
// ahead of the EDF schedule on an otherwise idle link, so it never
// increases any dbf term; horizons affect buffer bounds (rtc.BufferBound)
// but not this test.
//
// With utilization ≤ 1, violations occur only inside the first busy
// period, whose length is bounded by Σ C_i / (1 − U); the test caps the
// bound at a hyper-horizon sufficient for the router's 7-bit parameter
// range and rejects (conservatively) anything that would need more.
func edfFeasible(tasks []task) bool {
	return edfAnalyze(tasks).feasible
}

// edfReport is the full outcome of one link analysis: the verdict plus
// the numbers the audit trail and capacity ledger surface — which
// sub-test failed and by how much, or how much slack survives.
type edfReport struct {
	feasible bool
	// util is ΣC/T over the analyzed set (valid in every outcome except
	// a "validity" failure, where summation stops at the bad task).
	util float64
	// headroom is the minimum over all checked step points of
	// t − dbf(t), in slots: how many more slots of demand the link could
	// absorb at its tightest deadline. Valid only when feasible.
	headroom int64
	// test names the failed sub-test when infeasible: "utilization",
	// "busy_period", or "validity".
	test string
	// at is the failing step point t and demand the dbf(t) there
	// (busy_period failures only).
	at, demand int64
	// margin is signed: the failure margin (≤ 0) when infeasible —
	// 1−util for the utilization test, t−dbf(t) for the busy-period
	// test — or the headroom (≥ 0) when feasible.
	margin float64
}

// edfAnalyze runs the processor-demand criterion and reports the
// verdict with its margins. The test order matches the original
// edfFeasible exactly — validity, then utilization, then dbf at every
// step point t = D_i + k·T_i ≤ busy-period bound — so the first failing
// test is the one reported.
func edfAnalyze(tasks []task) edfReport {
	if len(tasks) == 0 {
		return edfReport{feasible: true, headroom: maxAnalysisHorizon,
			margin: maxAnalysisHorizon}
	}
	var sumC int64
	var util float64
	for _, tk := range tasks {
		if !validTask(tk) {
			// Invalid parameters, or a message that cannot finish inside
			// its own bound.
			return edfReport{test: "validity", util: util, margin: -1}
		}
		sumC += tk.C
		util += float64(tk.C) / float64(tk.T)
	}
	if util > 1.0+1e-9 {
		return edfReport{test: "utilization", util: util, margin: 1.0 - util}
	}
	limit := busyPeriodBound(tasks, sumC, util)
	headroom := int64(maxAnalysisHorizon)
	// Check dbf at every step point t = D_i + k·T_i ≤ limit.
	for _, tk := range tasks {
		for t := tk.D; t <= limit; t += tk.T {
			slack := t - demandAt(tasks, t)
			if slack < 0 {
				return edfReport{test: "busy_period", util: util,
					at: t, demand: t - slack, margin: float64(slack)}
			}
			if slack < headroom {
				headroom = slack
			}
		}
	}
	return edfReport{feasible: true, util: util, headroom: headroom,
		margin: float64(headroom)}
}

// maxAnalysisHorizon caps the busy-period bound. Task parameters are
// < 128 slots, so even dense task sets converge well inside this window;
// sets that would need more are rejected as unanalyzable.
const maxAnalysisHorizon = 1 << 16

func busyPeriodBound(tasks []task, sumC int64, util float64) int64 {
	var maxD int64
	for _, tk := range tasks {
		if tk.D > maxD {
			maxD = tk.D
		}
	}
	// busyBoundFrom (edfcache.go) holds the shared arithmetic so the
	// incremental path computes a bit-identical bound.
	return busyBoundFrom(maxD, sumC, util)
}

// demandAt computes dbf(t).
func demandAt(tasks []task, t int64) int64 {
	var sum int64
	for _, tk := range tasks {
		if t < tk.D {
			continue
		}
		n := (t-tk.D)/tk.T + 1
		sum += n * tk.C
	}
	return sum
}
