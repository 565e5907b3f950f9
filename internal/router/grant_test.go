package router

import (
	"testing"

	"repro/internal/sched"
)

// table1 is the paper's Table 1 service order for one output port and
// cycle, written out as a list: the first rule that holds takes the
// wire, and a port no rule claims idles.
var table1 = []struct {
	grant grant
	holds func(staged, cut sched.Class, be beReady) bool
}{
	// 1. On-time time-constrained traffic, staged before cut.
	{grantOnTimeStaged, func(s, _ sched.Class, _ beReady) bool { return s == sched.ClassOnTime }},
	{grantOnTimeCut, func(_, c sched.Class, _ beReady) bool { return c == sched.ClassOnTime }},
	// 2. Best-effort flits, recovery before data.
	{grantRecovery, func(_, _ sched.Class, be beReady) bool { return be == beRecovery }},
	{grantData, func(_, _ sched.Class, be beReady) bool { return be == beData }},
	// 3. Early time-constrained traffic within the horizon, staged before cut.
	{grantEarlyStaged, func(s, _ sched.Class, _ beReady) bool { return s == sched.ClassEarly }},
	{grantEarlyCut, func(_, c sched.Class, _ beReady) bool { return c == sched.ClassEarly }},
	// 4. Otherwise the port idles.
}

// TestGrantOfIsTable1 checks grantOf against table1 on every combination
// of the staged packet's class, the pending cut-through's class and the
// best-effort readiness. Every adjacent pair of rules but recovery/data
// (one readiness value cannot be both; TestReadyOrder covers that pair)
// holds together on some combination, so swapping neighbours in grantOf
// fails here.
func TestGrantOfIsTable1(t *testing.T) {
	classes := []sched.Class{sched.ClassNone, sched.ClassHeld, sched.ClassEarly, sched.ClassOnTime}
	for _, staged := range classes {
		for _, cut := range classes {
			for _, be := range []beReady{beNone, beRecovery, beData, beStalled} {
				want := grantIdle
				for _, rule := range table1 {
					if rule.holds(staged, cut, be) {
						want = rule.grant
						break
					}
				}
				if got := grantOf(staged, cut, be); got != want {
					t.Errorf("grantOf(staged %v, cut %v, best-effort %d) = %d, want %d", staged, cut, be, got, want)
				}
			}
		}
	}
}

// TestReadyOrder pins what one best-effort read reports, and when it
// binds a waiting input: a sendable recovery flit goes before a ready data
// flit and leaves the binding alone; a data flit without a credit is a
// stall; with recovery pending but not sendable, the port binds only if no
// early time-constrained packet is waiting to take it.
func TestReadyOrder(t *testing.T) {
	const port, in = PortXPlus, PortXMinus
	for _, tc := range []struct {
		name      string
		abort     bool
		replay    bool  // a replay is queued
		resumeAt  int64 // the replay's backoff ends here (now is cycle 10)
		credits   int
		tcEarly   bool
		want      beReady
		wantBound bool
	}{
		{name: "data", credits: 1, want: beData, wantBound: true},
		{name: "data behind early", credits: 1, tcEarly: true, want: beData, wantBound: true},
		{name: "data without credit", want: beStalled, wantBound: true},
		{name: "abort before data", abort: true, credits: 1, want: beRecovery},
		{name: "replay before data", replay: true, resumeAt: 10, credits: 1, want: beRecovery},
		{name: "replay in backoff", replay: true, resumeAt: 11, credits: 1, want: beNone, wantBound: true},
		{name: "replay in backoff behind early", replay: true, resumeAt: 11, credits: 1, tcEarly: true, want: beNone},
		{name: "abort without credit", abort: true, want: beStalled, wantBound: true},
		{name: "abort without credit behind early", abort: true, tcEarly: true, want: beNone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := MustNew("R", DefaultConfig())
			r.nowCycle = 10
			u := r.beIn[in]
			u.parsed, u.buf = true, append(u.buf, 0)
			r.beWaiting[port] = 1 << in
			b := r.beOut[port]
			b.abortPending, b.resumeAt, b.credits = tc.abort, tc.resumeAt, tc.credits
			if tc.replay {
				b.replay = append(b.replay, b.hist[0].ph)
			}
			got := b.ready(tc.tcEarly)
			if bound := b.curIn == in; got != tc.want || bound != tc.wantBound {
				t.Errorf("ready = %d (bound %v), want %d (bound %v)", got, bound, tc.want, tc.wantBound)
			}
		})
	}
}
