package admission

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/rtc"
)

// fillLink admits spec channels over the (0,0)→(1,0) link until one is
// refused and returns the admitted channels plus the rejection.
func fillLink(t *testing.T, c *Controller, spec rtc.Spec) ([]*Channel, error) {
	t.Helper()
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 1, Y: 0}
	var chans []*Channel
	for i := 0; i < 300; i++ {
		ch, err := c.Admit(src, []mesh.Coord{dst}, spec)
		if err != nil {
			return chans, err
		}
		chans = append(chans, ch)
	}
	t.Fatal("link never saturated")
	return nil, nil
}

// TestRejectionUtilizationMargin: with Imin=4 and d=4, the fifth
// channel pushes utilization to 5/4; the utilization test fires first
// and the margin is 1 − 5/4 = −0.25 on the injection link (checked
// before the mesh link).
func TestRejectionUtilizationMargin(t *testing.T) {
	c, _ := New(newNet(t, 2, 1), DefaultConfig())
	chans, err := fillLink(t, c, rtc.Spec{Imin: 4, Smax: 18, D: 8})
	if len(chans) != 4 {
		t.Fatalf("admitted %d, want 4", len(chans))
	}
	rej, ok := Explain(err)
	if !ok {
		t.Fatalf("rejection %v carries no typed explanation", err)
	}
	if rej.FailingTest() != "utilization" {
		t.Errorf("FailingTest = %q, want utilization", rej.FailingTest())
	}
	if rej.BindingResource() != "(0,0)→inject" {
		t.Errorf("BindingResource = %q, want (0,0)→inject", rej.BindingResource())
	}
	if m := rej.FailMargin(); m < -0.2500001 || m > -0.2499999 {
		t.Errorf("FailMargin = %g, want -0.25", m)
	}
	var lo *ErrLinkOverload
	if !errors.As(err, &lo) {
		t.Fatalf("error %T is not *ErrLinkOverload", err)
	}
	if lo.Util < 1.2499999 || lo.Util > 1.2500001 {
		t.Errorf("Util = %g, want 1.25", lo.Util)
	}
}

// TestRejectionBusyPeriodMargin: Imin=8, D=8 gives d=4 per hop, so the
// task is (C=1, T=8, D=4). Four fit (dbf(4)=4); the fifth fails the
// busy-period point t=4 with demand 5, margin −1, at utilization only
// 5/8 — a genuine deadline-constrained refusal.
func TestRejectionBusyPeriodMargin(t *testing.T) {
	c, _ := New(newNet(t, 2, 1), DefaultConfig())
	chans, err := fillLink(t, c, rtc.Spec{Imin: 8, Smax: 18, D: 8})
	if len(chans) != 4 {
		t.Fatalf("admitted %d, want 4", len(chans))
	}
	var lo *ErrLinkOverload
	if !errors.As(err, &lo) {
		t.Fatalf("error %T is not *ErrLinkOverload: %v", err, err)
	}
	if lo.Test != "busy_period" {
		t.Errorf("Test = %q, want busy_period (%v)", lo.Test, err)
	}
	if lo.At != 4 || lo.Demand != 5 {
		t.Errorf("At=%d Demand=%d, want t=4 demand=5", lo.At, lo.Demand)
	}
	if lo.Margin != -1 {
		t.Errorf("Margin = %g, want -1", lo.Margin)
	}
	if !strings.Contains(err.Error(), "busy_period at t=4: demand 5 > 4") {
		t.Errorf("message does not name the failing point: %v", err)
	}
}

// TestFigure7AdmissionMargins pins the admitted-channel margin on the
// Figure 7 connection set: after all three backlogged connections are
// up, the binding step point is t=4 (demand 1, slack 3) on both links,
// so every admission reports margin 3.
func TestFigure7AdmissionMargins(t *testing.T) {
	c, _ := New(newNet(t, 2, 1), DefaultConfig())
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 1, Y: 0}
	specs := []rtc.Spec{
		{Imin: 4, Smax: 18, D: 8},
		{Imin: 8, Smax: 18, D: 16},
		{Imin: 16, Smax: 18, D: 32},
	}
	for i, spec := range specs {
		ch, err := c.Admit(src, []mesh.Coord{dst}, spec)
		if err != nil {
			t.Fatalf("channel %d: %v", i, err)
		}
		if ch.Margin != 3 {
			t.Errorf("channel %d margin = %d, want 3 (slack at t=4)", i, ch.Margin)
		}
	}
}

// TestRejectionBufferMargin: with a 100-slot source window and d=20,
// each channel pins 15 buffers at the source; the +x partition holds 51
// slots, so the fourth request lands 45+15−51 = 9 slots short.
func TestRejectionBufferMargin(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = Partitioned
	cfg.SourceWindow = 100
	c, err := New(newNet(t, 2, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	chans, rerr := fillLink(t, c, rtc.Spec{Imin: 8, Smax: 18, D: 40})
	if len(chans) != 3 {
		t.Fatalf("admitted %d, want 3", len(chans))
	}
	var be *ErrBufferExhausted
	if !errors.As(rerr, &be) {
		t.Fatalf("error %T is not *ErrBufferExhausted: %v", rerr, rerr)
	}
	if be.FailingTest() != "buffers" {
		t.Errorf("FailingTest = %q", be.FailingTest())
	}
	if m := be.FailMargin(); m != -9 {
		t.Errorf("FailMargin = %g, want -9 (51 limit − 45 used − 15 need)", m)
	}
	if !strings.Contains(be.BindingResource(), "(0,0)") {
		t.Errorf("BindingResource = %q, want the source node", be.BindingResource())
	}
}

// TestRejectionIDExhausted: a 3-entry connection table fits one channel
// (incoming + delivery id); the second refusal is typed conn_ids.
func TestRejectionIDExhausted(t *testing.T) {
	n := mesh.MustNew(2, 1, func() router.Config {
		c := router.DefaultConfig()
		c.Conns = 3
		return c
	}())
	c, _ := New(n, Config{Policy: SharedPool, SourceWindow: 0})
	chans, err := fillLink(t, c, rtc.Spec{Imin: 100, Smax: 18, D: 200})
	if len(chans) != 1 {
		t.Fatalf("admitted %d, want 1", len(chans))
	}
	var ie *ErrIDExhausted
	if !errors.As(err, &ie) {
		t.Fatalf("error %T is not *ErrIDExhausted: %v", err, err)
	}
	if ie.FailingTest() != "conn_ids" || ie.FailMargin() != -1 {
		t.Errorf("test %q margin %g", ie.FailingTest(), ie.FailMargin())
	}
}

// TestExplainNonRejection: structural errors (bad endpoints, invalid
// specs) are not resource rejections and carry no explanation.
func TestExplainNonRejection(t *testing.T) {
	c, _ := New(newNet(t, 2, 2), DefaultConfig())
	_, err := c.Admit(mesh.Coord{X: 5, Y: 5}, []mesh.Coord{{X: 0, Y: 0}},
		rtc.Spec{Imin: 8, Smax: 18, D: 40})
	if err == nil {
		t.Fatal("out-of-mesh source accepted")
	}
	if _, ok := Explain(err); ok {
		t.Errorf("structural error explained as a resource rejection: %v", err)
	}
}

// sealJSON renders the sealed ledger deterministically for comparison.
func sealJSON(t *testing.T, c *Controller) []byte {
	t.Helper()
	b, err := json.MarshalIndent(c.Seal(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRefusedRerouteLedgerInert: on a severed straight line the reroute
// must be refused and the restore must leave the ledger byte-identical
// — reservations, margins, and buffer accounting all back verbatim.
func TestRefusedRerouteLedgerInert(t *testing.T) {
	c, _ := New(newNet(t, 3, 1), DefaultConfig())
	ch, err := c.Admit(mesh.Coord{X: 0, Y: 0}, []mesh.Coord{{X: 2, Y: 0}},
		rtc.Spec{Imin: 8, Smax: 18, D: 60})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.net.FailLink(mesh.Coord{X: 0, Y: 0}, router.PortXPlus); err != nil {
		t.Fatal(err)
	}
	before := sealJSON(t, c)
	if _, err := c.Reroute(ch); err == nil {
		t.Fatal("reroute across a severed row accepted")
	}
	after := sealJSON(t, c)
	if !bytes.Equal(before, after) {
		t.Errorf("refused reroute mutated the ledger:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if c.Active() != 1 {
		t.Errorf("Active = %d after refused reroute, want 1", c.Active())
	}
	if err := c.VerifyLedger(); err != nil {
		t.Errorf("ledger conservation after refused reroute: %v", err)
	}
}

// TestVerifyLedgerDetectsTamper: conservation checking must actually
// catch a divergence between the ledger and the channel set.
func TestVerifyLedgerDetectsTamper(t *testing.T) {
	c, _ := New(newNet(t, 2, 1), DefaultConfig())
	if _, err := c.Admit(mesh.Coord{X: 0, Y: 0}, []mesh.Coord{{X: 1, Y: 0}},
		rtc.Spec{Imin: 8, Smax: 18, D: 40}); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyLedger(); err != nil {
		t.Fatalf("clean ledger flagged: %v", err)
	}
	k := linkKey{mesh.Coord{X: 0, Y: 0}, portInject}
	ls := c.linkAt(k)
	if ls == nil || len(ls.tasks) == 0 {
		t.Fatal("injection ledger empty after admission")
	}
	ls.tasks[0].C++
	if err := c.VerifyLedger(); err == nil {
		t.Error("tampered reservation not detected")
	}
	ls.tasks[0].C--
	if err := c.VerifyLedger(); err != nil {
		t.Errorf("restored ledger still flagged: %v", err)
	}
	// The id sets: a bit no channel holds, then a held one cleared.
	ns := c.node(mesh.Coord{X: 1, Y: 0})
	held := c.chans[0].hops[1].inConn
	ns.usedIDs.add(200)
	if err := c.VerifyLedger(); err == nil {
		t.Error("connection id held by no channel not detected")
	}
	ns.usedIDs.del(200)
	ns.usedIDs.del(held)
	if err := c.VerifyLedger(); err == nil {
		t.Error("released connection id of a live channel not detected")
	}
	// Same count, wrong member.
	ns.usedIDs.add(200)
	if err := c.VerifyLedger(); err == nil {
		t.Error("swapped connection id not detected")
	}
	ns.usedIDs.del(200)
	ns.usedIDs.add(held)
	if err := c.VerifyLedger(); err != nil {
		t.Errorf("restored id set still flagged: %v", err)
	}
}

// TestAuditTrail exercises the attached log across an admit, a
// rejection, and a teardown, checking sequencing, sharding, and that
// the rejection record names its binding resource and failing test.
func TestAuditTrail(t *testing.T) {
	c, _ := New(newNet(t, 2, 1), DefaultConfig())
	log := obs.NewAuditLog()
	c.AttachAudit(log)
	chans, _ := fillLink(t, c, rtc.Spec{Imin: 4, Smax: 18, D: 8})
	if err := c.Teardown(chans[0]); err != nil {
		t.Fatal(err)
	}
	recs := log.Merged()
	if len(recs) != 6 { // 4 admitted + 1 rejected + 1 released
		t.Fatalf("%d records, want 6", len(recs))
	}
	for i, r := range recs {
		if int(r.Seq) != i {
			t.Errorf("record %d has Seq %d", i, r.Seq)
		}
		if r.Node != 0 {
			t.Errorf("record %d sharded to node %d, want 0 (source (0,0))", i, r.Node)
		}
	}
	first := recs[0]
	if first.Op != "admit" || first.Outcome != "admitted" || first.Channel != chans[0].ID {
		t.Errorf("first record %+v", first)
	}
	if first.Margin != float64(chans[0].Margin) {
		t.Errorf("audited margin %g, channel margin %d", first.Margin, chans[0].Margin)
	}
	if !strings.Contains(first.Route, "(0,0)[+x]") {
		t.Errorf("route %q missing first hop", first.Route)
	}
	rej := recs[4]
	if rej.Op != "admit" || rej.Outcome != "rejected" || rej.Channel != -1 {
		t.Errorf("rejection record %+v", rej)
	}
	if rej.Binding != "(0,0)→inject" || rej.Test != "utilization" {
		t.Errorf("rejection binding=%q test=%q", rej.Binding, rej.Test)
	}
	if rej.Err == "" {
		t.Error("rejection record carries no message")
	}
	last := recs[5]
	if last.Op != "teardown" || last.Outcome != "released" || last.Channel != chans[0].ID {
		t.Errorf("teardown record %+v", last)
	}
	var buf bytes.Buffer
	if err := log.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "#0 n0.0 admit") {
		t.Errorf("dump missing header line:\n%s", buf.String())
	}
}

// TestAuditTrailReroute: a successful reroute logs its teardown, the
// re-admission, and the summary record, in that order.
func TestAuditTrailReroute(t *testing.T) {
	c, _ := New(newNet(t, 3, 3), DefaultConfig())
	log := obs.NewAuditLog()
	c.AttachAudit(log)
	ch, err := c.Admit(mesh.Coord{X: 0, Y: 0}, []mesh.Coord{{X: 2, Y: 1}},
		rtc.Spec{Imin: 8, Smax: 18, D: 60})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.net.FailLink(mesh.Coord{X: 0, Y: 0}, router.PortXPlus); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reroute(ch); err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, r := range log.Merged() {
		ops = append(ops, r.Op+"/"+r.Outcome)
	}
	want := []string{"admit/admitted", "teardown/released", "admit/admitted", "reroute/rerouted"}
	if len(ops) != len(want) {
		t.Fatalf("ops %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops %v, want %v", ops, want)
		}
	}
}
