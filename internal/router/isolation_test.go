package router

import (
	"testing"

	"repro/internal/packet"
)

// TestMisbehavingConnectionIsolation checks the claim at the heart of
// the real-time channel model (Section 2): "the model limits the
// influence an ill-behaving or malicious connection can have on other
// traffic in the network." A rogue source floods far beyond its
// reservation while a compliant connection shares the link; the
// compliant connection must keep every deadline.
func TestMisbehavingConnectionIsolation(t *testing.T) {
	r := newPairRig(t, DefaultConfig())
	// Compliant: conn 1, one packet per 4 slots, d=4 per hop.
	if err := r.a.SetConnection(1, 2, 4, maskOf(PortXPlus)); err != nil {
		t.Fatal(err)
	}
	if err := r.b.SetConnection(2, 7, 4, maskOf(PortLocal)); err != nil {
		t.Fatal(err)
	}
	// Rogue: conn 3, nominally one packet per 8 slots, d=8.
	if err := r.a.SetConnection(3, 4, 8, maskOf(PortXPlus)); err != nil {
		t.Fatal(err)
	}
	if err := r.b.SetConnection(4, 8, 8, maskOf(PortLocal)); err != nil {
		t.Fatal(err)
	}

	// The rogue generates as fast as the header stamps can represent:
	// its honest logical clock advances Imin=8 per message while it
	// keeps the maximum in-flight backlog the 8-bit clock's half-range
	// permits (the regulator enforces exactly this cap in the full
	// stack; here we drive the port directly to stress the hardware).
	const slots = 400
	const runAhead = 100 // < half clock range, the §4.3 bound
	rogueL := int64(0)
	for s := int64(0); s < slots; s++ {
		slot := r.a.SlotNow(int64(r.k.Now()))
		if s%4 == 0 {
			// Compliant source: on-time, properly spaced.
			r.a.InjectTC(tcPkt(1, packet.StampOf(slot), byte(s)))
		}
		// One rogue release per slot at most: the injection port carries
		// one packet per slot, and the full stack's regulator would
		// never queue the port deeper (its deadline order is what keeps
		// the compliant stream's port access timely).
		if rogueL < s+runAhead {
			r.a.InjectTC(tcPkt(3, uint8(rogueL%256), 0xFF))
			rogueL += 8
		}
		r.k.Run(packet.TCBytes)
	}
	r.k.Run(40 * packet.TCBytes)

	// The compliant connection delivered everything within bounds: its
	// per-hop d=4 twice → every packet in by ℓ0+8 slots.
	var compliant, rogue int
	for _, d := range r.b.DrainTC() {
		switch d.Conn {
		case 7:
			compliant++
		case 8:
			rogue++
		}
	}
	if want := slots / 4; compliant != want {
		t.Errorf("compliant connection delivered %d/%d", compliant, want)
	}
	if r.a.Stats.TCDeadlineMisses != 0 || r.b.Stats.TCDeadlineMisses != 0 {
		t.Errorf("deadline misses under rogue flood: A=%d B=%d",
			r.a.Stats.TCDeadlineMisses, r.b.Stats.TCDeadlineMisses)
	}
	// The rogue was throttled to its reservation: one packet per 8 slots
	// crossed the link (plus its in-flight run-ahead); the excess sat as
	// ineligible early traffic at A.
	if limit := (slots+runAhead)/8 + 4; rogue > limit {
		t.Errorf("rogue pushed %d packets through, reservation allows ~%d", rogue, limit)
	}
	// And router B was never flooded: the early holding kept the rogue's
	// backlog at A.
	if r.b.Stats.TCDropsNoSlot != 0 {
		t.Errorf("rogue overflowed the downstream router: %d drops", r.b.Stats.TCDropsNoSlot)
	}
}

// TestStaleStampFloodLimitation documents the boundary of the
// hardware's protection: a rogue that forges its logical arrival times
// ("everything is on-time now") defeats the eligibility mechanism, and
// under the resulting >100% on-time load even the compliant stream
// accumulates misses. This is by design in the paper's model: initial
// ℓ0 stamps come from the source node's protocol software (the trusted
// regulator); every LATER hop's stamp is computed by router hardware
// from the connection table, so remote nodes cannot forge. The test
// pins the failure mode so the trust boundary stays visible.
func TestStaleStampFloodLimitation(t *testing.T) {
	r := newPairRig(t, DefaultConfig())
	if err := r.a.SetConnection(1, 2, 4, maskOf(PortXPlus)); err != nil {
		t.Fatal(err)
	}
	if err := r.b.SetConnection(2, 7, 4, maskOf(PortLocal)); err != nil {
		t.Fatal(err)
	}
	// The rogue's table entry grants it d=30 — a loose bound, so its
	// always-on-time flood still sorts behind the compliant stream.
	if err := r.a.SetConnection(3, 4, 30, maskOf(PortXPlus)); err != nil {
		t.Fatal(err)
	}
	if err := r.b.SetConnection(4, 8, 30, maskOf(PortLocal)); err != nil {
		t.Fatal(err)
	}
	// Track per-connection misses precisely through the lifecycle
	// stream's transmit events: the flood may miss its own loose
	// deadlines once backlogged — that IS the isolation working — but the
	// compliant stream must not.
	var compliantMisses, rogueMisses int
	hook := func(ev LifecycleEvent) {
		if ev.Kind != EvTransmit || !ev.Missed {
			return
		}
		if ev.InConn == 1 || ev.InConn == 2 {
			compliantMisses++
		} else {
			rogueMisses++
		}
	}
	r.a.OnLifecycle = hook
	r.b.OnLifecycle = hook

	const slots = 200
	for s := int64(0); s < slots; s++ {
		slot := packet.StampOf(r.a.SlotNow(int64(r.k.Now())))
		if s%4 == 0 {
			r.a.InjectTC(tcPkt(1, slot, byte(s)))
		}
		r.a.InjectTC(tcPkt(3, slot, 0xFF)) // flood, stamped "now"
		r.k.Run(packet.TCBytes)
	}
	r.k.Run(40 * packet.TCBytes)
	var compliant int
	for _, d := range r.b.DrainTC() {
		if d.Conn == 7 {
			compliant++
		}
	}
	// The forged flood offers 1 packet/slot on top of the compliant
	// 0.25/slot: 125% on-time load. EDF degrades both — the documented
	// limitation.
	if compliantMisses == 0 && compliant == slots/4 {
		t.Error("stale-stamp flood caused no harm; if the hardware now enforces " +
			"per-connection rates, update the trust-boundary docs (DESIGN.md §5)")
	}
	// What must still hold: conservation (no wedging, no corruption) and
	// bounded damage — the compliant stream keeps flowing at a majority
	// of its rate rather than starving outright.
	if compliant < (slots/4)*3/5 {
		t.Errorf("compliant stream starved: %d/%d delivered", compliant, slots/4)
	}
	_ = rogueMisses
}
