package router

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestTruncateMidWormOnLinkFailure severs the A→B wire while a worm is
// crossing; B must flush the headless fragment, release the output
// binding, and keep serving other traffic.
func TestTruncateMidWormOnLinkFailure(t *testing.T) {
	k := sim.NewKernel()
	a := MustNew("A", DefaultConfig())
	b := MustNew("B", DefaultConfig())
	k.Register(a)
	k.Register(b)
	ab := NewChannel(k)
	a.ConnectOut(PortXPlus, ab.Out())
	b.ConnectIn(PortXMinus, ab.In())
	frame, err := packet.NewBE(1, 0, make([]byte, 500))
	if err != nil {
		t.Fatal(err)
	}
	a.InjectBE(frame)
	k.Run(120) // mid-worm
	if b.Stats.BEBytes[PortLocal] == 0 && b.Stats.BEDelivered != 0 {
		t.Fatal("setup wrong")
	}
	// Sever: both ends lose the wire.
	a.ConnectOut(PortXPlus, nil)
	b.ConnectIn(PortXMinus, nil)
	k.Run(100)
	// The broken worm is counted once, at the router feeding the dead
	// link; the receiver just flushes its fragment.
	if a.Stats.BETruncated != 1 {
		t.Errorf("sender BETruncated = %d, want 1", a.Stats.BETruncated)
	}
	if b.Stats.BETruncated != 0 {
		t.Errorf("receiver BETruncated = %d, want 0", b.Stats.BETruncated)
	}
	// B's local port must be free for its own traffic afterwards.
	own, err := packet.NewBE(0, 0, []byte("alive"))
	if err != nil {
		t.Fatal(err)
	}
	b.InjectBE(own)
	k.RunUntil(func() bool { return b.Stats.BEDelivered > 0 }, 2000)
	if b.Stats.BEDelivered != 1 {
		t.Error("local port wedged by truncated fragment")
	}
}

// TestMalformedBELength drives a frame whose length field undershoots
// the header; the router must count it and move on.
func TestMalformedBELength(t *testing.T) {
	r := newRig(t, DefaultConfig())
	bad := make([]byte, packet.BEHeaderBytes)
	packet.EncodeBEHeader(packet.BEHeader{XOff: 0, YOff: 0, Len: 2}, bad)
	r.a.InjectBE(bad)
	r.k.Run(1000)
	if r.a.Stats.BEMalformed != 1 {
		t.Errorf("BEMalformed = %d, want 1", r.a.Stats.BEMalformed)
	}
	ok, _ := packet.NewBE(0, 0, []byte("next"))
	r.a.InjectBE(ok)
	r.k.RunUntil(func() bool { return r.a.Stats.BEDelivered > 0 }, 2000)
	if r.a.Stats.BEDelivered == 0 {
		t.Error("router wedged after malformed frame")
	}
}

// TestAllSchedulerKindsConstruct drives a packet through a router of
// each tree order, including the quantized one.
func TestAllSchedulerKindsConstruct(t *testing.T) {
	for _, order := range []sched.Order{sched.OrderEDF, sched.OrderFIFO, sched.OrderStatic, sched.OrderApprox} {
		cfg := DefaultConfig()
		cfg.Scheduler = order
		cfg.ApproxShift = 2
		r := newRig(t, cfg)
		if err := r.a.SetConnection(1, 9, 10, maskOf(PortLocal)); err != nil {
			t.Fatal(err)
		}
		r.a.InjectTC(tcPkt(1, 0, byte(order)))
		if !r.k.RunUntil(func() bool { return r.a.Stats.TCDelivered > 0 }, 5000) {
			t.Errorf("%v: packet not delivered", order)
		}
	}
	cfg := DefaultConfig()
	cfg.Scheduler = sched.OrderApprox + 1
	if _, err := New("bad", cfg); err == nil {
		t.Error("unknown order: want error")
	}
}

// TestNarrowClockRouter runs a chip with a 5-bit clock: tighter delay
// range, same correctness inside it.
func TestNarrowClockRouter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ClockBits = 5 // half range 16 slots
	r := newRig(t, cfg)
	if err := r.a.SetConnection(1, 9, 10, maskOf(PortLocal)); err != nil {
		t.Fatal(err)
	}
	// d beyond the narrow half range must be rejected.
	if err := r.a.SetConnection(2, 9, 20, maskOf(PortLocal)); err == nil {
		t.Error("d=20 accepted on a 5-bit clock (half range 16)")
	}
	// Run long enough to wrap the 32-slot clock several times.
	for i := 0; i < 20; i++ {
		r.a.InjectTC(tcPkt(1, packet.StampOf(r.a.SlotNow(int64(r.k.Now()))), byte(i)))
		r.k.Run(8 * packet.TCBytes)
	}
	r.k.Run(2000)
	if r.a.Stats.TCDelivered != 20 {
		t.Errorf("delivered %d/20 across narrow-clock wraps", r.a.Stats.TCDelivered)
	}
	if r.a.Stats.TCDeadlineMisses != 0 {
		t.Errorf("misses on narrow clock: %d", r.a.Stats.TCDeadlineMisses)
	}
}

// TestResetStatsRouter covers the warmup idiom at chip level.
func TestResetStatsRouter(t *testing.T) {
	r := newRig(t, DefaultConfig())
	if err := r.a.SetConnection(1, 9, 10, maskOf(PortLocal)); err != nil {
		t.Fatal(err)
	}
	r.a.InjectTC(tcPkt(1, 0, 1))
	r.k.RunUntil(func() bool { return r.a.Stats.TCDelivered > 0 }, 2000)
	r.a.ResetStats()
	if r.a.Stats.TCDelivered != 0 || r.a.Stats.BusGrants != 0 {
		t.Errorf("stats survived reset: %+v", r.a.Stats)
	}
	if r.a.TCInjectBacklog() != 0 {
		t.Error("backlog miscounted")
	}
}

// TestInjectBEPanicsOnShortFrame pins the API contract.
func TestInjectBEPanicsOnShortFrame(t *testing.T) {
	r := MustNew("x", DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("short frame did not panic")
		}
	}()
	r.InjectBE([]byte{1, 2})
}

// TestConnectOutOfRangePanics pins port validation.
func TestConnectOutOfRangePanics(t *testing.T) {
	r := MustNew("x", DefaultConfig())
	for _, f := range []func(){
		func() { r.ConnectIn(4, nil) },
		func() { r.ConnectOut(-1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range connect did not panic")
				}
			}()
			f()
		}()
	}
}

// TestLeafSharingSlowsScheduling pins the §5.1 knob at chip level: the
// same single packet takes longer to schedule with a heavily shared
// tree.
func TestLeafSharingSlowsScheduling(t *testing.T) {
	lat := func(sharing int) int64 {
		cfg := DefaultConfig()
		cfg.LeafSharing = sharing
		r := newRig(t, cfg)
		if err := r.a.SetConnection(1, 9, 100, maskOf(PortLocal)); err != nil {
			t.Fatal(err)
		}
		r.a.InjectTC(tcPkt(1, 0, 1))
		if !r.k.RunUntil(func() bool { return r.a.Stats.TCDelivered > 0 }, 50000) {
			t.Fatalf("sharing %d: never delivered", sharing)
		}
		return r.a.DrainTC()[0].Cycle
	}
	if l1, l32 := lat(1), lat(32); l32 <= l1 {
		t.Errorf("sharing 32 latency %d not above factor-1 latency %d", l32, l1)
	}
	cfg := DefaultConfig()
	cfg.LeafSharing = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero sharing factor accepted")
	}
	_ = sched.ClassNone
}

// TestVCTBackToBackCutsSameInput is the regression test for a wedge the
// randomized guarantee property uncovered: two packets arriving
// back-to-back on one input, cutting through to different ports, used
// to share (and reset) the input's skew FIFO — wiping the first cut's
// undelivered bytes and wedging its output mid-packet forever. The
// second packet must instead fall back to store-and-forward until the
// first cut drains.
func TestVCTBackToBackCutsSameInput(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VCT = true
	k := sim.NewKernel()
	a := MustNew("A", cfg)
	bx := MustNew("Bx", cfg)
	by := MustNew("By", cfg)
	setHorizon(t, sched.AllPortsMask(NumPorts), 64, a, bx, by)
	k.Register(a)
	k.Register(bx)
	k.Register(by)
	chx := NewChannel(k)
	a.ConnectOut(PortXPlus, chx.Out())
	bx.ConnectIn(PortXMinus, chx.In())
	chy := NewChannel(k)
	a.ConnectOut(PortYPlus, chy.Out())
	by.ConnectIn(PortYMinus, chy.In())
	for _, c := range []struct {
		r    *Router
		in   uint8
		mask sched.PortMask
	}{
		{a, 1, maskOf(PortXPlus)},
		{a, 2, maskOf(PortYPlus)},
		{bx, 1, maskOf(PortLocal)},
		{by, 2, maskOf(PortLocal)},
	} {
		if err := c.r.SetConnection(c.in, c.in, 30, c.mask); err != nil {
			t.Fatal(err)
		}
	}
	// Back-to-back injection: the second packet's header arrives while
	// the first cut is still draining through +x.
	a.InjectTC(tcPkt(1, 0, 0x11))
	a.InjectTC(tcPkt(2, 0, 0x22))
	ok := k.RunUntil(func() bool {
		return bx.Stats.TCDelivered > 0 && by.Stats.TCDelivered > 0
	}, 20000)
	if !ok {
		t.Fatalf("wedged: Bx=%+v By=%+v A-ports: +x %+v +y %+v",
			bx.Stats, by.Stats, a.OutputState(PortXPlus), a.OutputState(PortYPlus))
	}
	if got := bx.DrainTC()[0]; got.Payload[0] != 0x11 {
		t.Errorf("first packet corrupted: %#x", got.Payload[0])
	}
	if got := by.DrainTC()[0]; got.Payload[0] != 0x22 {
		t.Errorf("second packet corrupted: %#x", got.Payload[0])
	}
	if a.FreeSlots() != cfg.Slots {
		t.Error("memory slot leaked")
	}
}
