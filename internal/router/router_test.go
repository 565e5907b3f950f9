package router

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/sim"
)

// rig is a one- or two-router test fixture.
type rig struct {
	k *sim.Kernel
	a *Router
	b *Router
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	k := sim.NewKernel()
	a := MustNew("A", cfg)
	k.Register(a)
	return &rig{k: k, a: a}
}

// newPairRig wires A's +x output to B's -x input and vice versa.
func newPairRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	r := newRig(t, cfg)
	r.b = MustNew("B", cfg)
	r.k.Register(r.b)
	ab := NewChannel(r.k)
	r.a.ConnectOut(PortXPlus, ab.Out())
	r.b.ConnectIn(PortXMinus, ab.In())
	ba := NewChannel(r.k)
	r.b.ConnectOut(PortXMinus, ba.Out())
	r.a.ConnectIn(PortXPlus, ba.In())
	return r
}

func maskOf(ports ...int) sched.PortMask {
	var m sched.PortMask
	for _, p := range ports {
		m |= 1 << p
	}
	return m
}

// setHorizon programs horizon h on the masked output ports of each
// router through the control interface, the one door to a horizon.
func setHorizon(t *testing.T, mask sched.PortMask, h uint8, rs ...*Router) {
	t.Helper()
	for _, r := range rs {
		if err := r.SetHorizon(mask, h); err != nil {
			t.Fatal(err)
		}
	}
}

// topUpBE injects one best-effort frame of n payload bytes at rt, as a
// backpressured source would: not while four frames are queued behind the
// injection port, and from the recycled frame pool.
func topUpBE(t testing.TB, rt *Router, xoff, yoff, n int) {
	t.Helper()
	if rt.BEInjectBacklog() >= 4 {
		return
	}
	frame, err := packet.AppendBE(rt.BEFrameBuf(), xoff, yoff, make([]byte, n))
	if err != nil {
		t.Fatal(err)
	}
	rt.InjectBE(frame)
}

func tcPkt(conn, stamp uint8, tag byte) packet.TCPacket {
	p := packet.TCPacket{Conn: conn, Stamp: stamp}
	p.Payload[0] = tag
	return p
}

func TestLocalTCDelivery(t *testing.T) {
	r := newRig(t, DefaultConfig())
	// Connection 1 terminates here: deliver with id 9, delay 10 slots.
	if err := r.a.SetConnection(1, 9, 10, maskOf(PortLocal)); err != nil {
		t.Fatal(err)
	}
	r.a.InjectTC(tcPkt(1, 0, 0xAB))
	ok := r.k.RunUntil(func() bool { return r.a.Stats.TCDelivered > 0 }, 2000)
	if !ok {
		t.Fatalf("packet not delivered; stats %+v", r.a.Stats)
	}
	d := r.a.DrainTC()
	if len(d) != 1 {
		t.Fatalf("got %d deliveries, want 1", len(d))
	}
	if d[0].Conn != 9 {
		t.Errorf("delivered conn = %d, want 9 (rewritten id)", d[0].Conn)
	}
	if d[0].Stamp != 10 {
		t.Errorf("delivered stamp = %d, want 10 (ℓ0+d)", d[0].Stamp)
	}
	if d[0].Payload[0] != 0xAB {
		t.Errorf("payload corrupted: %#x", d[0].Payload[0])
	}
	if r.a.Stats.TCDeadlineMisses != 0 {
		t.Errorf("unexpected deadline misses: %d", r.a.Stats.TCDeadlineMisses)
	}
	if r.a.FreeSlots() != DefaultConfig().Slots {
		t.Errorf("memory slot leaked: %d free, want %d", r.a.FreeSlots(), DefaultConfig().Slots)
	}
}

func TestTwoHopTCDelivery(t *testing.T) {
	r := newPairRig(t, DefaultConfig())
	// A: conn 1 → conn 2, d=5, out +x.  B: conn 2 → conn 7, d=5, local.
	if err := r.a.SetConnection(1, 2, 5, maskOf(PortXPlus)); err != nil {
		t.Fatal(err)
	}
	if err := r.b.SetConnection(2, 7, 5, maskOf(PortLocal)); err != nil {
		t.Fatal(err)
	}
	r.a.InjectTC(tcPkt(1, 0, 0x55))
	ok := r.k.RunUntil(func() bool { return r.b.Stats.TCDelivered > 0 }, 10000)
	if !ok {
		t.Fatalf("not delivered; A=%+v B=%+v", r.a.Stats, r.b.Stats)
	}
	d := r.b.DrainTC()
	if d[0].Conn != 7 {
		t.Errorf("conn = %d, want 7", d[0].Conn)
	}
	if d[0].Stamp != 10 {
		t.Errorf("stamp = %d, want 10 (ℓ0+d0+d1)", d[0].Stamp)
	}
	if d[0].Payload[0] != 0x55 {
		t.Error("payload corrupted across hop")
	}
	if r.a.Stats.TCTransmitted[PortXPlus] != 1 {
		t.Errorf("A transmitted %d on +x, want 1", r.a.Stats.TCTransmitted[PortXPlus])
	}
}

// TestEarlyPacketHeldToLogicalArrival verifies Queue 3 semantics: with a
// zero horizon, a packet that reaches the next hop ahead of its logical
// arrival time is held until ℓ(m).
func TestEarlyPacketHeldToLogicalArrival(t *testing.T) {
	r := newPairRig(t, DefaultConfig()) // horizons default 0
	// d0 = 20 slots at A, so the packet reaches B around slot 3-4, far
	// ahead of its ℓ at B of 20.
	if err := r.a.SetConnection(1, 2, 20, maskOf(PortXPlus)); err != nil {
		t.Fatal(err)
	}
	if err := r.b.SetConnection(2, 7, 10, maskOf(PortLocal)); err != nil {
		t.Fatal(err)
	}
	r.a.InjectTC(tcPkt(1, 0, 1))
	ok := r.k.RunUntil(func() bool { return r.b.Stats.TCDelivered > 0 }, 30000)
	if !ok {
		t.Fatalf("not delivered; A=%+v B=%+v", r.a.Stats, r.b.Stats)
	}
	d := r.b.DrainTC()
	// ℓ at B is slot 20 = cycle 400; delivery (20-byte reception)
	// cannot complete before then.
	if d[0].Cycle < 400 {
		t.Errorf("early packet delivered at cycle %d, before ℓ (cycle 400)", d[0].Cycle)
	}
	// And it must not sit past its deadline ℓ+d = slot 30 = cycle 600
	// (plus reception time).
	if d[0].Cycle > 620 {
		t.Errorf("packet delivered at cycle %d, after deadline window", d[0].Cycle)
	}
}

// TestHorizonReleasesEarlyTraffic verifies that a nonzero horizon lets
// early packets ship when the link is idle.
func TestHorizonReleasesEarlyTraffic(t *testing.T) {
	r := newPairRig(t, DefaultConfig())
	setHorizon(t, sched.AllPortsMask(NumPorts), 100, r.a, r.b)
	if err := r.a.SetConnection(1, 2, 20, maskOf(PortXPlus)); err != nil {
		t.Fatal(err)
	}
	if err := r.b.SetConnection(2, 7, 10, maskOf(PortLocal)); err != nil {
		t.Fatal(err)
	}
	r.a.InjectTC(tcPkt(1, 0, 1))
	ok := r.k.RunUntil(func() bool { return r.b.Stats.TCDelivered > 0 }, 30000)
	if !ok {
		t.Fatal("not delivered")
	}
	d := r.b.DrainTC()
	// With h=100 covering the earliness, delivery happens as fast as the
	// pipeline allows — well before ℓ at B (cycle 400).
	if d[0].Cycle >= 400 {
		t.Errorf("horizon did not release early packet: delivered at %d", d[0].Cycle)
	}
}

func TestLocalBEDelivery(t *testing.T) {
	r := newRig(t, DefaultConfig())
	frame, err := packet.NewBE(0, 0, []byte("payload!"))
	if err != nil {
		t.Fatal(err)
	}
	r.a.InjectBE(frame)
	ok := r.k.RunUntil(func() bool { return r.a.Stats.BEDelivered > 0 }, 2000)
	if !ok {
		t.Fatal("BE packet not delivered locally")
	}
	d := r.a.DrainBE()
	if string(d[0].Payload) != "payload!" {
		t.Errorf("payload = %q", d[0].Payload)
	}
}

func TestTwoHopBEDelivery(t *testing.T) {
	r := newPairRig(t, DefaultConfig())
	frame, err := packet.NewBE(1, 0, []byte("across the link"))
	if err != nil {
		t.Fatal(err)
	}
	r.a.InjectBE(frame)
	ok := r.k.RunUntil(func() bool { return r.b.Stats.BEDelivered > 0 }, 5000)
	if !ok {
		t.Fatalf("BE packet not delivered; A=%+v B=%+v", r.a.Stats, r.b.Stats)
	}
	d := r.b.DrainBE()
	if string(d[0].Payload) != "across the link" {
		t.Errorf("payload = %q", d[0].Payload)
	}
	if r.a.Stats.BEPacketsSent[PortXPlus] != 1 {
		t.Errorf("A sent %d BE packets on +x, want 1", r.a.Stats.BEPacketsSent[PortXPlus])
	}
}

// TestBEWormholeLatencyLinear verifies cut-through behaviour: latency
// grows by one cycle per extra payload byte, not per-hop-buffered.
func TestBEWormholeLatencyLinear(t *testing.T) {
	lat := func(n int) int64 {
		r := newPairRig(t, DefaultConfig())
		frame, err := packet.NewBE(1, 0, make([]byte, n))
		if err != nil {
			t.Fatal(err)
		}
		r.a.InjectBE(frame)
		if !r.k.RunUntil(func() bool { return r.b.Stats.BEDelivered > 0 }, 100000) {
			t.Fatalf("size %d not delivered", n)
		}
		return r.b.DrainBE()[0].Cycle
	}
	l10, l110 := lat(10), lat(110)
	if d := l110 - l10; d != 100 {
		t.Errorf("latency delta for +100 bytes = %d, want exactly 100 (wormhole pipelining)", d)
	}
}

// TestOnTimeTCPreemptsBE floods the +x link with best-effort traffic and
// then injects an on-time time-constrained packet; the TC packet must cut
// in at a flit boundary rather than wait for the wormhole tail.
func TestOnTimeTCPreemptsBE(t *testing.T) {
	r := newPairRig(t, DefaultConfig())
	// d=2 at A keeps the logical arrival time at B near "now", so the
	// measured latency isolates link preemption rather than B's
	// early-traffic holding (tested elsewhere).
	if err := r.a.SetConnection(1, 2, 2, maskOf(PortXPlus)); err != nil {
		t.Fatal(err)
	}
	if err := r.b.SetConnection(2, 7, 10, maskOf(PortLocal)); err != nil {
		t.Fatal(err)
	}
	// One giant best-effort packet: without preemption it would hold the
	// link for ~4000 cycles.
	frame, err := packet.NewBE(1, 0, make([]byte, 4000))
	if err != nil {
		t.Fatal(err)
	}
	r.a.InjectBE(frame)
	r.k.Run(200) // let the wormhole get going
	if r.a.Stats.BEBytes[PortXPlus] == 0 {
		t.Fatal("best-effort stream never started")
	}
	r.a.InjectTC(tcPkt(1, packet.StampOf(r.a.SlotNow(int64(r.k.Now()))), 3))
	start := int64(r.k.Now())
	ok := r.k.RunUntil(func() bool { return r.b.Stats.TCDelivered > 0 }, 3000)
	if !ok {
		t.Fatalf("TC packet starved behind best-effort wormhole; B=%+v", r.b.Stats)
	}
	lat := r.b.DrainTC()[0].Cycle - start
	// Injection (20) + memory+schedule (~10) + link (20) + reception (20)
	// plus pipeline slack; generous bound far below the 4000-cycle worm.
	if lat > 200 {
		t.Errorf("TC latency %d cycles under BE load; preemption not effective", lat)
	}
	if r.b.Stats.BEDelivered != 0 {
		t.Error("BE packet finished before TC; preemption broken")
	}
}

// TestBEUsesExcessBandwidth verifies the converse: best-effort flits flow
// whenever no on-time TC packet is ready, even with early TC queued.
func TestBEUsesExcessBandwidth(t *testing.T) {
	r := newPairRig(t, DefaultConfig()) // h = 0
	if err := r.a.SetConnection(1, 2, 60, maskOf(PortXPlus)); err != nil {
		t.Fatal(err)
	}
	if err := r.b.SetConnection(2, 7, 10, maskOf(PortLocal)); err != nil {
		t.Fatal(err)
	}
	// TC packet whose ℓ0 is far in the future: ineligible for a long time.
	r.a.InjectTC(tcPkt(1, 100, 1))
	frame, err := packet.NewBE(1, 0, make([]byte, 500))
	if err != nil {
		t.Fatal(err)
	}
	r.a.InjectBE(frame)
	ok := r.k.RunUntil(func() bool { return r.b.Stats.BEDelivered > 0 }, 5000)
	if !ok {
		t.Fatal("best-effort packet blocked behind ineligible early TC packet")
	}
	if r.a.Stats.TCTransmitted[PortXPlus] != 0 {
		t.Error("early TC packet transmitted despite h=0 and ℓ in the future")
	}
}

func TestMulticastFanout(t *testing.T) {
	cfg := DefaultConfig()
	k := sim.NewKernel()
	a := MustNew("A", cfg)
	bx := MustNew("Bx", cfg)
	by := MustNew("By", cfg)
	k.Register(a)
	k.Register(bx)
	k.Register(by)
	chx := NewChannel(k)
	a.ConnectOut(PortXPlus, chx.Out())
	bx.ConnectIn(PortXMinus, chx.In())
	chy := NewChannel(k)
	a.ConnectOut(PortYPlus, chy.Out())
	by.ConnectIn(PortYMinus, chy.In())

	if err := a.SetConnection(1, 2, 10, maskOf(PortXPlus, PortYPlus)); err != nil {
		t.Fatal(err)
	}
	if err := bx.SetConnection(2, 11, 10, maskOf(PortLocal)); err != nil {
		t.Fatal(err)
	}
	if err := by.SetConnection(2, 12, 10, maskOf(PortLocal)); err != nil {
		t.Fatal(err)
	}
	a.InjectTC(tcPkt(1, 0, 0x77))
	ok := k.RunUntil(func() bool {
		return bx.Stats.TCDelivered > 0 && by.Stats.TCDelivered > 0
	}, 10000)
	if !ok {
		t.Fatalf("multicast incomplete: Bx=%d By=%d", bx.Stats.TCDelivered, by.Stats.TCDelivered)
	}
	if got := bx.DrainTC()[0]; got.Conn != 11 || got.Payload[0] != 0x77 {
		t.Errorf("Bx got %+v", got)
	}
	if got := by.DrainTC()[0]; got.Conn != 12 || got.Payload[0] != 0x77 {
		t.Errorf("By got %+v", got)
	}
	// The shared memory slot must be reclaimed after both copies left.
	if a.FreeSlots() != cfg.Slots {
		t.Errorf("slot not reclaimed after multicast: %d free", a.FreeSlots())
	}
}

func TestTCDropNoRoute(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.a.InjectTC(tcPkt(99, 0, 0)) // no table entry for conn 99
	r.k.Run(200)
	if r.a.Stats.TCDropsNoRoute != 1 {
		t.Errorf("TCDropsNoRoute = %d, want 1", r.a.Stats.TCDropsNoRoute)
	}
	if r.a.FreeSlots() != DefaultConfig().Slots {
		t.Errorf("dropped packet leaked memory slot")
	}
}

func TestTCDropNoSlot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Slots = 2
	r := newRig(t, cfg)
	// Route to +x, which has no link: packets to a dead port are dropped
	// by the output, but with only 2 slots and a flood of injections the
	// idle FIFO runs dry first.
	if err := r.a.SetConnection(1, 2, 100, maskOf(PortLocal)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		r.a.InjectTC(tcPkt(1, 120, byte(i))) // far-future ℓ: held, memory stays full
	}
	r.k.Run(packet.TCBytes*8 + 200)
	if r.a.Stats.TCDropsNoSlot == 0 {
		t.Errorf("expected idle-FIFO exhaustion drops; stats %+v", r.a.Stats)
	}
}

func TestControlInterfaceStagedWrites(t *testing.T) {
	r := newRig(t, DefaultConfig())
	// The Table 3 sequence, written field by field.
	writes := []struct {
		f ControlField
		v uint8
	}{
		{CtlOutConn, 42},
		{CtlDelay, 17},
		{CtlPortMask, uint8(maskOf(PortYMinus, PortLocal))},
		{CtlCommitConn, 5},
	}
	for _, w := range writes {
		if err := r.a.ControlWrite(w.f, w.v); err != nil {
			t.Fatal(err)
		}
	}
	ent := r.a.Connection(5)
	if !ent.Valid || ent.Out != 42 || ent.Delay != 17 || ent.Mask != maskOf(PortYMinus, PortLocal) {
		t.Errorf("entry = %+v", ent)
	}
	// Horizon: two-write sequence.
	if err := r.a.ControlWrite(CtlHorizonMask, uint8(maskOf(PortXPlus))); err != nil {
		t.Fatal(err)
	}
	if err := r.a.ControlWrite(CtlHorizonValue, 9); err != nil {
		t.Fatal(err)
	}
	if r.a.Horizon(PortXPlus) != 9 {
		t.Errorf("horizon = %d, want 9", r.a.Horizon(PortXPlus))
	}
	if r.a.Horizon(PortXMinus) != 0 {
		t.Errorf("unmasked port horizon changed: %d", r.a.Horizon(PortXMinus))
	}
}

func TestControlInterfaceRejects(t *testing.T) {
	r := newRig(t, DefaultConfig())
	if err := r.a.ControlWrite(CtlDelay, 200); err == nil {
		t.Error("delay beyond half clock range accepted")
	}
	if err := r.a.ControlWrite(CtlPortMask, 0xFF); err == nil {
		t.Error("mask with phantom ports accepted")
	}
	if err := r.a.ControlWrite(CtlHorizonValue, 128); err == nil {
		t.Error("horizon beyond half clock range accepted")
	}
	if err := r.a.ControlWrite(ControlField(99), 0); err == nil {
		t.Error("unknown field accepted")
	}
	if err := r.a.SetHorizon(maskOf(PortXPlus), 5); err != nil {
		t.Error(err)
	}
}

func TestClearConnection(t *testing.T) {
	r := newRig(t, DefaultConfig())
	if err := r.a.SetConnection(3, 4, 5, maskOf(PortLocal)); err != nil {
		t.Fatal(err)
	}
	if err := r.a.ClearConnection(3); err != nil {
		t.Fatal(err)
	}
	if r.a.Connection(3).Valid {
		t.Error("entry still valid after clear")
	}
	r.a.InjectTC(tcPkt(3, 0, 0))
	r.k.Run(200)
	if r.a.Stats.TCDropsNoRoute != 1 {
		t.Errorf("packet on torn-down connection not dropped: %+v", r.a.Stats)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Slots = 0 },
		func(c *Config) { c.Conns = 0 },
		func(c *Config) { c.Conns = 300 },
		func(c *Config) { c.ClockBits = 1 },
		func(c *Config) { c.ClockBits = 9 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestPortName(t *testing.T) {
	names := map[int]string{0: "+x", 1: "-x", 2: "+y", 3: "-y", 4: "local", 9: "port(9)"}
	for p, want := range names {
		if got := PortName(p); got != want {
			t.Errorf("PortName(%d) = %q, want %q", p, got, want)
		}
	}
}

// TestBEFlowControlNoOverrun drives several packets at the same output
// and checks credits prevent flit-buffer overruns.
func TestBEFlowControlNoOverrun(t *testing.T) {
	r := newPairRig(t, DefaultConfig())
	for i := 0; i < 10; i++ {
		frame, err := packet.NewBE(1, 0, make([]byte, 200))
		if err != nil {
			t.Fatal(err)
		}
		r.a.InjectBE(frame)
	}
	r.k.RunUntil(func() bool { return r.b.Stats.BEDelivered >= 10 }, 50000)
	if r.b.Stats.BEDelivered != 10 {
		t.Fatalf("delivered %d/10", r.b.Stats.BEDelivered)
	}
	if r.b.Stats.BEBufferOverruns != 0 {
		t.Errorf("flit buffer overruns: %d", r.b.Stats.BEBufferOverruns)
	}
	if r.b.Stats.BEMalformed != 0 {
		t.Errorf("malformed BE packets: %d", r.b.Stats.BEMalformed)
	}
}

// TestVCTReducesLatency compares time-constrained latency with and
// without the Section 7 virtual cut-through extension on an idle network.
func TestVCTReducesLatency(t *testing.T) {
	run := func(vct bool) int64 {
		cfg := DefaultConfig()
		cfg.VCT = vct
		r := newPairRig(t, cfg)
		setHorizon(t, sched.AllPortsMask(NumPorts), 100, r.a, r.b)
		if err := r.a.SetConnection(1, 2, 20, maskOf(PortXPlus)); err != nil {
			t.Fatal(err)
		}
		if err := r.b.SetConnection(2, 7, 20, maskOf(PortLocal)); err != nil {
			t.Fatal(err)
		}
		r.a.InjectTC(tcPkt(1, 0, 1))
		if !r.k.RunUntil(func() bool { return r.b.Stats.TCDelivered > 0 }, 30000) {
			t.Fatalf("vct=%v: not delivered", vct)
		}
		return r.b.DrainTC()[0].Cycle
	}
	store := run(false)
	cut := run(true)
	if cut >= store {
		t.Errorf("VCT latency %d not better than store-and-forward %d", cut, store)
	}
	// Cut-through skips the full-packet buffering at each of three
	// store points; expect at least one packet time of savings.
	if store-cut < packet.TCBytes {
		t.Errorf("VCT saved only %d cycles, want ≥ %d", store-cut, packet.TCBytes)
	}
}

func TestVCTCountsCuts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VCT = true
	r := newPairRig(t, cfg)
	setHorizon(t, sched.AllPortsMask(NumPorts), 100, r.a, r.b)
	if err := r.a.SetConnection(1, 2, 20, maskOf(PortXPlus)); err != nil {
		t.Fatal(err)
	}
	if err := r.b.SetConnection(2, 7, 20, maskOf(PortLocal)); err != nil {
		t.Fatal(err)
	}
	r.a.InjectTC(tcPkt(1, 0, 1))
	r.k.RunUntil(func() bool { return r.b.Stats.TCDelivered > 0 }, 30000)
	if r.a.Stats.TCCutThroughs == 0 && r.b.Stats.TCCutThroughs == 0 {
		t.Error("no cut-throughs recorded on an idle network with VCT on")
	}
	got := r.b.DrainTC()
	if len(got) != 1 || got[0].Conn != 7 || got[0].Payload[0] != 1 {
		t.Errorf("VCT corrupted delivery: %+v", got)
	}
}

// TestBEMisroute sends a best-effort packet toward a nonexistent
// neighbour; the router must drain and count it rather than wedge.
func TestBEMisroute(t *testing.T) {
	r := newRig(t, DefaultConfig())
	frame, err := packet.NewBE(3, 0, []byte("into the void"))
	if err != nil {
		t.Fatal(err)
	}
	r.a.InjectBE(frame)
	r.k.Run(500)
	if r.a.Stats.BEMisroutes != 1 {
		t.Errorf("BEMisroutes = %d, want 1", r.a.Stats.BEMisroutes)
	}
	// The injection path must be clear for the next packet.
	ok, _ := packet.NewBE(0, 0, []byte("ok"))
	r.a.InjectBE(ok)
	r.k.RunUntil(func() bool { return r.a.Stats.BEDelivered > 0 }, 2000)
	if r.a.Stats.BEDelivered != 1 {
		t.Error("injection path wedged after misroute")
	}
}

// TestTCDeadPortDrop schedules a time-constrained packet to an unwired
// link and checks the router drains it.
func TestTCDeadPortDrop(t *testing.T) {
	r := newRig(t, DefaultConfig())
	if err := r.a.SetConnection(1, 2, 10, maskOf(PortYPlus)); err != nil {
		t.Fatal(err)
	}
	r.a.InjectTC(tcPkt(1, 0, 0))
	r.k.Run(2000)
	if r.a.Stats.TCDeadPortDrops != 1 {
		t.Errorf("TCDeadPortDrops = %d, want 1; stats %+v", r.a.Stats.TCDeadPortDrops, r.a.Stats)
	}
	if r.a.FreeSlots() != DefaultConfig().Slots {
		t.Error("dead-port drop leaked a memory slot")
	}
}
