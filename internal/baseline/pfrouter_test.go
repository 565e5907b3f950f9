package baseline

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/sim"
)

// pfRig wires two PF routers A→B on the x axis.
type pfRig struct {
	k    *sim.Kernel
	a, b *PFRouter
}

func newPFRig(t *testing.T) *pfRig {
	t.Helper()
	k := sim.NewKernel()
	a, err := NewPFRouter("A", 256)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPFRouter("B", 256)
	if err != nil {
		t.Fatal(err)
	}
	k.Register(a)
	k.Register(b)
	ab := router.NewChannel(k)
	a.ConnectOut(router.PortXPlus, ab.Out())
	b.ConnectIn(router.PortXMinus, ab.In())
	ba := router.NewChannel(k)
	b.ConnectOut(router.PortXMinus, ba.Out())
	a.ConnectIn(router.PortXPlus, ba.In())
	return &pfRig{k: k, a: a, b: b}
}

func pfPkt(conn, prio uint8, tag byte) packet.TCPacket {
	p := packet.TCPacket{Conn: conn, Stamp: prio}
	p.Payload[0] = tag
	return p
}

func TestPFLocalDelivery(t *testing.T) {
	k := sim.NewKernel()
	r, err := NewPFRouter("A", 16)
	if err != nil {
		t.Fatal(err)
	}
	k.Register(r)
	if err := r.SetRoute(1, 9, 1<<router.PortLocal); err != nil {
		t.Fatal(err)
	}
	r.Inject(pfPkt(1, 5, 0xAA))
	ok := k.RunUntil(func() bool { return r.Stats.Delivered > 0 }, 2000)
	if !ok {
		t.Fatalf("not delivered: %+v", r.Stats)
	}
	d := r.DrainTC()
	if d[0].Conn != 9 || d[0].Stamp != 5 || d[0].Payload[0] != 0xAA {
		t.Errorf("delivery %+v", d[0])
	}
}

func TestPFTwoHop(t *testing.T) {
	rig := newPFRig(t)
	if err := rig.a.SetRoute(1, 2, 1<<router.PortXPlus); err != nil {
		t.Fatal(err)
	}
	if err := rig.b.SetRoute(2, 7, 1<<router.PortLocal); err != nil {
		t.Fatal(err)
	}
	rig.a.Inject(pfPkt(1, 3, 0x11))
	ok := rig.k.RunUntil(func() bool { return rig.b.Stats.Delivered > 0 }, 5000)
	if !ok {
		t.Fatalf("not delivered: A=%+v B=%+v", rig.a.Stats, rig.b.Stats)
	}
	d := rig.b.DrainTC()
	if d[0].Conn != 7 || d[0].Stamp != 3 {
		t.Errorf("delivery %+v (priority must survive the hop)", d[0])
	}
}

// TestPFPriorityOrder creates queueing at A — B's input buffer fills
// while B's local port serves its own better-priority stream — then
// injects one high-priority packet at A; it must overtake the packets
// still queued at A.
func TestPFPriorityOrder(t *testing.T) {
	rig := newPFRig(t)
	if err := rig.a.SetRoute(1, 2, 1<<router.PortXPlus); err != nil {
		t.Fatal(err)
	}
	if err := rig.b.SetRoute(2, 7, 1<<router.PortLocal); err != nil {
		t.Fatal(err)
	}
	if err := rig.b.SetRoute(3, 8, 1<<router.PortLocal); err != nil {
		t.Fatal(err)
	}
	// B's own long stream at priority 50 monopolizes its local port, so
	// A's prio-200 stream backs up (8 in B's buffer, the rest queued at
	// A).
	for i := 0; i < 300; i++ {
		rig.b.Inject(pfPkt(3, 50, byte(i)))
	}
	for i := 0; i < 12; i++ {
		rig.a.Inject(pfPkt(1, 200, byte(i)))
	}
	rig.k.Run(1500) // let the backlog form while B is still busy
	rig.a.Inject(pfPkt(1, 1, 0x99))
	rig.k.RunUntil(func() bool { return rig.b.Stats.Delivered >= 313 }, 120000)
	got := rig.b.DrainTC()
	pos, after := -1, 0
	for i, d := range got {
		if d.Conn == 7 && d.Payload[0] == 0x99 {
			pos = i
		} else if pos >= 0 && d.Conn == 7 {
			after++
		}
	}
	if pos < 0 {
		t.Fatal("high-priority packet lost")
	}
	// It must beat the low-priority packets that were still queued at A
	// (at least the last few of the twelve).
	if after < 3 {
		t.Errorf("high-priority packet overtook only %d queued packets", after)
	}
}

// TestPFBackpressure fills B's input queue (nothing drains it) and
// checks A stops sending at 8 packets in flight rather than overrunning.
func TestPFBackpressure(t *testing.T) {
	rig := newPFRig(t)
	if err := rig.a.SetRoute(1, 2, 1<<router.PortXPlus); err != nil {
		t.Fatal(err)
	}
	// Credits cap A's in-flight count at the queue depth; with a valid
	// route at B every packet must arrive with zero overruns.
	if err := rig.b.SetRoute(2, 7, 1<<router.PortLocal); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		rig.a.Inject(pfPkt(1, 9, byte(i)))
	}
	rig.k.RunUntil(func() bool { return rig.b.Stats.Delivered >= 20 }, 40000)
	if rig.b.Stats.Delivered != 20 {
		t.Fatalf("delivered %d/20", rig.b.Stats.Delivered)
	}
	if rig.b.Stats.DropsOverrun != 0 {
		t.Errorf("input queue overran despite credits: %+v", rig.b.Stats)
	}
}

// TestPFPriorityInheritance: B's input queue from A is full of
// mid-priority packets while a high-priority packet waits at A. The
// sideband must boost B's head so it drains ahead of B's other traffic.
func TestPFPriorityInheritance(t *testing.T) {
	rig := newPFRig(t)
	// A sends everything to B's local port.
	if err := rig.a.SetRoute(1, 2, 1<<router.PortXPlus); err != nil {
		t.Fatal(err)
	}
	if err := rig.b.SetRoute(2, 7, 1<<router.PortLocal); err != nil {
		t.Fatal(err)
	}
	// B also has its own injected traffic for its local port at priority
	// 50, competing with the A→B stream at priority 100.
	if err := rig.b.SetRoute(3, 8, 1<<router.PortLocal); err != nil {
		t.Fatal(err)
	}
	// Ten prio-100 packets from A: eight fill B's input buffer, two
	// queue at A. B's long-running prio-50 self stream keeps winning
	// B's local port, so the A→B stream is stuck.
	for i := 0; i < PFQueueDepth+2; i++ {
		rig.a.Inject(pfPkt(1, 100, byte(i)))
	}
	for i := 0; i < 300; i++ {
		rig.b.Inject(pfPkt(3, 50, byte(i)))
	}
	rig.k.Run(1500)
	if rig.b.QueueDepth(router.PortXMinus) != PFQueueDepth {
		t.Fatalf("B input buffer depth %d, want %d (saturated)",
			rig.b.QueueDepth(router.PortXMinus), PFQueueDepth)
	}
	// A critical packet arrives at A. Its priority (1) sorts to the head
	// of A's queue; the sideband lets the head of B's full input buffer
	// inherit it, cutting the whole chain ahead of B's prio-50 stream.
	rig.a.Inject(pfPkt(1, 1, 0xEE))
	rig.k.Run(4000)
	if rig.b.Stats.Inherited == 0 {
		t.Errorf("no priority inheritance recorded; A=%+v B=%+v", rig.a.Stats, rig.b.Stats)
	}
	// The critical packet must arrive while B's self stream still runs.
	found := false
	for _, d := range rig.b.DrainTC() {
		if d.Conn == 7 && d.Payload[0] == 0xEE {
			found = true
		}
	}
	if !found {
		t.Error("critical packet not delivered past the blocked buffer")
	}
	if rig.b.Stats.Delivered >= 310 {
		t.Error("B self stream finished; inheritance was not exercised under blocking")
	}
}

func TestPFValidation(t *testing.T) {
	if _, err := NewPFRouter("x", 0); err == nil {
		t.Error("zero-table router accepted")
	}
	r, _ := NewPFRouter("x", 16)
	if err := r.SetRoute(20, 0, 1); err == nil {
		t.Error("out-of-range id accepted")
	}
	if err := r.SetRoute(1, 0, 0); err == nil {
		t.Error("empty mask accepted")
	}
	if err := r.SetRoute(1, 0, 0b11); err == nil {
		t.Error("multicast mask accepted (model is unicast)")
	}
}

func TestPFDropsNoRoute(t *testing.T) {
	k := sim.NewKernel()
	r, _ := NewPFRouter("A", 16)
	k.Register(r)
	r.Inject(pfPkt(5, 1, 0))
	k.Run(200)
	if r.Stats.DropsNoRoute != 1 {
		t.Errorf("DropsNoRoute = %d, want 1", r.Stats.DropsNoRoute)
	}
}

func TestAblationConfigs(t *testing.T) {
	if FIFOConfig().Scheduler != sched.OrderFIFO {
		t.Error("FIFOConfig scheduler wrong")
	}
	if StaticPriorityConfig().Scheduler != sched.OrderStatic {
		t.Error("StaticPriorityConfig scheduler wrong")
	}
	if err := FIFOConfig().Validate(); err != nil {
		t.Error(err)
	}
	if err := StaticPriorityConfig().Validate(); err != nil {
		t.Error(err)
	}
}
