package router

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sched"
)

// TestFIFOHoldsEarlyStagedPacket pins the transmit-stage regulator under
// a FIFO-order tree: the tree offers a packet that is early beyond the
// port's horizon at once (FIFO order has no top-of-tree check), so it is
// fetched and staged, but the class rule holds it on the port until
// ℓ − h and lets it go as early then. X2's "FIFO output-queued" and
// "static priority" rows depend on this hold: without it their tight
// stream meets its deadlines (sched.OrderFIFO).
func TestFIFOHoldsEarlyStagedPacket(t *testing.T) {
	const l, h = 20, 3 // ℓ at this router and the reception port's horizon, in slots
	cfg := DefaultConfig()
	cfg.Scheduler = sched.OrderFIFO
	r := newRig(t, cfg)
	setHorizon(t, maskOf(PortLocal), h, r.a)
	if err := r.a.SetConnection(1, 9, 10, maskOf(PortLocal)); err != nil {
		t.Fatal(err)
	}
	var tx []LifecycleEvent
	r.a.OnLifecycle = func(e LifecycleEvent) {
		if e.Kind == EvTransmit {
			tx = append(tx, e)
		}
	}
	r.a.InjectTC(tcPkt(1, l, 1))
	release := int64(l-h) * packet.TCBytes // the first cycle of slot ℓ − h
	r.k.Run(release - 1)
	if st := r.a.OutputState(PortLocal); !st.Staged || len(tx) != 0 {
		t.Fatalf("before ℓ − h: port state %+v, %d transmissions; want the packet staged and held", st, len(tx))
	}
	if !r.k.RunUntil(func() bool { return r.a.Stats.TCDelivered > 0 }, 2000) {
		t.Fatalf("packet not delivered; stats %+v", r.a.Stats)
	}
	if len(tx) != 1 || tx[0].Cycle < release || tx[0].Cycle > release+2 || tx[0].Class != sched.ClassEarly {
		t.Errorf("transmissions %+v; want one early start at cycle %d", tx, release)
	}
}

// TestBlameVictimFollowsOrder: the forensics' head-of-line victim is the
// leaf the tree's order serves next. A FIFO router holds two on-time
// leaves owed to one port, installed in the reverse of their EDF order;
// on a port-cycle attributed before the port's beat, the wait is charged
// to the FIFO head, not to the earlier deadline.
func TestBlameVictimFollowsOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheduler = sched.OrderFIFO
	r := MustNew("A", cfg)
	r.EnableBlame()
	const head, urgent = 1, 2 // connection ids of the two leaves
	for _, lf := range []sched.Leaf{
		{L: 0, Dl: 40, Mask: maskOf(PortLocal), InConn: head},
		{L: 0, Dl: 10, Mask: maskOf(PortLocal), InConn: urgent},
	} {
		slot, ok := r.mem.alloc()
		if !ok {
			t.Fatal("no free memory slot")
		}
		if err := r.schedq.Install(slot, lf); err != nil {
			t.Fatal(err)
		}
	}
	r.blameGrant(PortLocal, r.slotNow(0), grantIdle, 0)
	got := map[BlameKey]int64{}
	r.ForEachBlame(func(k BlameKey, n int64) { got[k] = n })
	want := BlameKey{Port: PortLocal, Victim: head, Cause: CauseSchedWait}
	if len(got) != 1 || got[want] != 1 {
		t.Errorf("blame bank %v; want one %v cycle", got, want)
	}
}
