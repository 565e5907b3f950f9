package router

import (
	"reflect"
	"testing"

	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/sim"
)

// fullScan ticks its router the way Router.Tick did before the port masks
// and the stamp gate: always the whole cycle, every phase over all five
// ports, every attached wire read. The launch and acknowledge loops are
// the loops the masks replaced; drainDropped, the wire reads and parse sit
// inside arbitrate and sampleInputs, so there the oracle forces every gate
// open instead — all ports marked, every stamp row made to match the cycle,
// which the engines' own tests and the precise read then settle.
type fullScan struct{ *Router }

func (f fullScan) Tick(now sim.Cycle) {
	r := f.Router
	nowSlot := r.slotNow(int64(now))
	r.nowCycle = int64(now)
	r.prevSlot, r.slotSeen = nowSlot, true

	const allPorts = 1<<NumPorts - 1
	r.beDropping = allPorts
	for p := 0; p < NumPorts; p++ {
		r.arbitrate(p, nowSlot)
	}
	r.beDropping = flagsOf(r).dropping

	r.schedCountdown--
	if r.schedCountdown <= 0 {
		r.schedCountdown = r.cfg.SchedPeriod * r.cfg.LeafSharing
		r.schedBeat(nowSlot)
	}

	for p := 0; p < NumPorts; p++ {
		r.tcIn[p].launchWrite()
		r.tcOut[p].launchFetch()
	}
	r.bus.tick()
	r.Stats.BusGrants = r.bus.grants

	size := r.stampMask + 1
	for w := int64(0); w < numWires; w++ {
		r.stamps[w*size+int64(now)&r.stampMask] = uint16(now)
	}
	r.beUnparsed = allPorts
	r.sampleInputs()

	for p := 0; p < NumLinks; p++ {
		if r.in[p] == nil {
			continue
		}
		u := r.beIn[p]
		var a packet.Ack
		if u.consumed > 0 {
			a.BECredit = true
			u.consumed--
		}
		if u.nackPending {
			a.BENack = true
			u.nackPending = false
		}
		if a.BECredit || a.BENack {
			r.in[p].DriveAck(r.nowCycle, a)
		}
	}
	r.rest = restBusy
}

type faultCall struct {
	cycle int64
	at    string
	port  int
	ph    packet.Phit
}

// scanRig is a pair A↔B plus a loopback of B's +y output onto its −y
// input, every link lat cycles long, with a fault hook and a lifecycle
// recorder on both routers.
type scanRig struct {
	t      *testing.T
	k      *sim.Kernel
	lat    int64
	a, b   *Router
	faults []faultCall
	events []LifecycleEvent
}

func newScanRig(t *testing.T, cfg Config, oracle bool, fault func(at *Router, port int, ph packet.Phit) (packet.Phit, bool)) *scanRig {
	r := &scanRig{t: t, k: sim.NewKernel(), lat: cfg.linkLatency()}
	r.a, r.b = MustNew("A", cfg), MustNew("B", cfg)
	for _, x := range []*Router{r.a, r.b} {
		x := x
		if oracle {
			r.k.Register(fullScan{x})
		} else {
			r.k.Register(x)
		}
		x.LinkFault = func(port int, ph packet.Phit) (packet.Phit, bool) {
			r.faults = append(r.faults, faultCall{x.nowCycle, x.name, port, ph})
			return fault(x, port, ph)
		}
		x.OnLifecycle = func(e LifecycleEvent) { r.events = append(r.events, e) }
	}
	r.wire(r.a, PortXPlus, r.b, PortXMinus)
	r.wire(r.b, PortXMinus, r.a, PortXPlus)
	r.wire(r.b, PortYPlus, r.b, PortYMinus)
	return r
}

func (r *scanRig) wire(from *Router, out int, to *Router, in int) {
	ch := NewChannelShards(r.k, r.lat, -1, -1)
	from.ConnectOut(out, ch.Out())
	to.ConnectIn(in, ch.In())
}

// scanObs is what the full-scan differential compares after every cycle,
// per router: counters, the transmit pipelines, the packet memory, the
// scheduler's occupancy and telemetry (its leaves are compared beside it),
// flit credits, injection backlogs and the deliveries of the cycle.
type scanObs struct {
	stats            Stats
	out              [NumPorts]PortState
	credits          [NumPorts]int
	free, occ        int
	selects, overdue int64
	tcBacklog        int
	beBacklog        int
	tc               []DeliveredTC
	be               []DeliveredBE
}

func observe(x *Router) scanObs {
	o := scanObs{
		stats: x.Stats, free: x.FreeSlots(), occ: x.schedq.Occupancy(),
		tcBacklog: x.TCInjectBacklog(), beBacklog: x.BEInjectBacklog(),
	}
	// Whether an empty drain is nil or zero-length is the buffers' history.
	o.tc = append(o.tc, x.DrainTC()...)
	o.be = append(o.be, x.DrainBE()...)
	tree := x.schedq.(*sched.EDFTree)
	o.selects, o.overdue = tree.Selects, tree.Overdue
	for p := 0; p < NumPorts; p++ {
		o.out[p] = x.OutputState(p)
		o.credits[p] = x.beOut[p].credits
	}
	return o
}

// TestBusyTickMatchesFullScan runs one script on two rigs — one ticked by
// the production Tick, one by the full-scan oracle — and requires equal
// observations, equal LinkFault call sequences and equal lifecycle events
// after every cycle. The script keeps B's reception port contended by
// three inputs, sends time-constrained packets on time and early (so some
// park), misroutes frames, lets both routers drain to rest in the middle,
// and cuts the A→B link and later replaces it with a new channel.
func TestBusyTickMatchesFullScan(t *testing.T) {
	passThrough := func(_ *Router, _ int, ph packet.Phit) (packet.Phit, bool) { return ph, true }
	// lossy garbles best-effort flits into B for a while (nacks, replays
	// and a frame aborted on its retry budget), then erases every 31st
	// time-constrained phit into B (framing and checksum drops).
	lossy := func(at *Router, port int, ph packet.Phit) (packet.Phit, bool) {
		if at.name != "B" || port != PortXMinus {
			return ph, true
		}
		switch now := at.nowCycle; {
		case ph.VC == packet.VCBest && now >= 1500 && now < 2100:
			ph.Data ^= 0x5a
		case ph.VC == packet.VCTime && now >= 2500 && now < 4000 && now%31 == 0:
			return ph, false
		}
		return ph, true
	}
	for _, tc := range []struct {
		name           string
		lat            int
		integrity, vct bool
		fault          func(*Router, int, packet.Phit) (packet.Phit, bool)
	}{
		{"lat1", 1, false, false, passThrough},
		{"lat4", 4, false, false, passThrough},
		{"lat4_vct", 4, false, true, passThrough},
		{"lat1_integrity", 1, true, false, lossy},
		{"lat4_integrity", 4, true, false, lossy},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.LinkLatency, cfg.Integrity, cfg.VCT, cfg.BERetryLimit = tc.lat, tc.integrity, tc.vct, 2
			cfg.Slots = 64 // every leaf is compared every cycle
			prod, orac := newScanRig(t, cfg, false, tc.fault), newScanRig(t, cfg, true, tc.fault)
			var nFaults, nEvents int
			for c := int64(0); c < 9000; c++ {
				prod.script(c)
				orac.script(c)
				prod.k.Step()
				orac.k.Step()
				for _, pair := range [][2]*Router{{prod.a, orac.a}, {prod.b, orac.b}} {
					x, y := pair[0], pair[1]
					if got, want := observe(x), observe(y); !reflect.DeepEqual(got, want) {
						t.Fatalf("cycle %d router %s:\nTick:      %+v\nfull scan: %+v", c, x.name, got, want)
					}
					for s := 0; s < cfg.Slots; s++ {
						if got, want := x.schedq.Leaf(s), y.schedq.Leaf(s); got != want {
							t.Fatalf("cycle %d router %s leaf %d: %+v, full scan %+v", c, x.name, s, got, want)
						}
					}
					checkIndexes(t, x, c)
				}
				if !reflect.DeepEqual(prod.faults[nFaults:], orac.faults[nFaults:]) {
					t.Fatalf("cycle %d: LinkFault calls diverge:\nTick:      %+v\nfull scan: %+v", c, prod.faults[nFaults:], orac.faults[nFaults:])
				}
				if !reflect.DeepEqual(prod.events[nEvents:], orac.events[nEvents:]) {
					t.Fatalf("cycle %d: lifecycle events diverge:\nTick:      %+v\nfull scan: %+v", c, prod.events[nEvents:], orac.events[nEvents:])
				}
				nFaults, nEvents = len(prod.faults), len(prod.events)
			}
			a, b := prod.a, prod.b
			switch {
			case b.Stats.TCDelivered < 100 || b.Stats.BEDelivered < 50 || a.Stats.BEDelivered < 5:
				t.Errorf("too little traffic: B delivered %d tc, %d be; A %d be", b.Stats.TCDelivered, b.Stats.BEDelivered, a.Stats.BEDelivered)
			case b.Stats.BEMisroutes == 0 || a.Stats.BETruncated == 0:
				t.Errorf("%d misroutes at B, %d worms truncated at A", b.Stats.BEMisroutes, a.Stats.BETruncated)
			case a.IdleTicks() == 0 || b.IdleTicks() == 0 || a.ParkedTicks()+b.ParkedTicks() == 0:
				t.Errorf("the routers under Tick never rested: idle %d/%d, parked %d/%d",
					a.IdleTicks(), b.IdleTicks(), a.ParkedTicks(), b.ParkedTicks())
			case orac.a.IdleTicks()+orac.a.ParkedTicks()+orac.b.IdleTicks()+orac.b.ParkedTicks() != 0:
				t.Error("the oracle left the full tick")
			case tc.integrity && (a.Stats.BEFrameAborts == 0 || b.Stats.BEFlitNacks == 0 || b.Stats.TCFramingDrops+b.Stats.TCCorruptDrops == 0):
				t.Errorf("fault script missed a case: A %+v\nB %+v", a.Stats, b.Stats)
			case tc.vct && b.Stats.TCCutThroughs == 0:
				t.Error("no packet cut through")
			case nFaults == 0:
				t.Error("LinkFault never called")
			}
		})
	}
}

const (
	scanQuietFrom, scanQuietTo = 5000, 5800 // nothing injected: both routers drain to rest
	scanCutAt, scanHealAt      = 6500, 7200 // the A→B link is down in between
)

// script is what the world does to the rig before cycle c.
func (r *scanRig) script(c int64) {
	a, b := r.a, r.b
	switch c {
	case 0:
		for _, s := range []struct {
			at         *Router
			in, out, d uint8
			mask       sched.PortMask
		}{
			{a, 1, 2, 5, maskOf(PortXPlus)}, {b, 2, 7, 5, maskOf(PortLocal)}, // A → B
			{b, 3, 4, 5, maskOf(PortYPlus)}, {b, 4, 8, 5, maskOf(PortLocal)}, // B → loopback → B
			{b, 5, 6, 5, maskOf(PortXMinus, PortLocal)}, {a, 6, 9, 5, maskOf(PortLocal)}, // B → A and B itself
		} {
			if err := s.at.SetConnection(s.in, s.out, s.d, s.mask); err != nil {
				r.t.Fatal(err)
			}
		}
	case scanQuietFrom:
		// The one packet of the quiet stretch parks at A, then at B.
		a.InjectTC(tcPkt(1, uint8(c/packet.TCBytes)+25, 0xEE))
	case scanCutAt:
		a.ConnectOut(PortXPlus, nil)
		b.ConnectIn(PortXMinus, nil)
	case scanHealAt:
		r.wire(a, PortXPlus, b, PortXMinus)
	}
	if c >= scanQuietFrom && c < scanQuietTo {
		return
	}
	be := func(rt *Router, xoff, yoff, n int) { topUpBE(r.t, rt, xoff, yoff, n) }
	be(a, 1, 0, 60) // A → B's reception port
	switch c % 5 {
	case 0:
		be(b, 0, 1, 48) // B → loopback → B's reception port
	case 1:
		be(b, 0, 0, 32) // B's injection port → B's reception port
	case 2:
		be(b, -1, 0, 20) // B → A
	}
	if c%400 == 0 {
		be(b, 1, 0, 24) // no +x neighbour at B: misroute
	}
	// One packet every six slots on each connection — together half of
	// B's reception port — up to five slots ahead of its logical arrival
	// time.
	const period = 6 * packet.TCBytes
	slot, early := uint8(c/packet.TCBytes), uint8(c/period%6)
	switch c % period {
	case 0:
		a.InjectTC(tcPkt(1, slot+early, byte(c)))
	case 47:
		b.InjectTC(tcPkt(3, slot+early, byte(c)))
	case 93:
		b.InjectTC(tcPkt(5, slot, byte(c)))
	}
}

// TestStampGateStaleMatch: a stamp row whose sixteen bits agree with the
// cycle although the pipe slot's full stamp does not is settled by the
// precise read — no arrival, no fault-hook call, nothing received. First
// with all eight rows written directly, then with the alias a real packet
// leaves behind 65536 cycles later.
func TestStampGateStaleMatch(t *testing.T) {
	r := newPairRig(t, DefaultConfig())
	a, b := r.a, r.b
	if err := a.SetConnection(1, 2, 5, maskOf(PortXPlus)); err != nil {
		t.Fatal(err)
	}
	if err := b.SetConnection(2, 7, 5, maskOf(PortLocal)); err != nil {
		t.Fatal(err)
	}
	var lastCall int64
	calls := 0
	b.LinkFault = func(_ int, ph packet.Phit) (packet.Phit, bool) {
		calls++
		lastCall = b.nowCycle
		return ph, true
	}
	r.k.Run(300)

	now := int64(r.k.Now())
	for w := int64(0); w < numWires; w++ {
		b.stamps[w*(b.stampMask+1)+now&b.stampMask] = uint16(now)
	}
	b.rest = restBusy // the full tick, so the rows are read by sampleInputs
	r.k.Step()
	if calls != 0 || b.Stats != (Stats{}) || b.rest != restIdle {
		t.Fatalf("forged stamp rows read as arrivals: %d hook calls, rest state %d, stats %+v", calls, b.rest, b.Stats)
	}

	a.InjectTC(tcPkt(1, uint8(r.k.Now()/packet.TCBytes), 0x77))
	if !r.k.RunUntil(func() bool { return b.Stats.TCDelivered == 1 }, 2000) {
		t.Fatalf("packet not delivered: %+v", b.Stats)
	}
	if calls != packet.TCBytes {
		t.Fatalf("%d hook calls for one packet", calls)
	}
	r.k.Run(300) // both routers back at rest
	stats, idle := b.Stats, b.IdleTicks()
	// The tail phit arrived at lastCall; its stamp stays in the two-entry
	// row and matches again 65536 cycles on.
	alias := lastCall + 1<<16
	r.k.Run(alias - int64(r.k.Now()))
	if got := b.stamps[PortXMinus*(b.stampMask+1)+alias&b.stampMask]; got != uint16(alias) {
		t.Fatalf("row holds %#x at cycle %d: no alias to test", got, alias)
	}
	if !b.inputsClear(alias) {
		t.Error("inputsClear took the alias for an arrival")
	}
	b.rest = restBusy
	r.k.Step()
	if calls != packet.TCBytes || b.Stats != stats || b.rest != restIdle {
		t.Errorf("alias read as an arrival: %d hook calls, rest state %d, stats %+v", calls, b.rest, b.Stats)
	}
	if b.IdleTicks() <= idle {
		t.Error("router never idled across the quiet 65536 cycles")
	}
}

// TestStampGateAcrossReattach: detaching an input link and attaching a new
// channel mid-run never samples through a stale row. While detached the
// router takes nothing from the old wire, which its neighbour keeps
// driving; a phit already in flight on the new channel when it is attached
// is sampled on time; and from then on exactly the new wire's phits
// arrive.
func TestStampGateAcrossReattach(t *testing.T) {
	for _, lat := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.LinkLatency = lat
		k := sim.NewKernel()
		b := MustNew("B", cfg)
		k.Register(b)
		if err := b.SetConnection(2, 7, 5, maskOf(PortLocal)); err != nil {
			t.Fatal(err)
		}
		old := NewChannelShards(k, int64(lat), -1, -1)
		b.ConnectIn(PortXMinus, old.In())
		send := func(ch *Channel, from int64, tag byte) {
			// Drive one encoded packet, a phit per cycle starting at from;
			// the kernel is stepped by the caller.
			enc := packet.EncodeTC(tcPkt(2, uint8(from/packet.TCBytes), tag))
			i := int64(k.Now()) - from
			if i >= 0 && i < packet.TCBytes {
				ch.Out().Drive(int64(k.Now()), packet.Phit{Valid: true, VC: packet.VCTime, Data: enc[i], Head: i == 0, Tail: i == packet.TCBytes-1})
			}
		}
		fresh := NewChannelShards(k, int64(lat), -1, -1)
		for k.Now() < 400 {
			now := k.Now()
			send(old, 20, 0xA1)
			if now == 110 {
				b.ConnectIn(PortXMinus, nil)
			}
			send(old, 115, 0xA2) // the neighbour keeps driving the old wire
			// The new channel is driven from cycle 150 and attached at 151,
			// its first phits still in flight.
			send(fresh, 150, 0xB1)
			if now == 151 {
				b.ConnectIn(PortXMinus, fresh.In())
			}
			send(fresh, 220, 0xB2)
			send(old, 220, 0xA3)
			k.Step()
		}
		var tags []byte
		for _, d := range b.DrainTC() {
			tags = append(tags, d.Payload[0])
		}
		if want := []byte{0xA1, 0xB1, 0xB2}; !reflect.DeepEqual(tags, want) {
			t.Errorf("latency %d: delivered %x, want %x (stats %+v)", lat, tags, want, b.Stats)
		}
	}
}

// TestErasedPhitStillArrives: a phit the fault hook erases still counts as
// an arrival, so a router holding a parked packet is called busy for that
// cycle exactly as before the stamp gate, and parks again on the next.
func TestErasedPhitStillArrives(t *testing.T) {
	r := newPairRig(t, DefaultConfig())
	a, b := r.a, r.b
	if err := b.SetConnection(3, 8, 5, maskOf(PortLocal)); err != nil {
		t.Fatal(err)
	}
	erased := 0
	b.LinkFault = func(int, packet.Phit) (packet.Phit, bool) { erased++; return packet.Phit{}, false }
	b.InjectTC(tcPkt(3, 100, 0x44)) // ℓ = slot 100: held for 2000 cycles
	r.k.Run(200)
	if b.rest != restParked {
		t.Fatalf("rest state %d after 200 cycles, want parked", b.rest)
	}
	a.out[PortXPlus].Drive(int64(r.k.Now()), packet.Phit{Valid: true, VC: packet.VCTime, Data: 3, Head: true})
	r.k.Step() // the phit is on the wire
	parked := b.ParkedTicks()
	r.k.Step() // it arrives and is erased
	if erased != 1 || !b.enginesIdle() {
		t.Fatalf("hook erased %d phits, engines idle %v", erased, b.enginesIdle())
	}
	if b.rest != restBusy || b.ParkedTicks() != parked {
		t.Errorf("rest state %d (%d more parked ticks) in the cycle of an erased arrival, want busy",
			b.rest, b.ParkedTicks()-parked)
	}
	r.k.Step()
	if b.rest != restParked {
		t.Errorf("rest state %d the cycle after, want parked", b.rest)
	}
}
