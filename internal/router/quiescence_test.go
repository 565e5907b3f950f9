package router

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/sim"
)

// idleBuster is a same-package helper that pins routers onto the full
// tick by clearing their rest state every cycle, giving the differential
// tests a control that never parks and never idles. With parkedOnly it
// leaves an idle router alone — the router as it was before the parked
// state existed, whose IdleTicks the parked path must not disturb.
type idleBuster struct {
	rs         []*Router
	parkedOnly bool
}

func (b *idleBuster) Name() string { return "idle-buster" }
func (b *idleBuster) Tick(sim.Cycle) {
	for _, r := range b.rs {
		if !b.parkedOnly || r.rest == restParked {
			r.rest = restBusy
		}
	}
}

// quiescencePair builds two identical A↔B pair rigs with the same
// connection tables; the second has the idle fast path suppressed.
func quiescencePair(t *testing.T) (fast, slow *rig) {
	t.Helper()
	program := func(r *rig) {
		if err := r.a.SetConnection(1, 2, 5, maskOf(PortXPlus)); err != nil {
			t.Fatal(err)
		}
		if err := r.b.SetConnection(2, 7, 5, maskOf(PortLocal)); err != nil {
			t.Fatal(err)
		}
	}
	fast = newPairRig(t, DefaultConfig())
	program(fast)
	slow = newPairRig(t, DefaultConfig())
	program(slow)
	slow.k.Register(&idleBuster{rs: []*Router{slow.a, slow.b}})
	return fast, slow
}

// TestQuiescenceFastPathEquivalence runs idle stretches interleaved
// with real traffic on a fast-path rig and a suppressed-fast-path
// control, and requires every observable — delivery records, hardware
// counters — to match exactly, while proving the fast path actually
// engaged.
func TestQuiescenceFastPathEquivalence(t *testing.T) {
	fast, slow := quiescencePair(t)

	type obs struct {
		deliveries []DeliveredTC
		statsA     Stats
		statsB     Stats
	}
	run := func(r *rig) obs {
		var o obs
		inject := func() {
			r.a.InjectTC(tcPkt(1, uint8(r.k.Now()/packet.TCBytes), 0x5A))
		}
		// Long idle stretch before any traffic: the fast rig's routers go
		// quiescent after their first full tick.
		r.k.Run(700)
		inject()
		r.k.Run(900)
		o.deliveries = append(o.deliveries, r.b.DrainTC()...)
		// A second idle stretch and a second packet: idle must re-engage
		// after traffic drains, and re-arm injection must still work.
		r.k.Run(1100)
		inject()
		r.k.Run(900)
		o.deliveries = append(o.deliveries, r.b.DrainTC()...)
		o.statsA, o.statsB = r.a.Stats, r.b.Stats
		return o
	}
	fo, so := run(fast), run(slow)

	if len(fo.deliveries) != 2 {
		t.Fatalf("fast rig delivered %d packets, want 2", len(fo.deliveries))
	}
	if !reflect.DeepEqual(fo.deliveries, so.deliveries) {
		t.Errorf("deliveries diverge:\nfast: %+v\nslow: %+v", fo.deliveries, so.deliveries)
	}
	if !reflect.DeepEqual(fo.statsA, so.statsA) {
		t.Errorf("router A counters diverge:\nfast: %+v\nslow: %+v", fo.statsA, so.statsA)
	}
	if !reflect.DeepEqual(fo.statsB, so.statsB) {
		t.Errorf("router B counters diverge:\nfast: %+v\nslow: %+v", fo.statsB, so.statsB)
	}
	if fast.a.IdleTicks() == 0 || fast.b.IdleTicks() == 0 {
		t.Errorf("fast path never engaged: A=%d B=%d idle ticks", fast.a.IdleTicks(), fast.b.IdleTicks())
	}
	if slow.a.IdleTicks() != 0 || slow.b.IdleTicks() != 0 {
		t.Errorf("control rig took the fast path: A=%d B=%d idle ticks", slow.a.IdleTicks(), slow.b.IdleTicks())
	}
}

// TestQuiescenceAfterBestEffort: a router that has sourced best-effort
// frames goes idle again once they drain. The injection port owes nobody a
// credit; counting its flits as owed once kept the injecting router on the
// full tick for good. Frames from A to B and from B to itself, interleaved
// with idle stretches, must leave the fast rig and the never-resting
// control with equal counters and deliveries.
func TestQuiescenceAfterBestEffort(t *testing.T) {
	fast, slow := quiescencePair(t)
	type obs struct {
		atA, atB       []DeliveredBE
		statsA, statsB Stats
	}
	var idleA, idleB []int64 // the fast rig's idle ticks after each stretch
	run := func(r *rig) obs {
		var o obs
		drain := func() {
			for _, d := range r.a.DrainBE() {
				o.atA = append(o.atA, DeliveredBE{append([]byte(nil), d.Payload...), d.Cycle})
			}
			for _, d := range r.b.DrainBE() {
				o.atB = append(o.atB, DeliveredBE{append([]byte(nil), d.Payload...), d.Cycle})
			}
		}
		send := func(at *Router, xoff int, payload string) {
			frame, err := packet.NewBE(xoff, 0, []byte(payload))
			if err != nil {
				t.Fatal(err)
			}
			at.InjectBE(frame)
		}
		r.k.Run(300)
		for i, payload := range []string{"seven b", "a frame of some length", "x"} {
			send(r.a, 1, payload) // A → B
			if i == 1 {
				send(r.b, 0, payload) // B's injection port → B's reception port
			}
			r.k.Run(200)
			drain()
			r.k.Run(1000)
			if r == fast {
				idleA, idleB = append(idleA, r.a.IdleTicks()), append(idleB, r.b.IdleTicks())
			}
		}
		o.statsA, o.statsB = r.a.Stats, r.b.Stats
		return o
	}
	fo, so := run(fast), run(slow)
	if len(fo.atB) != 4 || len(fo.atA) != 0 {
		t.Fatalf("fast rig delivered %d frames at B and %d at A, want 4 and 0", len(fo.atB), len(fo.atA))
	}
	if !reflect.DeepEqual(fo, so) {
		t.Errorf("fast rig diverges from the never-resting control:\nfast: %+v\nslow: %+v", fo, so)
	}
	for i := range idleA {
		var prevA, prevB int64
		if i > 0 {
			prevA, prevB = idleA[i-1], idleB[i-1]
		}
		// 1200 cycles a round, a frame in flight for a few dozen of them.
		if idleA[i]-prevA < 1000 || idleB[i]-prevB < 1000 {
			t.Errorf("round %d: idle ticks grew by %d at A and %d at B, want at least 1000 each",
				i, idleA[i]-prevA, idleB[i]-prevB)
		}
	}
	if slow.a.IdleTicks() != 0 || slow.b.IdleTicks() != 0 {
		t.Errorf("control rig rested: A=%d B=%d idle ticks", slow.a.IdleTicks(), slow.b.IdleTicks())
	}
}

// TestQuiescenceWakesOnArrival: a router that has gone idle must drop
// out of the fast path the cycle a phit lands on an input wire, not a
// cycle late — otherwise the first byte of a packet would be lost.
func TestQuiescenceWakesOnArrival(t *testing.T) {
	r := newPairRig(t, DefaultConfig())
	if err := r.a.SetConnection(1, 2, 5, maskOf(PortXPlus)); err != nil {
		t.Fatal(err)
	}
	if err := r.b.SetConnection(2, 7, 5, maskOf(PortLocal)); err != nil {
		t.Fatal(err)
	}
	r.k.Run(500)
	if r.b.IdleTicks() == 0 {
		t.Fatal("receiver never went idle during warmup")
	}
	r.a.InjectTC(tcPkt(1, uint8(r.k.Now()/packet.TCBytes), 0xC3))
	if ok := r.k.RunUntil(func() bool { return r.b.Stats.TCDelivered > 0 }, 5000); !ok {
		t.Fatalf("packet lost across an idle receiver; A=%+v B=%+v", r.a.Stats, r.b.Stats)
	}
	d := r.b.DrainTC()
	if len(d) != 1 || d[0].Payload[0] != 0xC3 {
		t.Fatalf("bad delivery %+v", d)
	}
}

// parkedObs is everything the parked differential compares.
type parkedObs struct {
	deliveries       [2][]DeliveredTC
	stats            [2]Stats
	selects, overdue [2]int64
	snap             metrics.Snapshot
	idle, parked     [2]int64
}

// runParkedScript drives a pair rig for 16000 cycles — the 8-bit slot
// clock rolls over every 5120, so three times — with a seeded script of
// packets stamped 1…200 slots ahead of the slot clock, most of which park
// in a packet memory until their logical arrival time (those more than
// half the wheel ahead read as overdue and leave at once). The
// connections cover what a parked router must still get right: A→B
// traffic and B's own injections contending for B's reception port, a
// multicast leaf owed to a link and to the reception port, leaves owed
// to an unwired port alone and together with a live one, and traffic in
// the reverse direction. bust is registered after the routers, if set.
func runParkedScript(t *testing.T, cfg Config, withMetrics bool, bust *idleBuster) parkedObs {
	t.Helper()
	r := newPairRig(t, cfg)
	rs := [2]*Router{r.a, r.b}
	conns := []struct {
		at         int // index into rs
		in, out, d uint8
		mask       sched.PortMask
	}{
		{0, 1, 2, 5, maskOf(PortXPlus)},
		{1, 2, 7, 5, maskOf(PortLocal)},
		{1, 3, 8, 5, maskOf(PortLocal)},
		{0, 4, 5, 6, maskOf(PortXPlus, PortLocal)},
		{1, 5, 9, 5, maskOf(PortLocal)},
		{0, 6, 6, 5, maskOf(PortYPlus)},
		{0, 10, 10, 7, maskOf(PortYPlus, PortLocal)},
		{1, 11, 12, 5, maskOf(PortXMinus)},
		{0, 12, 13, 5, maskOf(PortLocal)},
	}
	for _, c := range conns {
		if err := rs[c.at].SetConnection(c.in, c.out, c.d, c.mask); err != nil {
			t.Fatal(err)
		}
	}
	injectA, injectB := []uint8{1, 4, 6, 10}, []uint8{3, 11}
	var reg *metrics.Registry
	if withMetrics {
		reg = metrics.NewRegistry()
		r.a.AttachMetrics(reg.Router("A"))
		r.b.AttachMetrics(reg.Router("B"))
	}
	if bust != nil {
		bust.rs = rs[:]
		r.k.Register(bust)
	}

	var o parkedObs
	rng := rand.New(rand.NewSource(7))
	next := int64(0)
	for r.k.Now() < 16000 {
		now := int64(r.k.Now())
		if now >= next {
			// A quiet stretch now and then lets both routers drain to idle,
			// so the script crosses idle → parked → busy → idle.
			next = now + 20 + rng.Int63n(150)
			if rng.Intn(50) == 0 {
				next += 3000
			}
			at, ids := r.a, injectA
			if rng.Intn(3) == 0 {
				at, ids = r.b, injectB
			}
			ahead := uint8(1 + rng.Intn(200))
			stamp := packet.StampOf(at.SlotNow(now)) + ahead
			at.InjectTC(tcPkt(ids[rng.Intn(len(ids))], stamp, byte(now)))
		}
		r.k.Run(min(next, 16000) - now)
		for i, x := range rs {
			o.deliveries[i] = append(o.deliveries[i], x.DrainTC()...)
		}
	}
	for i, x := range rs {
		o.stats[i] = x.Stats
		tree := x.Scheduler().(*sched.EDFTree)
		o.selects[i], o.overdue[i] = tree.Selects, tree.Overdue
		o.idle[i], o.parked[i] = x.IdleTicks(), x.ParkedTicks()
	}
	if reg != nil {
		o.snap = reg.Snapshot()
	}
	return o
}

// TestParkedFastPathEquivalence: a router that only holds packets until
// their logical arrival time leaves out output arbitration and, unless
// the beat wakes it, everything after the beat. Every observable must
// match a control pinned to the full tick, and the idle-cycle count must
// match a control that only never parks.
func TestParkedFastPathEquivalence(t *testing.T) {
	integrity := DefaultConfig()
	integrity.Integrity = true
	for _, tc := range []struct {
		name    string
		cfg     Config
		metrics bool
	}{
		{"metrics", DefaultConfig(), true},
		{"integrity", integrity, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast := runParkedScript(t, tc.cfg, tc.metrics, nil)
			full := runParkedScript(t, tc.cfg, tc.metrics, &idleBuster{})
			unparked := runParkedScript(t, tc.cfg, tc.metrics, &idleBuster{parkedOnly: true})

			if fast.parked[0] == 0 || fast.parked[1] == 0 {
				t.Errorf("parked path never engaged: %v parked ticks", fast.parked)
			}
			if fast.idle[0] == 0 || fast.idle[1] == 0 {
				t.Errorf("script never let the routers go idle: %v idle ticks", fast.idle)
			}
			if n := len(fast.deliveries[0]) + len(fast.deliveries[1]); n < 100 {
				t.Errorf("only %d deliveries: the script exercised nothing", n)
			}
			if fast.stats[0].TCDeadPortDrops == 0 || fast.overdue[0] == 0 {
				t.Errorf("script missed a case: %d dead-port drops, %d overdue selections",
					fast.stats[0].TCDeadPortDrops, fast.overdue[0])
			}
			if full.parked != [2]int64{} || full.idle != [2]int64{} || unparked.parked != [2]int64{} {
				t.Errorf("controls left the full tick: full parked %v idle %v, unparked parked %v",
					full.parked, full.idle, unparked.parked)
			}
			if fast.idle != unparked.idle {
				t.Errorf("idle ticks diverge from the never-parking control: %v vs %v", fast.idle, unparked.idle)
			}
			for _, ctl := range []struct {
				name string
				o    parkedObs
			}{{"full-tick", full}, {"never-parking", unparked}} {
				// The tick counts were judged above; everything else must be equal.
				ctl.o.idle, ctl.o.parked = fast.idle, fast.parked
				if !reflect.DeepEqual(fast, ctl.o) {
					t.Errorf("diverges from the %s control:\nfast: %+v\nctl:  %+v", ctl.name, fast, ctl.o)
				}
			}
		})
	}
}

// TestParkedWakesSameCycle: the cycle a parked router's beat selects a
// packet whose logical arrival time has come, the fetch launches in that
// same Tick — as on a router that never parks — so holding costs the
// packet no cycle.
func TestParkedWakesSameCycle(t *testing.T) {
	build := func() *rig {
		r := newRig(t, DefaultConfig())
		if err := r.a.SetConnection(1, 9, 10, maskOf(PortLocal)); err != nil {
			t.Fatal(err)
		}
		r.a.InjectTC(tcPkt(1, 30, 0x11)) // ℓ = slot 30 = cycle 600
		return r
	}
	fast, ctl := build(), build()
	ctl.k.Register(&idleBuster{rs: []*Router{ctl.a}})

	woke := false
	for c := 0; c < 700; c++ {
		before := fast.a.rest
		fast.k.Step()
		ctl.k.Step()
		fs, cs := fast.a.OutputState(PortLocal), ctl.a.OutputState(PortLocal)
		if fs != cs {
			t.Fatalf("cycle %d: reception port %+v, control %+v", c, fs, cs)
		}
		if fs.Fetching && !woke {
			woke = true
			if before != restParked {
				t.Errorf("cycle %d: fetch launched from rest state %d, want parked", c, before)
			}
			if c < 590 {
				t.Errorf("fetch launched at cycle %d, long before ℓ", c)
			}
		}
	}
	if !woke || fast.a.ParkedTicks() < 500 {
		t.Errorf("woke=%v after %d parked ticks", woke, fast.a.ParkedTicks())
	}
	if fast.a.Stats != ctl.a.Stats || fast.a.Stats.TCDelivered != 1 {
		t.Errorf("stats %+v, control %+v", fast.a.Stats, ctl.a.Stats)
	}
}

// TestBlameNeverParks: forensics attributes a horizon hold to every
// port-cycle a held packet waits, so a router with blame on must run the
// full tick while it holds one — the parked tick would lose exactly those
// cells — and switching blame on wakes a router that had parked.
func TestBlameNeverParks(t *testing.T) {
	build := func() *rig {
		r := newRig(t, DefaultConfig())
		if err := r.a.SetConnection(1, 9, 10, maskOf(PortLocal)); err != nil {
			t.Fatal(err)
		}
		r.a.EnableBlame()
		r.a.InjectTC(tcPkt(1, 30, 0x22))
		return r
	}
	cells := func(r *Router) map[BlameKey]int64 {
		m := map[BlameKey]int64{}
		r.ForEachBlame(func(k BlameKey, v int64) { m[k] = v })
		return m
	}
	free, ctl := build(), build()
	ctl.k.Register(&idleBuster{rs: []*Router{ctl.a}})
	free.k.Run(900)
	ctl.k.Run(900)
	if free.a.ParkedTicks() != 0 {
		t.Errorf("router with blame on spent %d ticks parked", free.a.ParkedTicks())
	}
	held := cells(free.a)[BlameKey{Port: PortLocal, Victim: 1, Cause: CauseHorizonHold}]
	if held < 500 {
		t.Errorf("horizon_hold cell = %d cycles, want the whole hold (> 500)", held)
	}
	if !reflect.DeepEqual(cells(free.a), cells(ctl.a)) {
		t.Errorf("blame cells diverge from the full-tick control:\n%v\n%v", cells(free.a), cells(ctl.a))
	}

	late := newRig(t, DefaultConfig())
	if err := late.a.SetConnection(1, 9, 10, maskOf(PortLocal)); err != nil {
		t.Fatal(err)
	}
	late.a.InjectTC(tcPkt(1, 30, 0x33))
	late.k.Run(200)
	if late.a.rest != restParked {
		t.Fatalf("rest state %d after 200 cycles, want parked", late.a.rest)
	}
	late.a.EnableBlame()
	parked := late.a.ParkedTicks()
	late.k.Run(200)
	if late.a.ParkedTicks() != parked {
		t.Errorf("router parked for %d more ticks after EnableBlame", late.a.ParkedTicks()-parked)
	}
}
