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
// state existed, whose IdleTicks the parked path must not disturb. With
// sleepless it leaves the rest state alone and forgets every quiet span
// instead: a router that parks but never sleeps, whose every beat is a
// real Select.
type idleBuster struct {
	rs                    []*Router
	parkedOnly, sleepless bool
}

func (b *idleBuster) Name() string { return "idle-buster" }
func (b *idleBuster) Tick(sim.Cycle) {
	for _, r := range b.rs {
		switch {
		case b.sleepless:
			r.forgetQuiet(sched.AllPortsMask(NumPorts))
		case !b.parkedOnly || r.rest == restParked:
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

// foldEach folds its routers' metrics after every cycle, so each tick,
// busy or resting, is a fold span of its own, and folds what the beat
// samples — the beat count, the leaf level and its peak — into a running
// digest, so a closed-form beat that sampled differently shows even where
// the final gauges agree.
type foldEach struct {
	rs     []*Router
	digest uint64
}

func (f *foldEach) Name() string { return "fold-each" }

func (f *foldEach) Tick(sim.Cycle) {
	for _, r := range f.rs {
		r.FoldMetrics()
		for _, v := range []int64{r.beats, r.schedLevel, r.schedPeak} {
			f.digest = f.digest*1099511628211 ^ uint64(v)
		}
	}
}

// parkedObs is everything the parked differential compares.
type parkedObs struct {
	deliveries       [2][]DeliveredTC
	stats            [2]Stats
	selects, overdue [2]int64
	highWater        [2]int
	snap             metrics.Snapshot
	beatDigest       uint64
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
// the reverse direction — held leaves on all five of A's ports, with
// horizons of 4 and 9 slots on two of them, so quiet spans end at the
// horizon and not only at ℓ. bust is registered after the routers, if
// set.
func runParkedScript(t *testing.T, cfg Config, withMetrics bool, bust *idleBuster) parkedObs {
	t.Helper()
	return runParkedScriptOn(t, newPairRig(t, cfg), withMetrics, bust)
}

// runParkedScriptOn plays the script on a given pair rig.
func runParkedScriptOn(t *testing.T, r *rig, withMetrics bool, bust *idleBuster) parkedObs {
	t.Helper()
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
		{0, 13, 14, 6, maskOf(PortYMinus, PortXMinus)},
	}
	for _, c := range conns {
		if err := rs[c.at].SetConnection(c.in, c.out, c.d, c.mask); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.a.SetHorizon(maskOf(PortXPlus), 4); err != nil {
		t.Fatal(err)
	}
	if err := r.a.SetHorizon(maskOf(PortLocal), 9); err != nil {
		t.Fatal(err)
	}
	injectA, injectB := []uint8{1, 4, 6, 10, 13}, []uint8{3, 11}
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
	fold := &foldEach{rs: rs[:]}
	if withMetrics {
		r.k.Register(fold)
	}

	var o parkedObs
	rng := rand.New(rand.NewSource(7))
	next, reset := int64(0), false
	for r.k.Now() < 16000 {
		now := int64(r.k.Now())
		if now >= 8000 && !reset {
			// Mid-script warm-up exclusion: a router resting across it
			// must sample its leaf level into the fresh high-water mark.
			reset = true
			r.a.ResetStats()
			r.b.ResetStats()
		}
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
		o.highWater[i] = x.SchedHighWater()
		o.idle[i], o.parked[i] = x.IdleTicks(), x.ParkedTicks()
	}
	if reg != nil {
		o.snap = reg.Snapshot()
	}
	o.beatDigest = fold.digest
	return o
}

// TestParkedFastPathEquivalence: a router that only holds packets until
// their logical arrival time leaves out output arbitration and, unless
// the beat wakes it, everything after the beat; a beat on a port inside
// its quiet span is closed-form. Every observable must match a control
// pinned to the full tick, the idle-cycle count a control that only never
// parks, and everything — Selects, Overdue, SchedHighWater, IdleTicks and
// ParkedTicks included — a control that parks but never sleeps.
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
			sleepless := runParkedScript(t, tc.cfg, tc.metrics, &idleBuster{sleepless: true})

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
			}{{"full-tick", full}, {"never-parking", unparked}, {"never-sleeping", sleepless}} {
				// The tick counts of the first two were judged above;
				// everything else must be equal.
				if ctl.name != "never-sleeping" {
					ctl.o.idle, ctl.o.parked = fast.idle, fast.parked
				}
				if !reflect.DeepEqual(fast, ctl.o) {
					t.Errorf("diverges from the %s control:\nfast: %+v\nctl:  %+v", ctl.name, fast, ctl.o)
				}
			}
		})
	}
}

// newShardedPairRig is newPairRig with each router in a shard of its own
// and the wires' endpoints known: no barrier, so the kernel's wake list
// puts resting routers to sleep.
func newShardedPairRig(cfg Config) *rig {
	k := sim.NewKernel()
	r := &rig{k: k, a: MustNew("A", cfg), b: MustNew("B", cfg)}
	k.RegisterShard(0, r.a)
	k.RegisterShard(1, r.b)
	ab := NewChannelShards(k, 1, 0, 1)
	r.a.ConnectOut(PortXPlus, ab.Out())
	r.b.ConnectIn(PortXMinus, ab.In())
	ba := NewChannelShards(k, 1, 1, 0)
	r.b.ConnectOut(PortXMinus, ba.Out())
	r.a.ConnectIn(PortXPlus, ba.In())
	return r
}

// TestParkedSleepsOnWakeList: on the kernel's wake list a resting router
// is not ticked at all — idle until a wire or an injection wakes it,
// parked until its first beat on a port whose quiet span has ended
// (liveBeat) — and Skip replays what it slept through, the parked beats
// included. The parked script, with its mid-run ResetStats and its
// injections into sleeping routers, must then read exactly as on the
// kernel that ticks both routers every cycle, rest-tick counts and all,
// while the routers sleep through most of their cycles.
func TestParkedSleepsOnWakeList(t *testing.T) {
	integrity := DefaultConfig()
	integrity.Integrity = true
	for _, cfg := range []Config{DefaultConfig(), integrity} {
		every := runParkedScript(t, cfg, false, nil)
		r := newShardedPairRig(cfg)
		asleep := runParkedScriptOn(t, r, false, nil)
		if !reflect.DeepEqual(asleep, every) {
			t.Errorf("integrity %v: the wake list diverges from the every-cycle kernel:\nasleep: %+v\nevery:  %+v",
				cfg.Integrity, asleep, every)
		}
		ticked, slept := r.k.Activity(nil)
		if slept < 2*ticked {
			t.Errorf("integrity %v: the routers slept %d of %d cycles", cfg.Integrity, slept, ticked+slept)
		}
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

// TestHorizonWriteWakesParked: widening a parked router's horizon in the
// middle of a hold makes its held packet eligible at once. The router is
// asleep then — parked, its reception port quiet until ℓ, every beat
// closed-form — so the control write must end the rest state and forget the quiet
// spans: the packet must start on the very cycle it starts on a router
// pinned to the full tick, not at ℓ. A connection-table write, which no
// Select reads, leaves a sleeping router asleep and in step.
func TestHorizonWriteWakesParked(t *testing.T) {
	build := func() *rig {
		r := newRig(t, DefaultConfig())
		if err := r.a.SetConnection(1, 9, 10, maskOf(PortLocal)); err != nil {
			t.Fatal(err)
		}
		r.a.InjectTC(tcPkt(1, 100, 0x55)) // ℓ = slot 100 = cycle 2000
		return r
	}
	fast, ctl := build(), build()
	ctl.k.Register(&idleBuster{rs: []*Router{ctl.a}})
	fast.k.Run(400)
	ctl.k.Run(400)
	if fast.a.rest != restParked {
		t.Fatalf("rest state %d: the router is not parked", fast.a.rest)
	}
	if q, now := fast.a.quiet[PortLocal], fast.a.absSlot(400); q <= now+50 {
		t.Fatalf("reception port quiet until slot %d at slot %d, want a span reaching ℓ", q, now)
	}
	for _, r := range []*Router{fast.a, ctl.a} {
		if err := r.SetHorizon(maskOf(PortLocal), 90); err != nil { // ℓ is 80 slots off
			t.Fatal(err)
		}
	}
	started := int64(-1)
	for c := int64(400); c < 700; c++ {
		fast.k.Run(1)
		ctl.k.Run(1)
		fs, cs := fast.a.OutputState(PortLocal), ctl.a.OutputState(PortLocal)
		if fs != cs {
			t.Fatalf("cycle %d: reception port %+v, control %+v", c, fs, cs)
		}
		if fs.TxActive && started < 0 {
			started = c
		}
	}
	if started < 0 || started > 450 {
		t.Errorf("held packet started at cycle %d after the horizon write at 400, want within a beat round", started)
	}
	if fast.a.Stats != ctl.a.Stats || fast.a.Stats.TCDelivered != 1 {
		t.Errorf("stats %+v, control %+v", fast.a.Stats, ctl.a.Stats)
	}

	// A connection-table write feeds only the installs of later arrivals,
	// which end their ports' spans themselves: the router sleeps on, in
	// step with the control.
	for _, r := range []*rig{fast, ctl} {
		r.a.InjectTC(tcPkt(1, 155, 0x56)) // ℓ = slot 155: 120 slots off, 30 past the horizon
		r.k.Run(300)
	}
	quiet := fast.a.quiet[PortLocal]
	if fast.a.rest != restParked || quiet <= fast.a.absSlot(1000)+10 {
		t.Fatalf("rest state %d, reception port quiet until slot %d: the second hold is not asleep", fast.a.rest, quiet)
	}
	for _, r := range []*Router{fast.a, ctl.a} {
		if err := r.SetConnection(1, 9, 12, maskOf(PortLocal)); err != nil {
			t.Fatal(err)
		}
	}
	if fast.a.rest != restParked || fast.a.quiet[PortLocal] != quiet {
		t.Errorf("a connection write woke the router: rest state %d, span %d → %d",
			fast.a.rest, quiet, fast.a.quiet[PortLocal])
	}
	for c := 1000; c < 1800; c++ {
		fast.k.Run(1)
		ctl.k.Run(1)
		if fs, cs := fast.a.OutputState(PortLocal), ctl.a.OutputState(PortLocal); fs != cs {
			t.Fatalf("cycle %d: reception port %+v, control %+v", c, fs, cs)
		}
	}
	if fast.a.Stats != ctl.a.Stats || fast.a.Stats.TCDelivered != 2 {
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

// TestFoldedRegistryMatchesStats: folded after every cycle, the
// registry agrees with every counter Stats keeps for the same events.
func TestFoldedRegistryMatchesStats(t *testing.T) {
	o := runParkedScript(t, DefaultConfig(), true, nil)
	for i, rs := range o.snap.Routers {
		st := o.stats[i]
		if rs.TCEnqueued != st.TCArrived || rs.TCDelivered != st.TCDelivered ||
			rs.DeadlineMisses != st.TCDeadlineMisses || rs.Drops["tc_dead_port"] != st.TCDeadPortDrops {
			t.Errorf("router %s: registry enqueued/delivered/missed/dead-port %d/%d/%d/%d, Stats %d/%d/%d/%d",
				rs.Router, rs.TCEnqueued, rs.TCDelivered, rs.DeadlineMisses, rs.Drops["tc_dead_port"],
				st.TCArrived, st.TCDelivered, st.TCDeadlineMisses, st.TCDeadPortDrops)
		}
		for p := 0; p < NumPorts; p++ {
			w := rs.ArbWins[PortName(p)]
			if w["on_time"]+w["early"] != st.TCTransmitted[p] || w["best_effort"] != st.BEBytes[p] {
				t.Errorf("router %s port %s: wins %v, Stats %d transmitted, %d best-effort bytes",
					rs.Router, PortName(p), w, st.TCTransmitted[p], st.BEBytes[p])
			}
		}
	}
	if len(o.snap.Routers) != 2 || o.snap.Totals.TCEnqueued == 0 {
		t.Fatalf("degenerate run: %d routers, %d enqueued", len(o.snap.Routers), o.snap.Totals.TCEnqueued)
	}
}
