package router

import (
	"math/bits"
	"testing"

	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/sim"
)

// bindScan is the modulo round-robin scan beOutput.bind ran before the
// router kept a waiting-input mask: the input it would bind, or -1.
func bindScan(b *beOutput) int {
	n := len(b.r.beIn)
	for i := 0; i < n; i++ {
		idx := (b.rr + i) % n
		u := b.r.beIn[idx]
		if u.parsed && !u.bound && !u.dropping && u.outPort == b.port {
			return idx
		}
	}
	return -1
}

// TestBindMatchesModuloScan compares bind with the scan it replaced over
// every round-robin pointer and every set of waiting inputs. Inputs
// outside the set cycle through the three ways of not waiting here.
func TestBindMatchesModuloScan(t *testing.T) {
	const q = PortYPlus
	for rr := 0; rr <= NumPorts; rr++ {
		for set := 0; set < 1<<NumPorts; set++ {
			r := MustNew("A", DefaultConfig())
			for i, u := range r.beIn {
				u.parsed, u.outPort = true, q
				if set&(1<<i) != 0 {
					continue
				}
				switch i % 3 {
				case 0:
					u.bound = true
				case 1:
					u.dropping = true
				default:
					u.outPort = PortLocal
				}
			}
			r.beWaiting[q] = uint8(set)
			b := r.beOut[q]
			b.rr = rr
			want := bindScan(b)
			b.bind()
			if b.curIn != want {
				t.Fatalf("rr %d set %05b: bound input %d, scan %d", rr, set, b.curIn, want)
			}
			if want < 0 {
				if b.rr != rr || r.beWaiting[q] != uint8(set) {
					t.Fatalf("rr %d set %05b: empty bind moved rr to %d, mask to %05b", rr, set, b.rr, r.beWaiting[q])
				}
				continue
			}
			if b.rr != want+1 || !r.beIn[want].bound || r.beWaiting[q] != uint8(set)&^(1<<want) {
				t.Fatalf("rr %d set %05b: after binding %d: rr %d bound %v mask %05b",
					rr, set, want, b.rr, r.beIn[want].bound, r.beWaiting[q])
			}
			// A bound port binds nothing more.
			b.bind()
			if b.curIn != want || r.beWaiting[q] != uint8(set)&^(1<<want) {
				t.Fatalf("rr %d set %05b: second bind changed state", rr, set)
			}
		}
	}
}

type grantRecorder struct {
	id      int
	granted *[]int
}

func (g grantRecorder) busGrant() { *g.granted = append(*g.granted, g.id) }

// TestBusTickMatchesModuloScan compares memBus.tick with the modulo scan
// over wantsBus it replaced, over every round-robin pointer and every
// set of requesting engines.
func TestBusTickMatchesModuloScan(t *testing.T) {
	const n = 2 * NumPorts
	for rr := 0; rr <= n; rr++ {
		for want := uint32(0); want < 1<<n; want++ {
			var granted []int
			var bus memBus
			for i := 0; i < n; i++ {
				if line := bus.attach(grantRecorder{i, &granted}); line != 1<<i {
					t.Fatalf("client %d got request line %#x", i, line)
				}
			}
			bus.request(want)
			bus.rr = rr
			scan := -1
			for i := 0; i < n; i++ {
				if idx := (rr + i) % n; want&(1<<idx) != 0 {
					scan = idx
					break
				}
			}
			bus.tick()
			if scan < 0 {
				if len(granted) != 0 || bus.rr != rr || bus.grants != 0 {
					t.Fatalf("rr %d want %010b: idle bus granted %v, rr %d, grants %d", rr, want, granted, bus.rr, bus.grants)
				}
				continue
			}
			if len(granted) != 1 || granted[0] != scan || bus.rr != scan+1 || bus.grants != 1 {
				t.Fatalf("rr %d want %010b: granted %v (scan %d), rr %d, grants %d", rr, want, granted, scan, bus.rr, bus.grants)
			}
		}
	}
}

// portFlags is what the engine flags say each port mask of a router
// should hold (see the field comments in router.go).
type portFlags struct {
	staged, cand, dropping, owed, unparsed, work, dead uint8
	asm, tx, outStaged, cut                            uint8
}

func flagsOf(r *Router) (f portFlags) {
	for p := 0; p < NumPorts; p++ {
		if r.tcIn[p].nPending > 0 {
			f.staged |= 1 << p
		}
		if r.tcIn[p].nAsm > 0 {
			f.asm |= 1 << p
		}
		if r.tcOut[p].candValid {
			f.cand |= 1 << p
		}
		if r.tcOut[p].txActive {
			f.tx |= 1 << p
		}
		if r.tcOut[p].staged {
			f.outStaged |= 1 << p
		}
		if r.tcOut[p].cutIn != nil {
			f.cut |= 1 << p
		}
		u := r.beIn[p]
		if u.dropping {
			f.dropping |= 1 << p
		}
		if p < NumLinks && (u.consumed > 0 || u.nackPending) {
			f.owed |= 1 << p
		}
		if !u.parsed && u.occ() >= packet.BEHeaderBytes {
			f.unparsed |= 1 << p
		}
		o, be := r.tcOut[p], r.beOut[p]
		if o.txActive || o.staged || o.cutIn != nil || be.curIn >= 0 || r.beWaiting[p] != 0 ||
			be.abortPending || be.replayHead < len(be.replay) || be.wasStalled {
			f.work |= 1 << p
		}
		if p < NumLinks && r.out[p] == nil {
			f.dead |= 1 << p
		}
	}
	return f
}

// checkIndexes fails unless every occupancy index of r agrees with the
// engine flags it summarizes: the waiting-input masks, the bus request
// mask and the exact port masks equal them, the one-sided port masks
// cover them.
func checkIndexes(t *testing.T, r *Router, cycle int64) {
	t.Helper()
	f := flagsOf(r)
	if r.tcStaged != f.staged || r.tcCand != f.cand || r.beDropping != f.dropping || r.portDead != f.dead {
		t.Fatalf("router %s cycle %d: tcStaged %05b tcCand %05b beDropping %05b portDead %05b, flags say %05b %05b %05b %05b",
			r.name, cycle, r.tcStaged, r.tcCand, r.beDropping, r.portDead, f.staged, f.cand, f.dropping, f.dead)
	}
	if r.tcAsm != f.asm || r.tcTx != f.tx || r.tcOutStaged != f.outStaged || r.tcCut != f.cut {
		t.Fatalf("router %s cycle %d: tcAsm %05b tcTx %05b tcOutStaged %05b tcCut %05b, flags say %05b %05b %05b %05b",
			r.name, cycle, r.tcAsm, r.tcTx, r.tcOutStaged, r.tcCut, f.asm, f.tx, f.outStaged, f.cut)
	}
	if f.owed&^r.beOwed != 0 || f.unparsed&^r.beUnparsed != 0 || f.work&^(r.portWork|r.stallSleep) != 0 {
		t.Fatalf("router %s cycle %d: beOwed %05b beUnparsed %05b portWork|stallSleep %05b do not cover the flags %05b %05b %05b",
			r.name, cycle, r.beOwed, r.beUnparsed, r.portWork|r.stallSleep, f.owed, f.unparsed, f.work)
	}
	// A port asleep and not yet woken is in exactly the state it fell
	// asleep in: nothing but a credit stall.
	for m := r.stallSleep &^ r.portWork; m != 0; m &= m - 1 {
		p := bits.TrailingZeros8(m)
		o, be := r.tcOut[p], r.beOut[p]
		if !be.wasStalled || be.credits > 0 || be.curIn < 0 || !r.beIn[be.curIn].hasByte() ||
			o.txActive || o.staged || o.cutIn != nil || r.beWaiting[p] != 0 ||
			be.abortPending || be.replayHead < len(be.replay) || r.out[p] == nil {
			t.Fatalf("router %s cycle %d: port %d sleeps unwoken outside a credit stall: stalled %v credits %d bound %d "+
				"tx %v staged %v cut %v waiting %05b abort %v replay %d dead %v",
				r.name, cycle, p, be.wasStalled, be.credits, be.curIn, o.txActive, o.staged, o.cutIn != nil,
				r.beWaiting[p], be.abortPending, len(be.replay)-be.replayHead, r.out[p] == nil)
		}
	}
	if n := r.beIn[PortLocal].consumed; n != 0 {
		t.Fatalf("router %s cycle %d: the injection port counts %d credits owed", r.name, cycle, n)
	}
	for q := 0; q < NumPorts; q++ {
		var want uint8
		for i, u := range r.beIn {
			if u.parsed && !u.bound && !u.dropping && u.outPort == q {
				want |= 1 << i
			}
		}
		if r.beWaiting[q] != want {
			t.Fatalf("router %s cycle %d: beWaiting[%d] = %05b, flags say %05b", r.name, cycle, q, r.beWaiting[q], want)
		}
	}
	var want uint32
	for i := 0; i < NumPorts; i++ {
		if r.tcIn[i].wActive {
			want |= r.tcIn[i].busLine
		}
		if r.tcOut[i].fetching {
			want |= r.tcOut[i].busLine
		}
	}
	if r.bus.want != want {
		t.Fatalf("router %s cycle %d: bus.want = %010b, flags say %010b", r.name, cycle, r.bus.want, want)
	}
}

// TestIndexesTrackEngineFlags runs a contended pair of routers with link
// integrity on and checks after every cycle that the waiting-input masks
// equal parsed && !bound && !dropping per input, the bus request mask
// equals wActive / fetching per engine, and the port masks agree
// with the flags they stand for. B's reception port is fought
// over by three inputs (the link from A, a loopback of B's own +y
// output, and B's injection port); the run takes in a misrouted frame, a
// frame aborted after its retry budget (a fault hook garbles the A→B
// wire for a while), time-constrained traffic across the link, and a
// link cut at a cycle when B's link input holds a parsed header still
// waiting for the reception port.
func TestIndexesTrackEngineFlags(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Integrity = true
	cfg.BERetryLimit = 2
	r := newPairRig(t, cfg)
	a, b := r.a, r.b
	Loopback(r.k, b, PortYPlus, PortYMinus)
	if err := a.SetConnection(1, 2, 5, maskOf(PortXPlus)); err != nil {
		t.Fatal(err)
	}
	if err := b.SetConnection(2, 7, 5, maskOf(PortLocal)); err != nil {
		t.Fatal(err)
	}
	const garbleFrom, garbleTo, cutAfter = 1500, 2100, 3000
	b.LinkFault = func(port int, ph packet.Phit) (packet.Phit, bool) {
		if now := b.nowCycle; port == PortXMinus && ph.VC == packet.VCBest && now >= garbleFrom && now < garbleTo {
			ph.Data ^= 0x5a
		}
		return ph, true
	}
	be := func(rt *Router, xoff, yoff, n int) { topUpBE(t, rt, xoff, yoff, n) }
	var maxWaiters int
	var cutAt int64 = -1
	var seen portFlags // every mask bit either router ever showed between cycles
	for c := int64(0); c < 6000; c++ {
		if cutAt < 0 {
			be(a, 1, 0, 60) // A → B's reception port
		}
		switch c % 3 {
		case 0:
			be(b, 0, 1, 48) // B → loopback → B's reception port
		case 1:
			be(b, 0, 0, 32) // B's injection port → B's reception port
		}
		if c%400 == 0 {
			be(b, 1, 0, 24) // no +x neighbour at B: misroute
		}
		if c%(2*packet.TCBytes) == 0 && cutAt < 0 {
			a.InjectTC(tcPkt(1, uint8(c/packet.TCBytes), byte(c)))
		}
		r.k.Step()
		a.DrainBE()
		b.DrainBE()
		b.DrainTC()
		checkIndexes(t, a, c)
		checkIndexes(t, b, c)
		for _, x := range []*Router{a, b} {
			seen.staged |= x.tcStaged
			seen.cand |= x.tcCand
			seen.dropping |= x.beDropping
			seen.owed |= x.beOwed
			seen.work |= x.portWork
			seen.asm |= x.tcAsm
			seen.tx |= x.tcTx
			seen.outStaged |= x.tcOutStaged
		}
		if n := bits.OnesCount8(b.beWaiting[PortLocal]); n > maxWaiters {
			maxWaiters = n
		}
		if cutAt < 0 && c >= cutAfter && b.beWaiting[PortLocal]&(1<<PortXMinus) != 0 {
			// Both ends lose the wire: A's output drains dead, B's input
			// truncates a frame that is still in the waiting mask.
			a.ConnectOut(PortXPlus, nil)
			b.ConnectIn(PortXMinus, nil)
			cutAt = c
		}
	}
	switch {
	case maxWaiters < 2:
		t.Errorf("at most %d inputs ever waited for B's reception port: no contention", maxWaiters)
	case b.Stats.BEMisroutes == 0:
		t.Error("no misrouted frame")
	case a.Stats.BEFrameAborts == 0:
		t.Error("no frame aborted on the garbled link")
	case cutAt < 0:
		t.Error("the link was never cut with a waiting header at B")
	case a.Stats.BETruncated == 0:
		t.Error("A never drained a worm into the dead port")
	case b.Stats.TCDelivered == 0 || a.Stats.BusGrants == 0:
		t.Error("no time-constrained traffic crossed the memory bus")
	case b.Stats.BEDelivered == 0:
		t.Error("no best-effort frame delivered")
	case b.Stats.BEFlitNacks == 0:
		t.Error("no flit nacked on the garbled link")
	case seen.staged == 0 || seen.cand == 0 || seen.dropping == 0 || seen.owed == 0 || seen.work == 0 ||
		seen.asm == 0 || seen.tx == 0 || seen.outStaged == 0:
		t.Errorf("a port mask never held a bit between cycles: %+v", seen)
	}
}

// TestIndexesTrackCutThroughLinkCut cuts a link while a cut-through
// stream crosses it and checks every index after every cycle and right
// after the cut. A's injection port cuts the packet through onto the
// A→B link, and B cuts it through from its −x input onto its +y output,
// looped back into its −y input. Cutting A→B mid-stream leaves B's +y
// output a short stream whose next phit is the abort (emitCut's cutShort
// path) and makes A abandon its own stream; cutting B's loopback
// mid-stream makes B abandon its output's stream. The cut falls at every
// offset from the cycle B's stream starts, and each run must end with
// both routers back at rest.
func TestIndexesTrackCutThroughLinkCut(t *testing.T) {
	var short, abandoned int
	for _, lat := range []int64{1, 4} {
		for _, outCut := range []bool{false, true} {
			for off := int64(0); off < packet.TCBytes+2; off++ {
				cfg := DefaultConfig()
				cfg.VCT, cfg.LinkLatency = true, int(lat)
				k := sim.NewKernel()
				a, b := MustNew("A", cfg), MustNew("B", cfg)
				k.Register(a)
				k.Register(b)
				ab := NewChannelShards(k, lat, -1, -1)
				a.ConnectOut(PortXPlus, ab.Out())
				b.ConnectIn(PortXMinus, ab.In())
				loop := NewChannelShards(k, lat, -1, -1)
				b.ConnectOut(PortYPlus, loop.Out())
				b.ConnectIn(PortYMinus, loop.In())
				for _, s := range []struct {
					at         *Router
					in, out, d uint8
					mask       sched.PortMask
				}{{a, 1, 2, 5, maskOf(PortXPlus)}, {b, 2, 3, 5, maskOf(PortYPlus)}, {b, 3, 4, 5, maskOf(PortLocal)}} {
					if err := s.at.SetConnection(s.in, s.out, s.d, s.mask); err != nil {
						t.Fatal(err)
					}
				}
				k.Run(200)
				// Stamped a delay behind the clock, the packet is on time at
				// A and at B: both cut it through.
				a.InjectTC(tcPkt(1, uint8(k.Now()/packet.TCBytes)-5, 0x5c))
				o := b.tcOut[PortYPlus]
				cutAt := int64(-1)
				for c := int64(k.Now()); c < 1500; c++ {
					k.Step()
					b.DrainTC()
					checkIndexes(t, a, c)
					checkIndexes(t, b, c)
					if cutAt < 0 && o.cutIn != nil && o.cutIdx > 0 {
						cutAt = c + off
					}
					if c != cutAt {
						continue
					}
					streaming := o.cutIn != nil
					if outCut {
						b.ConnectOut(PortYPlus, nil)
						b.ConnectIn(PortYMinus, nil)
						if streaming {
							abandoned++
						}
					} else {
						a.ConnectOut(PortXPlus, nil)
						b.ConnectIn(PortXMinus, nil)
						if o.cutShort {
							short++
						}
					}
					checkIndexes(t, a, c)
					checkIndexes(t, b, c)
				}
				switch {
				case cutAt < 0 || b.Stats.TCCutThroughs == 0:
					t.Fatalf("latency %d offset %d: B never cut the packet through: %+v", lat, off, b.Stats)
				case a.rest == restBusy || b.rest == restBusy:
					t.Errorf("latency %d offset %d output cut %v: rest states %d/%d after the cut, want at rest",
						lat, off, outCut, a.rest, b.rest)
				}
			}
		}
	}
	if short == 0 || abandoned == 0 {
		t.Errorf("%d cuts left B's stream short, %d abandoned it: a path was never taken", short, abandoned)
	}
}
