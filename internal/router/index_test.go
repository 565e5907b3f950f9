package router

import (
	"math/bits"
	"testing"

	"repro/internal/packet"
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
	staged, cand, dropping, owed, unparsed uint8
}

func flagsOf(r *Router) (f portFlags) {
	for p := 0; p < NumPorts; p++ {
		if r.tcIn[p].nPending > 0 {
			f.staged |= 1 << p
		}
		if r.tcOut[p].candValid {
			f.cand |= 1 << p
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
	if r.tcStaged != f.staged || r.tcCand != f.cand || r.beDropping != f.dropping {
		t.Fatalf("router %s cycle %d: tcStaged %05b tcCand %05b beDropping %05b, flags say %05b %05b %05b",
			r.name, cycle, r.tcStaged, r.tcCand, r.beDropping, f.staged, f.cand, f.dropping)
	}
	if f.owed&^r.beOwed != 0 || f.unparsed&^r.beUnparsed != 0 {
		t.Fatalf("router %s cycle %d: beOwed %05b beUnparsed %05b do not cover the flags %05b %05b",
			r.name, cycle, r.beOwed, r.beUnparsed, f.owed, f.unparsed)
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
// equals wActive / fetching per engine, and the five port masks agree
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
	case seen.staged == 0 || seen.cand == 0 || seen.dropping == 0 || seen.owed == 0:
		t.Errorf("a port mask never held a bit between cycles: %+v", seen)
	}
}
