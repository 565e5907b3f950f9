package router

import (
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// FuzzStampRow holds rowHit, the stamp row's one compare, to the per-wire
// scan it stands for: for any eight lanes and any cycle, rowHit reports a
// match exactly when some lane equals the cycle's low 16 bits. The row
// starts as the fuzzer's bytes; lanes in hits are then set to the cycle's
// low bits — what an arrival leaves, or a stamp 65536·k cycles stale —
// and lanes in near to one of the values a lane test could confuse with
// them, by lane number modulo four: one more, one less (a borrow across
// lanes), the sign bit flipped, or zero.
//
//	go test -fuzz=FuzzStampRow -fuzztime=20s -run '^$' ./internal/router/
func FuzzStampRow(f *testing.F) {
	f.Add([]byte{}, int64(0), uint8(0), uint8(0))            // zero row at cycle 0: every lane matches
	f.Add([]byte{}, int64(1<<16), uint8(0), uint8(0))        // the same row 65536 cycles on
	f.Add([]byte{}, int64(5), uint8(0), uint8(0xff))         // every lane a near miss
	f.Add([]byte{}, int64(0x8001), uint8(1<<7), uint8(0x7f)) // the top lane alone, near misses below
	f.Add([]byte{}, int64(0x10000), uint8(1), uint8(0xfe))   // the bottom lane alone at a wrap
	f.Add([]byte{}, int64(0xffff), uint8(1<<4), uint8(0xef)) // the first lane of the high word
	f.Add([]byte{}, int64(0x7fff), uint8(1<<3), uint8(0xf7)) // the last lane of the low word
	f.Fuzz(func(t *testing.T, seed []byte, now int64, hits, near uint8) {
		var row [stampRow]byte
		copy(row[:], seed)
		c := uint16(now)
		for w := 0; w < numWires; w++ {
			switch {
			case hits&(1<<w) != 0:
				binary.LittleEndian.PutUint16(row[2*w:], c)
			case near&(1<<w) != 0:
				v := [...]uint16{c + 1, c - 1, c ^ 0x8000, 0}[w%4]
				if v == c {
					v++
				}
				binary.LittleEndian.PutUint16(row[2*w:], v)
			}
		}
		want := false
		for w := 0; w < numWires; w++ {
			want = want || laneStamp(&row, w) == c
		}
		if got := rowHit(&row, now); got != want {
			t.Fatalf("cycle %d (%#04x) row %x: rowHit %v, the lanes say %v", now, c, row, got, want)
		}
	})
}

// TestStampRowsMixedLatency: a router whose links differ in latency keeps
// one stamp row per cycle over as many rows as its deepest ring has
// slots. A and B are joined by a 1-cycle link and a 4-cycle link, one
// channel each way, the second attached mid-run while the first carries
// traffic both ways: short link first, so the rows grow from two to eight
// and are laid out again with stamps in flight, and long link first, so
// they are laid out again at the same size. The rigs under Tick and
// under the full-scan oracle must agree after every cycle.
func TestStampRowsMixedLatency(t *testing.T) {
	for _, tc := range []struct {
		name          string
		first, second int64
	}{{"short_first", 1, 4}, {"long_first", 4, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			prod, orac := newMixedRig(t, false), newMixedRig(t, true)
			for c := int64(0); c < 3000; c++ {
				prod.script(c, tc.first, tc.second)
				orac.script(c, tc.first, tc.second)
				prod.k.Step()
				orac.k.Step()
				for _, pair := range [][2]*Router{{prod.a, orac.a}, {prod.b, orac.b}} {
					if got, want := observe(pair[0]), observe(pair[1]); !reflect.DeepEqual(got, want) {
						t.Fatalf("cycle %d router %s:\nTick:      %+v\nfull scan: %+v", c, pair[0].name, got, want)
					}
					checkIndexes(t, pair[0], c)
				}
			}
			for _, x := range []*Router{prod.a, prod.b} {
				if n := len(x.stamps) / stampRow; n != 8 {
					t.Errorf("router %s keeps %d stamp rows, want 8", x.name, n)
				}
			}
			a, b := prod.a, prod.b
			if b.Stats.TCDelivered < 20 || a.Stats.TCDelivered < 10 || b.Stats.BEDelivered < 20 || a.Stats.BEDelivered < 20 {
				t.Errorf("too little traffic: A delivered %d tc %d be, B %d tc %d be",
					a.Stats.TCDelivered, a.Stats.BEDelivered, b.Stats.TCDelivered, b.Stats.BEDelivered)
			}
		})
	}
}

// mixedRig is A and B joined along x by the first link and along y by
// the second (script attaches them), with connections 1 → 2 over x and
// 3 → 4 over y from A to B, and 5 → 6 over x back.
type mixedRig struct {
	t    *testing.T
	k    *sim.Kernel
	a, b *Router
}

func newMixedRig(t *testing.T, oracle bool) *mixedRig {
	r := &mixedRig{t: t, k: sim.NewKernel(), a: MustNew("A", DefaultConfig()), b: MustNew("B", DefaultConfig())}
	for _, x := range []*Router{r.a, r.b} {
		if oracle {
			r.k.Register(fullScan{x})
		} else {
			r.k.Register(x)
		}
	}
	for _, s := range []struct {
		at         *Router
		in, out, d uint8
		port       int
	}{
		{r.a, 1, 2, 5, PortXPlus}, {r.b, 2, 7, 5, PortLocal},
		{r.a, 3, 4, 5, PortYPlus}, {r.b, 4, 8, 5, PortLocal},
		{r.b, 5, 6, 5, PortXMinus}, {r.a, 6, 9, 5, PortLocal},
	} {
		if err := s.at.SetConnection(s.in, s.out, s.d, maskOf(s.port)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// link joins A and B along one axis, a channel each way.
func (r *mixedRig) link(lat int64, aOut, bIn int) {
	ab, ba := NewChannelShards(r.k, lat, -1, -1), NewChannelShards(r.k, lat, -1, -1)
	r.a.ConnectOut(aOut, ab.Out())
	r.b.ConnectIn(bIn, ab.In())
	r.b.ConnectOut(bIn, ba.Out())
	r.a.ConnectIn(aOut, ba.In())
}

const mixedSecondAt = 700 // the second link is attached before this cycle

func (r *mixedRig) script(c, first, second int64) {
	switch c {
	case 0:
		r.link(first, PortXPlus, PortXMinus)
	case mixedSecondAt:
		r.link(second, PortYPlus, PortYMinus)
	}
	be := func(rt *Router, xoff, yoff, n int) { topUpBE(r.t, rt, xoff, yoff, n) }
	if c%3 == 0 {
		be(r.a, 1, 0, 30)
		be(r.b, -1, 0, 24)
	}
	slot := uint8(c / packet.TCBytes)
	switch c % (4 * packet.TCBytes) {
	case 0:
		r.a.InjectTC(tcPkt(1, slot+uint8(c/100%4), byte(c)))
	case 31:
		r.b.InjectTC(tcPkt(5, slot, byte(c)))
	}
	if c < mixedSecondAt {
		return
	}
	if c%3 == 1 {
		be(r.a, 0, 1, 18)
	}
	if c%(4*packet.TCBytes) == 57 {
		r.a.InjectTC(tcPkt(3, slot+2, byte(c)))
	}
}
