package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// TestPipeMirrorStampRows pins the strided mirror: a mirrored pipe
// stores the low 16 bits of each arrival stamp in its own lane of the row
// its arrival cycle maps to and touches no other byte; MirrorStamps
// copies in the stamps already in flight; nil rows take the mirror away;
// and rows fewer than the ring or not a power of two, a lane outside the
// stride and a block too short for its rows all panic. Latencies 1, 3
// and 4 cover a ring of two, one of eight with slots never written, and
// one of eight filled; row counts of one and two rings cover a block
// deeper than the pipe, as a router with a longer link lends it.
func TestPipeMirrorStampRows(t *testing.T) {
	const stride = 16
	for _, lat := range []int64{1, 3, 4} {
		for _, lane := range []int{0, 3, 7} {
			for _, rings := range []int{1, 2} {
				p := NewPipe[int](lat)
				size := rings * p.Ring()
				name := fmt.Sprintf("latency %d lane %d rows %d", lat, lane, size)
				want := make([]byte, size*stride)
				put := func(at Cycle) {
					binary.LittleEndian.PutUint16(want[(int(at)&(size-1))*stride+2*lane:], uint16(at))
				}
				// Values in flight before the mirror is lent, and one
				// written a ring earlier that has arrived and expired but
				// keeps its slot's stamp, which is copied in too.
				const t0 = 1<<16 + 40
				for _, w := range []Cycle{t0 - Cycle(p.Ring()) + 1, t0, t0 + Cycle(lat) - 1} {
					p.Write(w, 1)
					put(w + Cycle(lat))
				}
				rows := make([]byte, size*stride)
				p.MirrorStamps(rows, lane, size, stride)
				if !bytes.Equal(rows, want) {
					t.Fatalf("%s: copied in\n%x\nwant\n%x", name, rows, want)
				}
				for c := Cycle(t0 + 1); c < t0+1+3*Cycle(size); c++ {
					p.Write(c+Cycle(lat)-1, int(c))
					put(c + 2*Cycle(lat) - 1)
					if !bytes.Equal(rows, want) {
						t.Fatalf("%s: after the write at %d\n%x\nwant\n%x", name, c+Cycle(lat)-1, rows, want)
					}
				}
				p.MirrorStamps(nil, 0, 0, 0)
				p.Write(1<<17, 4)
				if !bytes.Equal(rows, want) {
					t.Fatalf("%s: a write after the mirror was taken away reached it", name)
				}
			}
		}
	}

	p := NewPipe[int](3) // a ring of eight
	for _, tc := range []struct {
		name                     string
		rows, lane, size, stride int
	}{
		{"rows fewer than the ring", 4 * 16, 0, 4, 16},
		{"rows not a power of two", 12 * 16, 0, 12, 16},
		{"lane outside the stride", 8 * 16, 8, 8, 16},
		{"negative lane", 8 * 16, -1, 8, 16},
		{"block shorter than its rows", 8*16 - 1, 0, 8, 16},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			p.MirrorStamps(make([]byte, tc.rows), tc.lane, tc.size, tc.stride)
		}()
	}
}

// TestPipeClear: a cleared pipe delivers nothing written before the
// clear, and copies no stamp into a mirror lent afterwards.
func TestPipeClear(t *testing.T) {
	p := NewPipe[int](2)
	p.Write(10, 7)
	p.Write(11, 8)
	p.Clear()
	for c := Cycle(10); c < 14; c++ {
		if v := p.Read(c); v != 0 {
			t.Errorf("cycle %d: read %d after Clear", c, v)
		}
	}
	rows := make([]byte, p.Ring()*2)
	p.MirrorStamps(rows, 0, p.Ring(), 2)
	if !bytes.Equal(rows, make([]byte, len(rows))) {
		t.Errorf("a mirror lent after Clear got stamps %x", rows)
	}
	p.Write(12, 9)
	if v := p.Read(14); v != 9 {
		t.Errorf("a write after Clear read %d, want 9", v)
	}
}
