package sched

import (
	"math/rand"
	"testing"

	"repro/internal/timing"
)

func TestNewApproxEDFValidation(t *testing.T) {
	if _, err := NewApproxEDF(0, wheel8, 2); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := NewApproxEDF(8, wheel8, 8); err == nil {
		t.Error("shift consuming the whole key accepted")
	}
	a, err := NewApproxEDF(8, wheel8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.QuantizedKeyBits() != 6 {
		t.Errorf("QuantizedKeyBits = %d, want 6 (8−3 magnitude + class)", a.QuantizedKeyBits())
	}
}

// TestApproxZeroShiftMatchesExact: with shift 0 the approximate
// scheduler must make exactly the EDF tree's decisions.
func TestApproxZeroShiftMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(48)
		exact := NewEDFTree(n, wheel8)
		approx, err := NewApproxEDF(n, wheel8, 0)
		if err != nil {
			t.Fatal(err)
		}
		base := rng.Int63n(1 << 18)
		for slot := 0; slot < n; slot++ {
			if rng.Intn(3) == 0 {
				continue
			}
			off := int64(rng.Intn(80)) - 40
			d := int64(rng.Intn(40)) + 1
			lf := Leaf{
				L:    wheel8.Wrap(timing.Slot(base + off)),
				Dl:   wheel8.Wrap(timing.Slot(base + off + d)),
				Mask: PortMask(rng.Intn(31) + 1),
			}
			must(t, exact.Install(slot, lf))
			must(t, approx.Install(slot, lf))
		}
		now := wheel8.Wrap(timing.Slot(base))
		for port := 0; port < NumPorts; port++ {
			for _, h := range []uint32{0, 5, 40} {
				a := exact.Select(port, now, h)
				b := approx.Select(port, now, h)
				if a.Slot != b.Slot || a.Class != b.Class {
					t.Fatalf("trial %d port %d h %d: exact=%+v approx=%+v", trial, port, h, a, b)
				}
			}
		}
	}
}

// TestApproxBucketsCollapseOrder: two on-time packets in the same
// bucket serve lowest-slot-first regardless of exact laxity; packets in
// different buckets keep deadline order.
func TestApproxBucketsCollapseOrder(t *testing.T) {
	a, err := NewApproxEDF(8, wheel8, 3) // 8-slot buckets
	if err != nil {
		t.Fatal(err)
	}
	now := wheel8.Wrap(100)
	// Laxities 5 and 2: same bucket (0) → slot order picks slot 0 even
	// though slot 1 is more urgent.
	must(t, a.Install(0, Leaf{L: wheel8.Wrap(95), Dl: wheel8.Wrap(105), Mask: 1}))
	must(t, a.Install(1, Leaf{L: wheel8.Wrap(95), Dl: wheel8.Wrap(102), Mask: 1}))
	if sel := a.Select(0, now, 0); sel.Slot != 0 {
		t.Errorf("same-bucket tie selected %d, want 0 (slot order)", sel.Slot)
	}
	// Laxity 30 is bucket 3: still loses to bucket 0.
	must(t, a.Install(2, Leaf{L: wheel8.Wrap(95), Dl: wheel8.Wrap(130), Mask: 1}))
	if sel := a.Select(0, now, 0); sel.Slot != 0 {
		t.Errorf("cross-bucket selected %d, want 0", sel.Slot)
	}
	// Clear the bucket-0 packets: bucket 3 surfaces.
	if _, err := a.ClearPort(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ClearPort(1, 0); err != nil {
		t.Fatal(err)
	}
	if sel := a.Select(0, now, 0); sel.Slot != 2 || sel.Class != ClassOnTime {
		t.Errorf("got %+v, want slot 2 on-time", sel)
	}
	if a.Occupancy() != 1 {
		t.Errorf("Occupancy = %d, want 1", a.Occupancy())
	}
}

// TestApproxClassExact: quantization never blurs early vs. on-time, and
// the horizon check stays exact.
func TestApproxClassExact(t *testing.T) {
	a, err := NewApproxEDF(8, wheel8, 4)
	if err != nil {
		t.Fatal(err)
	}
	now := wheel8.Wrap(50)
	// Early by 3: bucket 0 — same bucket as an on-time laxity-3 packet
	// would be, but the class bit must still dominate.
	must(t, a.Install(0, Leaf{L: wheel8.Wrap(53), Dl: wheel8.Wrap(70), Mask: 1}))
	must(t, a.Install(1, Leaf{L: wheel8.Wrap(40), Dl: wheel8.Wrap(115), Mask: 1})) // on-time, laxity 65
	sel := a.Select(0, now, 10)
	if sel.Slot != 1 || sel.Class != ClassOnTime {
		t.Fatalf("on-time must beat early regardless of buckets: %+v", sel)
	}
	if _, err := a.ClearPort(1, 0); err != nil {
		t.Fatal(err)
	}
	// Horizon gates exactly: gap 3 with h=2 is held even though bucket 0.
	if sel := a.Select(0, now, 2); sel.Class != ClassNone {
		t.Errorf("early beyond horizon offered: %+v", sel)
	}
	if sel := a.Select(0, now, 3); sel.Slot != 0 || sel.Class != ClassEarly {
		t.Errorf("early within horizon not offered: %+v", sel)
	}
}
