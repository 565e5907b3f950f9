package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/timing"
)

// leafStore is the leaf array of the tests' oracles: what EDFTree's
// Install and ClearPort check and write, without the per-port bitmaps.
type leafStore struct {
	leaves []Leaf
	inUse  int
}

func (t *leafStore) Install(slot int, leaf Leaf) error {
	if slot < 0 || slot >= len(t.leaves) || t.leaves[slot].InUse || leaf.Mask == 0 ||
		leaf.Mask&^AllPortsMask(NumPorts) != 0 {
		return fmt.Errorf("leafStore: bad install of slot %d", slot)
	}
	leaf.InUse = true
	t.leaves[slot] = leaf
	t.inUse++
	return nil
}

func (t *leafStore) ClearPort(slot, port int) (bool, error) {
	if !t.owes(slot, port) {
		return false, fmt.Errorf("leafStore: invalid clear of slot %d port %d", slot, port)
	}
	lf := &t.leaves[slot]
	lf.Mask = lf.Mask.Clear(port)
	if lf.Mask == 0 {
		*lf = Leaf{}
		t.inUse--
		return true, nil
	}
	return false, nil
}

// owes reports whether slot holds a leaf still owed to port.
func (t *leafStore) owes(slot, port int) bool {
	return slot >= 0 && slot < len(t.leaves) && port >= 0 && port < NumPorts && t.leaves[slot].Mask.Has(port)
}

func (t *leafStore) Leaf(slot int) Leaf { return t.leaves[slot] }
func (t *leafStore) Occupancy() int     { return t.inUse }
func (t *leafStore) Slots() int         { return len(t.leaves) }

// scanEDF is the linear-scan EDF scheduler EDFTree was before it kept a
// per-port bitmap of owed slots: every Select visits all leaf slots. It
// stays as the oracle the indexed tree is compared against.
type scanEDF struct {
	leafStore
	wheel   timing.Wheel
	Overdue int64
	Selects int64
}

func newScanEDF(slots int, wheel timing.Wheel) *scanEDF {
	return &scanEDF{leafStore: leafStore{leaves: make([]Leaf, slots)}, wheel: wheel}
}

func (t *scanEDF) Select(port int, now timing.Stamp, horizon uint32) Selection {
	t.Selects++
	best := Selection{Slot: -1, Class: ClassNone, Key: t.wheel.KeyIneligible()}
	for i := range t.leaves {
		if !t.owes(i, port) {
			continue
		}
		lf := &t.leaves[i]
		k, early, overdue := t.wheel.SortKey(lf.L, lf.Dl, now)
		if overdue {
			t.Overdue++
		}
		if k < best.Key {
			best.Key = k
			best.Slot = i
			if early {
				best.Class = ClassEarly
			} else {
				best.Class = ClassOnTime
			}
		}
	}
	if best.Class == ClassEarly && !t.wheel.WithinHorizon(best.Key, horizon) {
		return Selection{Slot: -1, Class: ClassNone, Key: best.Key}
	}
	return best
}

// TestEDFIndexMatchesScan drives the indexed EDFTree, the linear-scan
// oracle and the structural Tournament through the same seeded random
// Install / ClearPort / Select sequences — multicast masks, a slot clock
// that rolls the 8-bit wheel over several times, leaves left behind long
// enough to go overdue, slot counts on both sides of a bitmap word — and
// requires equal selections and equal counters after every operation.
func TestEDFIndexMatchesScan(t *testing.T) {
	for _, slots := range []int{1, 5, 63, 64, 65, 130, 256} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(slots)))
			tr := NewEDFTree(slots, wheel8)
			ref := newScanEDF(slots, wheel8)
			tm := NewTournament(slots, wheel8)
			abs := rng.Int63n(1 << 20)
			for op := 0; op < 3000; op++ {
				if rng.Intn(8) == 0 {
					abs += int64(rng.Intn(12)) // ~3 wheel turns per run
				}
				now := wheel8.Wrap(timing.Slot(abs))
				slot := rng.Intn(slots)
				switch r := rng.Intn(10); {
				case r < 3:
					if ref.leaves[slot].InUse {
						continue
					}
					off := int64(rng.Intn(100)) - 50
					lf := Leaf{
						L:       wheel8.Wrap(timing.Slot(abs + off)),
						Dl:      wheel8.Wrap(timing.Slot(abs + off + 1 + int64(rng.Intn(60)))),
						Mask:    PortMask(1 + rng.Intn(1<<NumPorts-1)),
						OutConn: uint8(rng.Intn(256)),
					}
					must(t, tr.Install(slot, lf))
					must(t, ref.Install(slot, lf))
					must(t, tm.Install(slot, lf))
				case r < 5:
					port := rng.Intn(NumPorts)
					wantEmpty, wantErr := ref.ClearPort(slot, port)
					gotEmpty, gotErr := tr.ClearPort(slot, port)
					tmEmpty, tmErr := tm.ClearPort(slot, port)
					if gotEmpty != wantEmpty || (gotErr != nil) != (wantErr != nil) ||
						tmEmpty != wantEmpty || (tmErr != nil) != (wantErr != nil) {
						t.Fatalf("slots %d seed %d op %d: ClearPort(%d,%d) = (%v,%v), tournament (%v,%v), scan (%v,%v)",
							slots, seed, op, slot, port, gotEmpty, gotErr, tmEmpty, tmErr, wantEmpty, wantErr)
					}
				default:
					port := rng.Intn(NumPorts)
					h := []uint32{0, 3, 10, 127}[rng.Intn(4)]
					want := ref.Select(port, now, h)
					got := tr.Select(port, now, h)
					got.Quiet = 0 // the scan reports no span; FuzzEDFQuiet checks the tree's against it
					if got != want {
						t.Fatalf("slots %d seed %d op %d: Select(%d, %d, %d) = %+v, scan %+v",
							slots, seed, op, port, now, h, got, want)
					}
					if got := tm.Select(port, now, h); got != want {
						t.Fatalf("slots %d seed %d op %d: tournament Select(%d, %d, %d) = %+v, scan %+v",
							slots, seed, op, port, now, h, got, want)
					}
				}
				if tr.Overdue != ref.Overdue || tr.Selects != ref.Selects || tm.Selects != ref.Selects ||
					tr.Occupancy() != ref.inUse || tm.Occupancy() != ref.inUse {
					t.Fatalf("slots %d seed %d op %d: overdue %d/%d selects %d/%d/%d occupancy %d/%d/%d (tree/[tournament/]scan)",
						slots, seed, op, tr.Overdue, ref.Overdue, tr.Selects, tm.Selects, ref.Selects,
						tr.Occupancy(), tm.Occupancy(), ref.inUse)
				}
				if tr.Leaf(slot) != ref.leaves[slot] {
					t.Fatalf("slots %d seed %d op %d: leaf %d = %+v, scan %+v",
						slots, seed, op, slot, tr.Leaf(slot), ref.leaves[slot])
				}
			}
			if slots >= 5 && (ref.Selects == 0 || ref.Overdue == 0) {
				t.Fatalf("slots %d seed %d: vacuous run (selects %d, overdue %d)", slots, seed, ref.Selects, ref.Overdue)
			}
		}
	}
}
