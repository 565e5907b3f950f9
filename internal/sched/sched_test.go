package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/timing"
)

var wheel8 = timing.MustWheel(8)

func TestPortMask(t *testing.T) {
	m := AllPortsMask(5)
	if m != 0x1f {
		t.Fatalf("AllPortsMask(5) = %#x, want 0x1f", m)
	}
	if m.Count() != 5 {
		t.Errorf("Count = %d, want 5", m.Count())
	}
	m = m.Clear(2)
	if m.Has(2) || !m.Has(0) || !m.Has(4) {
		t.Errorf("Clear(2) wrong: %#x", m)
	}
	if m.Count() != 4 {
		t.Errorf("Count after clear = %d, want 4", m.Count())
	}
	got := m.Ports(nil)
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Ports = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ports = %v, want %v", got, want)
		}
	}
	if p := PortMask(0).Ports(got[:0]); len(p) != 0 {
		t.Errorf("empty mask lists ports %v", p)
	}
}

// schedulers returns one fresh instance of every Scheduler
// implementation, each with the given number of leaf slots.
func schedulers(t *testing.T, slots int) map[string]Scheduler {
	t.Helper()
	approx, err := NewApproxEDF(slots, wheel8, 1)
	must(t, err)
	return map[string]Scheduler{
		"EDFTree":        NewEDFTree(slots, wheel8),
		"Tournament":     NewTournament(slots, wheel8),
		"FIFO":           NewFIFO(slots),
		"StaticPriority": NewStaticPriority(slots),
		"ApproxEDF":      approx,
	}
}

// TestSchedulerConformance is the leaf-table contract every
// implementation shares, whatever its ordering rule: what Install and
// ClearPort refuse, that a refusal disturbs nothing, and what Leaf and
// Occupancy report as a multicast leaf's ports clear one by one.
func TestSchedulerConformance(t *testing.T) {
	for name, s := range schedulers(t, 4) {
		t.Run(name, func(t *testing.T) {
			if s.Slots() != 4 || s.Occupancy() != 0 {
				t.Fatalf("fresh table: %d slots, occupancy %d", s.Slots(), s.Occupancy())
			}
			for _, slot := range []int{-1, 4, 9} {
				if err := s.Install(slot, Leaf{Mask: 1}); err == nil {
					t.Errorf("install in slot %d of 4: want error", slot)
				}
				if _, err := s.ClearPort(slot, 0); err == nil {
					t.Errorf("clear of slot %d of 4: want error", slot)
				}
			}
			if err := s.Install(0, Leaf{Mask: 0}); err == nil {
				t.Error("install with an empty mask: want error")
			}
			if _, err := s.ClearPort(0, 0); err == nil {
				t.Error("clear of a free slot: want error")
			}
			must(t, s.Install(0, Leaf{L: 3, Dl: 9, Mask: 0b1010, OutConn: 7}))
			if err := s.Install(0, Leaf{Mask: 1}); err == nil {
				t.Error("install into a slot in use: want error")
			}
			if _, err := s.ClearPort(0, 0); err == nil {
				t.Error("clear of a port the leaf does not owe: want error")
			}
			must(t, s.Install(2, Leaf{Mask: 0b1}))
			// Every refusal above must have left the two leaves alone.
			if lf := s.Leaf(0); !lf.InUse || lf.Mask != 0b1010 || lf.L != 3 || lf.Dl != 9 || lf.OutConn != 7 {
				t.Errorf("leaf 0 after refusals: %+v", lf)
			}
			if s.Occupancy() != 2 {
				t.Errorf("Occupancy = %d, want 2", s.Occupancy())
			}
			// A multicast leaf frees only with its last port.
			if empty, err := s.ClearPort(0, 3); err != nil || empty {
				t.Fatalf("first multicast clear: empty %v, err %v", empty, err)
			}
			if lf := s.Leaf(0); !lf.InUse || lf.Mask != 0b0010 || s.Occupancy() != 2 {
				t.Errorf("after a partial clear: %+v, occupancy %d", lf, s.Occupancy())
			}
			if _, err := s.ClearPort(0, 3); err == nil {
				t.Error("second clear of the same port: want error")
			}
			if empty, err := s.ClearPort(0, 1); err != nil || !empty {
				t.Fatalf("last multicast clear: empty %v, err %v", empty, err)
			}
			if lf := s.Leaf(0); lf != (Leaf{}) || s.Occupancy() != 1 {
				t.Errorf("after the last clear: %+v, occupancy %d", lf, s.Occupancy())
			}
			// The freed slot is installable again.
			must(t, s.Install(0, Leaf{Mask: 1}))
			if s.Occupancy() != 2 {
				t.Errorf("Occupancy after reinstall = %d, want 2", s.Occupancy())
			}
		})
	}
}

// TestEDFInstallErrors: beyond the shared contract
// (TestSchedulerConformance), the EDF tree refuses mask bits no port
// owns.
func TestEDFInstallErrors(t *testing.T) {
	tr := NewEDFTree(4, wheel8)
	must(t, tr.Install(0, Leaf{Mask: 1}))
	// A mask bit no output port owns could never be cleared: the leaf
	// (and its memory slot) would leak.
	for _, m := range []PortMask{1 << NumPorts, 0x80, 0x1f | 1<<NumPorts} {
		if err := tr.Install(1, Leaf{Mask: m}); err == nil {
			t.Errorf("mask %#x beyond %d ports: want error", m, NumPorts)
		}
	}
	if tr.Occupancy() != 1 {
		t.Errorf("Occupancy = %d, want 1", tr.Occupancy())
	}
}

// TestEDFServiceOrder exercises the Table 1 order within the scheduler:
// on-time packets by deadline, then early packets by logical arrival,
// with the horizon gating early service.
func TestEDFServiceOrder(t *testing.T) {
	tr := NewEDFTree(8, wheel8)
	now := wheel8.Wrap(100)
	// Slot 0: on-time, deadline t+30.
	must(t, tr.Install(0, Leaf{L: wheel8.Wrap(90), Dl: wheel8.Wrap(130), Mask: 1}))
	// Slot 1: on-time, deadline t+10 (most urgent).
	must(t, tr.Install(1, Leaf{L: wheel8.Wrap(95), Dl: wheel8.Wrap(110), Mask: 1}))
	// Slot 2: early by 5 slots.
	must(t, tr.Install(2, Leaf{L: wheel8.Wrap(105), Dl: wheel8.Wrap(140), Mask: 1}))

	sel := tr.Select(0, now, 0)
	if sel.Slot != 1 || sel.Class != ClassOnTime {
		t.Fatalf("Select = %+v, want slot 1 on-time", sel)
	}
	if _, err := tr.ClearPort(1, 0); err != nil {
		t.Fatal(err)
	}
	sel = tr.Select(0, now, 0)
	if sel.Slot != 0 || sel.Class != ClassOnTime {
		t.Fatalf("Select = %+v, want slot 0 on-time", sel)
	}
	if _, err := tr.ClearPort(0, 0); err != nil {
		t.Fatal(err)
	}
	// Only the early packet remains. With h=0 it must not be offered.
	sel = tr.Select(0, now, 0)
	if sel.Class != ClassNone {
		t.Fatalf("early packet offered with h=0: %+v", sel)
	}
	// With h=5 it is offered as early.
	sel = tr.Select(0, now, 5)
	if sel.Slot != 2 || sel.Class != ClassEarly {
		t.Fatalf("Select = %+v, want slot 2 early", sel)
	}
	// Advance the clock past its ℓ: it becomes on-time (Queue 3 → Queue 1
	// promotion falls out of key normalization).
	sel = tr.Select(0, wheel8.Wrap(105), 0)
	if sel.Slot != 2 || sel.Class != ClassOnTime {
		t.Fatalf("Select = %+v, want slot 2 promoted to on-time", sel)
	}
}

func TestEDFPerPortEligibility(t *testing.T) {
	tr := NewEDFTree(4, wheel8)
	now := wheel8.Wrap(50)
	// Multicast leaf owed to ports 0 and 2.
	must(t, tr.Install(0, Leaf{L: wheel8.Wrap(40), Dl: wheel8.Wrap(60), Mask: 0b101}))
	if sel := tr.Select(1, now, 0); sel.Class != ClassNone {
		t.Fatalf("port 1 offered a packet not routed to it: %+v", sel)
	}
	for _, port := range []int{0, 2} {
		if sel := tr.Select(port, now, 0); sel.Slot != 0 {
			t.Fatalf("port %d: Select = %+v, want slot 0", port, sel)
		}
	}
	empty, err := tr.ClearPort(0, 0)
	if err != nil || empty {
		t.Fatalf("first clear: empty=%v err=%v, want false,nil", empty, err)
	}
	empty, err = tr.ClearPort(0, 2)
	if err != nil || !empty {
		t.Fatalf("second clear: empty=%v err=%v, want true,nil", empty, err)
	}
	if tr.Occupancy() != 0 {
		t.Errorf("Occupancy = %d, want 0", tr.Occupancy())
	}
}

// TestEDFClearErrors: beyond the shared contract, the EDF tree turns a
// port outside [0, NumPorts) into an error or an empty selection.
func TestEDFClearErrors(t *testing.T) {
	tr := NewEDFTree(4, wheel8)
	must(t, tr.Install(0, Leaf{Mask: 0b10}))
	// Ports outside [0, NumPorts) index no bitmap: an error from
	// ClearPort, an empty selection (that still counts as a beat) from
	// Select, never a panic.
	for _, port := range []int{-1, NumPorts, 7, 8, 64, 1 << 20} {
		if _, err := tr.ClearPort(0, port); err == nil {
			t.Errorf("clear of port %d: want error", port)
		}
		beats := tr.Selects
		if sel := tr.Select(port, 0, 127); sel.Slot != -1 || sel.Class != ClassNone || sel.Key != wheel8.KeyIneligible() {
			t.Errorf("Select(port %d) = %+v, want no eligible leaf", port, sel)
		}
		if tr.Selects != beats+1 {
			t.Errorf("Select(port %d) counted %d beats, want 1", port, tr.Selects-beats)
		}
	}
	if lf := tr.Leaf(0); !lf.InUse || lf.Mask != 0b10 || tr.Occupancy() != 1 {
		t.Errorf("refused clears disturbed the leaf: %+v, occupancy %d", lf, tr.Occupancy())
	}
}

func TestEDFTieBreaksLowestSlot(t *testing.T) {
	tr := NewEDFTree(8, wheel8)
	now := wheel8.Wrap(10)
	must(t, tr.Install(5, Leaf{L: wheel8.Wrap(5), Dl: wheel8.Wrap(30), Mask: 1}))
	must(t, tr.Install(2, Leaf{L: wheel8.Wrap(5), Dl: wheel8.Wrap(30), Mask: 1}))
	if sel := tr.Select(0, now, 0); sel.Slot != 2 {
		t.Fatalf("tie broke to slot %d, want 2", sel.Slot)
	}
}

// TestEDFRollover checks deadline ordering across the 8-bit clock wrap.
func TestEDFRollover(t *testing.T) {
	tr := NewEDFTree(4, wheel8)
	now := wheel8.Wrap(250)
	// Deadline at absolute 260 (wraps to 4) vs 270 (wraps to 14).
	must(t, tr.Install(0, Leaf{L: wheel8.Wrap(245), Dl: wheel8.Wrap(270), Mask: 1}))
	must(t, tr.Install(1, Leaf{L: wheel8.Wrap(248), Dl: wheel8.Wrap(260), Mask: 1}))
	if sel := tr.Select(0, now, 0); sel.Slot != 1 {
		t.Fatalf("rollover: selected slot %d, want 1 (deadline 260 < 270)", sel.Slot)
	}
}

func TestFIFOOrder(t *testing.T) {
	f := NewFIFO(8)
	now := wheel8.Wrap(0)
	// Install urgent-last; FIFO must ignore deadlines.
	must(t, f.Install(0, Leaf{L: 0, Dl: 100, Mask: 1}))
	must(t, f.Install(1, Leaf{L: 0, Dl: 5, Mask: 1}))
	sel := f.Select(0, now, 0)
	if sel.Slot != 0 {
		t.Fatalf("FIFO selected %d first, want 0", sel.Slot)
	}
	if sel.Class != ClassOnTime {
		t.Fatalf("FIFO class = %v, want on-time", sel.Class)
	}
	if _, err := f.ClearPort(0, 0); err != nil {
		t.Fatal(err)
	}
	if sel = f.Select(0, now, 0); sel.Slot != 1 {
		t.Fatalf("FIFO selected %d second, want 1", sel.Slot)
	}
}

func TestFIFOMulticastQueues(t *testing.T) {
	f := NewFIFO(8)
	must(t, f.Install(3, Leaf{Mask: 0b11}))
	for port := 0; port < 2; port++ {
		if sel := f.Select(port, 0, 0); sel.Slot != 3 {
			t.Fatalf("port %d: slot %d, want 3", port, sel.Slot)
		}
	}
	empty, err := f.ClearPort(3, 0)
	if err != nil || empty {
		t.Fatalf("clear port 0: %v %v", empty, err)
	}
	if sel := f.Select(0, 0, 0); sel.Class != ClassNone {
		t.Fatal("port 0 still offered cleared packet")
	}
	empty, err = f.ClearPort(3, 1)
	if err != nil || !empty {
		t.Fatalf("clear port 1: %v %v", empty, err)
	}
	if f.Occupancy() != 0 {
		t.Errorf("Occupancy = %d, want 0", f.Occupancy())
	}
}

func TestFIFOClearNonHeadFails(t *testing.T) {
	f := NewFIFO(8)
	must(t, f.Install(0, Leaf{Mask: 1}))
	must(t, f.Install(1, Leaf{Mask: 1}))
	if _, err := f.ClearPort(1, 0); err == nil {
		t.Error("clearing non-head slot: want error")
	}
}

func TestStaticPriorityOrder(t *testing.T) {
	s := NewStaticPriority(8)
	// Priority is Dl−L: connection delay reused as priority.
	must(t, s.Install(0, Leaf{L: 0, Dl: 9, Mask: 1})) // prio 9
	must(t, s.Install(1, Leaf{L: 0, Dl: 3, Mask: 1})) // prio 3
	must(t, s.Install(2, Leaf{L: 0, Dl: 3, Mask: 1})) // prio 3, later
	sel := s.Select(0, 0, 0)
	if sel.Slot != 1 {
		t.Fatalf("selected %d, want 1 (lowest prio value, earliest)", sel.Slot)
	}
	if _, err := s.ClearPort(1, 0); err != nil {
		t.Fatal(err)
	}
	if sel = s.Select(0, 0, 0); sel.Slot != 2 {
		t.Fatalf("selected %d, want 2 (FIFO within priority)", sel.Slot)
	}
	if _, err := s.ClearPort(2, 0); err != nil {
		t.Fatal(err)
	}
	if sel = s.Select(0, 0, 0); sel.Slot != 0 {
		t.Fatalf("selected %d, want 0", sel.Slot)
	}
}

func TestTournamentMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		tr := NewEDFTree(n, wheel8)
		tm := NewTournament(n, wheel8)
		base := rng.Int63n(100000)
		for slot := 0; slot < n; slot++ {
			if rng.Intn(3) == 0 {
				continue
			}
			off := int64(rng.Intn(100)) - 50
			d := int64(rng.Intn(60)) + 1
			lf := Leaf{
				L:    wheel8.Wrap(timing.Slot(base + off)),
				Dl:   wheel8.Wrap(timing.Slot(base + off + d)),
				Mask: PortMask(rng.Intn(31) + 1),
			}
			must(t, tr.Install(slot, lf))
			must(t, tm.Install(slot, lf))
		}
		now := wheel8.Wrap(timing.Slot(base))
		for port := 0; port < NumPorts; port++ {
			for _, h := range []uint32{0, 3, 10, 127} {
				a := tr.Select(port, now, h)
				b := tm.Select(port, now, h)
				if a.Slot != b.Slot || a.Class != b.Class {
					t.Fatalf("trial %d port %d h=%d: scan=%+v tournament=%+v",
						trial, port, h, a, b)
				}
			}
		}
	}
}

func TestTournamentCompareOps(t *testing.T) {
	tm := NewTournament(256, wheel8)
	must(t, tm.Install(0, Leaf{Mask: 1}))
	before := tm.CompareOps
	tm.Select(0, 0, 0)
	// 256 leaves → 255 comparators per full reduction.
	if got := tm.CompareOps - before; got != 255 {
		t.Errorf("CompareOps per Select = %d, want 255", got)
	}
	if tm.Levels() != 8 {
		t.Errorf("Levels = %d, want 8", tm.Levels())
	}
}

func TestCostModelPaperChip(t *testing.T) {
	// The paper's configuration: 256 packets, 8-bit clock (9-bit keys),
	// two-stage pipeline (Table 4a, Section 5.1).
	c := CostModel(256, 8, 2)
	if c.Comparators != 255 {
		t.Errorf("Comparators = %d, want 255", c.Comparators)
	}
	if c.Levels != 8 {
		t.Errorf("Levels = %d, want 8", c.Levels)
	}
	if c.KeyBits != 9 {
		t.Errorf("KeyBits = %d, want 9", c.KeyBits)
	}
	if c.RowsPerStage != 4 {
		t.Errorf("RowsPerStage = %d, want 4", c.RowsPerStage)
	}
}

func TestCostModelEdges(t *testing.T) {
	c := CostModel(1, 8, 2)
	if c.Levels != 0 || c.Comparators != 0 || c.RowsPerStage != 0 {
		t.Errorf("single-leaf cost: %+v", c)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CostModel(0,...) did not panic")
		}
	}()
	CostModel(0, 8, 2)
}

func TestTreeLevels(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 255: 8, 256: 8, 257: 9}
	for n, want := range cases {
		if got := treeLevels(n); got != want {
			t.Errorf("treeLevels(%d) = %d, want %d", n, got, want)
		}
	}
}

// Property: for a random set of installed leaves, the EDF selection for a
// port is the leaf with minimal (class, key) among eligible leaves.
func TestEDFSelectIsArgminQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(32)
		tr := NewEDFTree(n, wheel8)
		base := rng.Int63n(1 << 20)
		type ref struct {
			slot int
			key  timing.Key
		}
		var refs []ref
		now := wheel8.Wrap(timing.Slot(base))
		for slot := 0; slot < n; slot++ {
			if rng.Intn(2) == 0 {
				continue
			}
			off := int64(rng.Intn(80)) - 40
			d := int64(rng.Intn(40)) + 1
			lf := Leaf{
				L:    wheel8.Wrap(timing.Slot(base + off)),
				Dl:   wheel8.Wrap(timing.Slot(base + off + d)),
				Mask: 1,
			}
			if tr.Install(slot, lf) != nil {
				return false
			}
			k, _, _ := wheel8.SortKey(lf.L, lf.Dl, now)
			refs = append(refs, ref{slot, k})
		}
		sel := tr.Select(0, now, 127)
		if len(refs) == 0 {
			return sel.Class == ClassNone
		}
		best := refs[0]
		for _, r := range refs[1:] {
			if r.key < best.key {
				best = r
			}
		}
		return sel.Slot == best.slot
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestClassString(t *testing.T) {
	if ClassNone.String() != "none" || ClassOnTime.String() != "on-time" || ClassEarly.String() != "early" {
		t.Error("Class labels wrong")
	}
	if Class(7).String() != "Class(7)" {
		t.Error("unknown class label wrong")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestCostModelShared(t *testing.T) {
	// Section 5.1's alternative: 4 leaves per module over 256 packets →
	// 64 modules, 63 comparators, 4x serialization per selection.
	c := CostModelShared(256, 4, 8, 2)
	if c.Modules != 64 || c.Comparators != 63 {
		t.Errorf("shared cost: %+v", c)
	}
	if c.SerializeSlots != 4 {
		t.Errorf("SerializeSlots = %d, want 4", c.SerializeSlots)
	}
	if c.Leaves != 256 {
		t.Errorf("Leaves = %d, want 256 (capacity unchanged)", c.Leaves)
	}
	// Sharing factor 1 degenerates to the plain tree.
	p := CostModelShared(256, 1, 8, 2)
	if p.Comparators != 255 || p.SerializeSlots != 1 {
		t.Errorf("degenerate sharing: %+v", p)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero sharing factor did not panic")
		}
	}()
	CostModelShared(256, 0, 8, 2)
}
