package sched

import (
	"fmt"
	"testing"

	"repro/internal/timing"
)

// quietSlots is the leaf count of the quiet-span programs: enough leaves
// to multicast and to contend on a port, few enough that checking every
// slot of a span against the linear scan stays cheap.
const quietSlots = 16

// quietRollovers is how many times the slot clock of a quiet-span
// program must wrap the 8-bit wheel before the program stops.
const quietRollovers = 3

// quietMaxOps caps the operations one program runs, its replays
// included.
const quietMaxOps = 4096

// quietRun is what one program exercised.
type quietRun struct {
	order           Order
	finite, forever int   // spans checked, by kind
	turns           int64 // wheel rollovers crossed
}

// quietOrder is the order a program runs under, from its first byte:
// the low three bits 1–3 pick approx with that shift, 4 FIFO, 5 static,
// the rest EDF.
func quietOrder(b byte) (Order, uint) {
	switch b & 7 {
	case 1, 2, 3:
		return OrderApprox, uint(b & 7)
	case 4:
		return OrderFIFO, 0
	case 5:
		return OrderStatic, 0
	}
	return OrderEDF, 0
}

// scanOrder is the linear-scan oracle of every order. EDF is scanEDF's;
// the ablation orders restate the Select rules of the schedulers they
// were before they became orders of EDFTree's walk: FIFO's per-port
// install queue, static's lowest (Dl − ℓ, install sequence), approx's
// exact-gap horizon filter and then (class, gap >> shift). FIFO and
// static offer their winner whatever its class.
type scanOrder struct {
	scanEDF
	order  Order
	shift  uint
	queues [NumPorts][]int // FIFO: each port's slots in install order
	seq    []int64         // static: each slot's install sequence
	next   int64
}

func newScanOrder(slots int, w timing.Wheel, order Order, shift uint) *scanOrder {
	return &scanOrder{scanEDF: *newScanEDF(slots, w), order: order, shift: shift, seq: make([]int64, slots)}
}

func (t *scanOrder) Install(slot int, leaf Leaf) error {
	if err := t.leafStore.Install(slot, leaf); err != nil {
		return err
	}
	for _, p := range leaf.Mask.Ports(nil) {
		t.queues[p] = append(t.queues[p], slot)
	}
	t.seq[slot] = t.next
	t.next++
	return nil
}

func (t *scanOrder) ClearPort(slot, port int) (bool, error) {
	if t.order == OrderFIFO && t.owes(slot, port) && t.queues[port][0] != slot {
		return false, fmt.Errorf("scanOrder: FIFO clear of slot %d behind the head of port %d", slot, port)
	}
	empty, err := t.leafStore.ClearPort(slot, port)
	if err == nil {
		q := t.queues[port]
		for i := range q {
			if q[i] == slot {
				t.queues[port] = append(q[:i:i], q[i+1:]...)
				break
			}
		}
	}
	return empty, err
}

// classOf restates Table 1's class rule for one leaf, and whether its
// laxity clamped.
func (t *scanOrder) classOf(lf *Leaf, now timing.Stamp, horizon uint32) (Class, timing.Key, bool) {
	k, early, overdue := t.wheel.SortKey(lf.L, lf.Dl, now)
	switch {
	case !early:
		return ClassOnTime, k, overdue
	case t.wheel.WithinHorizon(k, horizon):
		return ClassEarly, k, overdue
	}
	return ClassHeld, k, overdue
}

func (t *scanOrder) Select(port int, now timing.Stamp, horizon uint32) Selection {
	none := Selection{Slot: -1, Class: ClassNone, Key: t.wheel.KeyIneligible()}
	switch t.order {
	case OrderEDF:
		return t.scanEDF.Select(port, now, horizon)
	case OrderFIFO:
		t.Selects++
		if port < 0 || port >= NumPorts || len(t.queues[port]) == 0 {
			return none
		}
		i := t.queues[port][0]
		c, _, _ := t.classOf(&t.leaves[i], now, horizon)
		return Selection{Slot: i, Class: c}
	case OrderStatic:
		t.Selects++
		best, prio := -1, func(i int) uint8 { return uint8(t.wheel.Sub(t.leaves[i].Dl, t.leaves[i].L)) }
		for i := range t.leaves {
			if t.owes(i, port) && (best < 0 || prio(i) < prio(best) || prio(i) == prio(best) && t.seq[i] < t.seq[best]) {
				best = i
			}
		}
		if best < 0 {
			return none
		}
		c, _, _ := t.classOf(&t.leaves[best], now, horizon)
		return Selection{Slot: best, Class: c, Key: timing.Key(prio(best))}
	}
	t.Selects++
	best, held := none, none
	for i := range t.leaves {
		if !t.owes(i, port) {
			continue
		}
		c, k, overdue := t.classOf(&t.leaves[i], now, horizon)
		if overdue {
			t.Overdue++
		}
		switch {
		case c == ClassHeld:
			if k < held.Key {
				held.Key = k
			}
		case best.Slot < 0 || c < best.Class ||
			c == best.Class && t.wheel.KeyGap(k)>>t.shift < t.wheel.KeyGap(best.Key)>>t.shift:
			best = Selection{Slot: i, Class: c, Key: k}
		}
	}
	if best.Slot < 0 {
		return held
	}
	return best
}

// runQuietOps plays prog as a cyclic program of two-byte records on an
// EDFTree of the order quietOrder picks and on the linear-scan oracle
// side by side; each record advances the slot clock by 1 + (op>>5)
// slots, so the clock is monotone and the program is replayed until it
// has wrapped the wheel quietRollovers times. By op&3 a record installs a
// leaf (ℓ anywhere within a wheel of the clock, d up to half a wheel, any
// port mask), clears one owed port (under FIFO, the head if the oracle
// refuses the record's slot), selects a port, or moves the horizon. Each
// Select must agree with the scan, and a ClassNone selection's Quiet span
// must hold: the scan finds no candidate and no overdue leaf at every
// slot inside it, and — for a finite span — a candidate at the first
// slot after it. A span of QuietForever must belong to a port owed
// nothing.
func runQuietOps(t *testing.T, prog []byte) quietRun {
	t.Helper()
	var run quietRun
	if len(prog) < 2 {
		return run
	}
	order, shift := quietOrder(prog[0])
	run.order = order
	tr := newTree(t, quietSlots, wheel8, order, shift)
	ref := newScanOrder(quietSlots, wheel8, order, shift)
	clear := func(i, slot, port int) error {
		gotEmpty, gotErr := tr.ClearPort(slot, port)
		wantEmpty, wantErr := ref.ClearPort(slot, port)
		if gotEmpty != wantEmpty || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("op %d: ClearPort(%d, %d) = (%v, %v), scan (%v, %v)", i, slot, port, gotEmpty, gotErr, wantEmpty, wantErr)
		}
		return wantErr
	}
	wrap := int64(wheel8.Range())
	half := int64(wheel8.HalfRange())
	start := int64(prog[0])*7 + 1000
	abs, horizon := start, uint32(0)
	for i := 0; i < quietMaxOps && abs < start+quietRollovers*wrap; i++ {
		rec := prog[2*(i%(len(prog)/2)):]
		op, arg := rec[0], rec[1]
		abs += 1 + int64(op>>5)
		now := wheel8.Wrap(timing.Slot(abs))
		slot, port := int(arg)%quietSlots, int(op>>2)%NumPorts
		switch op & 3 {
		case 0:
			if ref.leaves[slot].InUse {
				continue
			}
			l := abs + int64(arg)*int64(op|1)%wrap - half
			lf := Leaf{
				L:    wheel8.Wrap(timing.Slot(l)),
				Dl:   wheel8.Wrap(timing.Slot(l + int64(op)%half)),
				Mask: PortMask(1 + int(arg^op)%(1<<NumPorts-1)),
			}
			must(t, tr.Install(slot, lf))
			must(t, ref.Install(slot, lf))
		case 1:
			if !ref.owes(slot, port) {
				continue
			}
			if clear(i, slot, port) != nil {
				clear(i, ref.queues[port][0], port)
			}
		case 2:
			sel := tr.Select(port, now, horizon)
			want := ref.Select(port, now, horizon)
			got := sel
			got.Quiet = 0 // the scan reports no span
			if got != want {
				t.Fatalf("op %d: %v Select(%d, %d, %d) = %+v, scan %+v", i, order, port, now, horizon, sel, want)
			}
			if sel.Class != ClassNone {
				if sel.Quiet != 0 {
					t.Fatalf("op %d: %v selection reports a quiet span of %d", i, sel.Class, sel.Quiet)
				}
				continue
			}
			checkQuiet(t, ref, port, abs, horizon, sel.Quiet, &run)
		case 3:
			horizon = uint32(arg) % uint32(half)
		}
		if tr.Selects != ref.Selects || tr.Overdue != ref.Overdue {
			t.Fatalf("op %d: selects %d, overdue %d; scan %d, %d", i, tr.Selects, tr.Overdue, ref.Selects, ref.Overdue)
		}
	}
	run.turns = abs/wrap - start/wrap
	return run
}

// checkQuiet holds the scan to a quiet span the tree reported at slot
// abs: ClassNone and no overdue leaf at every slot inside it, a candidate
// at the first slot after a finite one, no owed leaf behind an endless
// one.
func checkQuiet(t *testing.T, ref *scanOrder, port int, abs int64, horizon, quiet uint32, run *quietRun) {
	t.Helper()
	if quiet == 0 {
		t.Fatalf("port %d at slot %d: ClassNone selection promises no quiet slot", port, abs)
	}
	if quiet == QuietForever {
		for s := range ref.leaves {
			if ref.owes(s, port) {
				t.Fatalf("port %d at slot %d: quiet forever, but leaf %d is owed to it", port, abs, s)
			}
		}
		run.forever++
		return
	}
	probe := *ref // Select writes only the probe's counters
	probe.Overdue = 0
	for j := int64(0); j < int64(quiet); j++ {
		now := ref.wheel.Wrap(timing.Slot(abs + j))
		if sel := probe.Select(port, now, horizon); sel.Class != ClassNone || probe.Overdue != 0 {
			t.Fatalf("port %d: quiet for %d slots from %d, but the scan %d slots in selects %+v (%d overdue)",
				port, quiet, abs, j, sel, probe.Overdue)
		}
	}
	now := ref.wheel.Wrap(timing.Slot(abs + int64(quiet)))
	if sel := probe.Select(port, now, horizon); sel.Class == ClassNone {
		t.Fatalf("port %d: quiet for %d slots from %d, but still quiet the slot after (%+v): the span is not tight",
			port, quiet, abs, sel)
	}
	run.finite++
}

// quietSeeds are programs that install held leaves on every port, select
// across the horizons 0, 3 and 100, clear owed ports and let leaves come
// due and go stale. The first three run under EDF; the rest replay them
// under approx with shifts 1–3, FIFO and static (quietOrder).
var quietSeeds = func() [][]byte {
	seeds := [][]byte{
		{0, 1, 2, 0, 3, 3, 6, 0, 0x40, 7, 4, 1, 0x46, 2, 3, 100, 0x8a, 5, 0x0e, 9, 0x12, 3, 2, 0},
		{0x20, 200, 0x04, 5, 0x08, 9, 0x0c, 13, 0x02, 0, 0x06, 0, 0x0a, 0, 0x0e, 0, 0x12, 0, 0x03, 3, 0x62, 0},
		{0xe0, 17, 0x02, 1, 0xc3, 30, 0x42, 0, 0x01, 17, 0x05, 17, 0x22, 4, 0xa0, 250, 0x16, 0, 0x03, 0},
	}
	for i, first := range []byte{1, 2, 3, 4, 5} {
		seeds = append(seeds, append([]byte{first}, seeds[i%3][1:]...))
	}
	return seeds
}()

// FuzzEDFQuiet drives runQuietOps with fuzzer-chosen programs:
//
//	go test -fuzz=FuzzEDFQuiet -fuzztime=20s -run '^$' ./internal/sched/
func FuzzEDFQuiet(f *testing.F) {
	for _, s := range quietSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { runQuietOps(t, prog) })
}

// TestEDFQuietSeeds: the seed programs are not vacuous — together they
// check finite and endless spans, every order reports spans and the
// orders with a top-of-tree check finite ones, and each seed wraps the
// wheel the required number of times.
func TestEDFQuietSeeds(t *testing.T) {
	var finite, forever [OrderApprox + 1]int
	for i, s := range quietSeeds {
		run := runQuietOps(t, s)
		if run.turns < quietRollovers {
			t.Errorf("seed %d crossed %d rollovers, want %d", i, run.turns, quietRollovers)
		}
		finite[run.order] += run.finite
		forever[run.order] += run.forever
	}
	t.Logf("seeds checked %v finite and %v endless spans (by order)", finite, forever)
	for o := range finite {
		if forever[o] == 0 || Order(o) == OrderApprox && finite[o] == 0 {
			t.Errorf("%v: seeds checked %d finite and %d endless spans", Order(o), finite[o], forever[o])
		}
	}
	if finite[OrderEDF] < 20 {
		t.Errorf("EDF seeds checked %d finite spans, want 20", finite[OrderEDF])
	}
}
