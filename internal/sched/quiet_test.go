package sched

import (
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
	finite, forever int   // spans checked, by kind
	turns           int64 // wheel rollovers crossed
}

// runQuietOps plays prog as a cyclic program of two-byte records on an
// EDFTree and the linear-scan oracle side by side; each record advances
// the slot clock by 1 + (op>>5) slots, so the clock is monotone and the
// program is replayed until it has wrapped the wheel quietRollovers
// times. By op&3 a record installs a leaf (ℓ anywhere within a wheel of
// the clock, d up to half a wheel, any port mask), clears one owed port,
// selects a port, or moves the horizon. Each Select must agree with the
// scan, and a ClassNone selection's Quiet span must hold: the scan finds
// no candidate and no overdue leaf at every slot inside it, and — for a
// finite span — a candidate at the first slot after it. A span of
// QuietForever must belong to a port owed nothing.
func runQuietOps(t *testing.T, prog []byte) quietRun {
	t.Helper()
	var run quietRun
	if len(prog) < 2 {
		return run
	}
	tr := NewEDFTree(quietSlots, wheel8)
	ref := &scanEDF{wheel: wheel8, leaves: make([]Leaf, quietSlots)}
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
			if !ref.leaves[slot].Mask.Has(port) {
				continue
			}
			gotEmpty, err := tr.ClearPort(slot, port)
			must(t, err)
			wantEmpty, err := ref.ClearPort(slot, port)
			must(t, err)
			if gotEmpty != wantEmpty {
				t.Fatalf("op %d: ClearPort(%d, %d) freed %v, scan %v", i, slot, port, gotEmpty, wantEmpty)
			}
		case 2:
			sel := tr.Select(port, now, horizon)
			want := ref.Select(port, now, horizon)
			got := sel
			got.Quiet = 0 // the scan reports no span
			if got != want {
				t.Fatalf("op %d: Select(%d, %d, %d) = %+v, scan %+v", i, port, now, horizon, sel, want)
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
	}
	run.turns = abs/wrap - start/wrap
	return run
}

// checkQuiet holds the scan to a quiet span the tree reported at slot
// abs: ClassNone and no overdue leaf at every slot inside it, a candidate
// at the first slot after a finite one, no owed leaf behind an endless
// one.
func checkQuiet(t *testing.T, ref *scanEDF, port int, abs int64, horizon, quiet uint32, run *quietRun) {
	t.Helper()
	if quiet == 0 {
		t.Fatalf("port %d at slot %d: ClassNone selection promises no quiet slot", port, abs)
	}
	probe := &scanEDF{wheel: ref.wheel, leaves: ref.leaves}
	if quiet == QuietForever {
		for s := range probe.leaves {
			if probe.leaves[s].InUse && probe.leaves[s].Mask.Has(port) {
				t.Fatalf("port %d at slot %d: quiet forever, but leaf %d is owed to it", port, abs, s)
			}
		}
		run.forever++
		return
	}
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
// due and go stale.
var quietSeeds = [][]byte{
	{0, 1, 2, 0, 3, 3, 6, 0, 0x40, 7, 4, 1, 0x46, 2, 3, 100, 0x8a, 5, 0x0e, 9, 0x12, 3, 2, 0},
	{0x20, 200, 0x04, 5, 0x08, 9, 0x0c, 13, 0x02, 0, 0x06, 0, 0x0a, 0, 0x0e, 0, 0x12, 0, 0x03, 3, 0x62, 0},
	{0xe0, 17, 0x02, 1, 0xc3, 30, 0x42, 0, 0x01, 17, 0x05, 17, 0x22, 4, 0xa0, 250, 0x16, 0, 0x03, 0},
}

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
// check finite and endless spans, and each wraps the wheel the required
// number of times.
func TestEDFQuietSeeds(t *testing.T) {
	var finite, forever int
	for i, s := range quietSeeds {
		run := runQuietOps(t, s)
		if run.turns < quietRollovers {
			t.Errorf("seed %d crossed %d rollovers, want %d", i, run.turns, quietRollovers)
		}
		finite += run.finite
		forever += run.forever
	}
	t.Logf("seeds checked %d finite and %d endless spans", finite, forever)
	if finite < 20 || forever == 0 {
		t.Errorf("seeds checked %d finite and %d endless spans", finite, forever)
	}
}
