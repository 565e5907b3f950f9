// Package sched implements the run-time link scheduler of the real-time
// router (Section 4.2 of the paper).
//
// The router does not keep time-constrained packets in sorted order.
// Instead a single comparator tree, shared by all five output ports,
// selects the packet with the smallest sorting key on demand. Each leaf of
// the tree holds the per-packet state installed when the packet arrived:
// the logical arrival time ℓ(m), the deadline ℓ(m)+d, and a bit mask of
// the output ports still owed a copy (Figure 5). Leaves correspond 1:1
// with packet-memory slots: a mask of zero means both the leaf and the
// memory slot are free.
//
// At the base of the tree, keys are normalized against the current slot
// clock t (Figure 4): on-time packets (ℓ ≤ t) sort by laxity, early
// packets by time-to-ℓ with the discriminator bit set, ineligible leaves
// get the all-ones key. At the top of the tree a final check decides
// whether a winning early packet falls within the link's horizon
// parameter h and may be sent ahead of its logical arrival time.
//
// The package provides five Scheduler implementations behind one
// interface and over one leaf table (leafTable, in baseline.go):
//
//   - EDFTree — the paper's design (deadline-driven with horizon).
//   - Tournament — the same decisions from a materialized comparator tree.
//   - FIFO — per-port FIFO order; the "no deadline hardware" baseline.
//   - StaticPriority — per-connection fixed priority, standing in for
//     priority-forwarding-style designs in ablations.
//   - ApproxEDF — EDF on quantized keys (the paper's Section 7 proposal).
package sched

import (
	"fmt"
	"math/bits"

	"repro/internal/timing"
)

// NumPorts is the number of output ports sharing the scheduler: the four
// mesh links plus the reception port.
const NumPorts = 5

// PortMask is a bit mask over output ports; bit i set means the packet is
// still owed to port i (multicast uses several bits).
type PortMask uint8

// AllPortsMask returns a mask with the low n bits set.
func AllPortsMask(n int) PortMask { return PortMask(1<<n - 1) }

// Has reports whether port p's bit is set.
func (m PortMask) Has(p int) bool { return m&(1<<p) != 0 }

// Clear returns m with port p's bit cleared.
func (m PortMask) Clear(p int) PortMask { return m &^ (1 << p) }

// Count returns the number of set bits.
func (m PortMask) Count() int { return bits.OnesCount8(uint8(m)) }

// Ports appends the set port indices to dst in ascending order and
// returns it. Pass dst[:0] to reuse a scratch slice without allocating.
func (m PortMask) Ports(dst []int) []int {
	for p := 0; m != 0; p++ {
		if m&1 != 0 {
			dst = append(dst, p)
		}
		m >>= 1
	}
	return dst
}

// Class is the service class a selection falls in (Table 1).
type Class int

const (
	// ClassNone means no packet is eligible for the port.
	ClassNone Class = iota
	// ClassOnTime is Queue 1: a packet past its logical arrival time,
	// served ahead of everything else.
	ClassOnTime
	// ClassEarly is Queue 3: a packet ahead of its logical arrival time
	// but within the link's horizon; served only when no on-time packet
	// and no best-effort flit awaits.
	ClassEarly
)

func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassOnTime:
		return "on-time"
	case ClassEarly:
		return "early"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Leaf is the per-packet scheduling state at the base of the comparator
// tree. The hardware stores only L, Dl, Mask and OutConn; EnqueueCycle is
// simulator bookkeeping for statistics.
type Leaf struct {
	InUse        bool
	L            timing.Stamp // logical arrival time ℓ(m)
	Dl           timing.Stamp // local deadline ℓ(m)+d
	Mask         PortMask
	OutConn      uint8 // connection identifier for the next hop
	InConn       uint8 // incoming identifier (simulator bookkeeping)
	EnqueueCycle int64
}

// Selection is the result of a scheduling decision for one port.
type Selection struct {
	Slot  int
	Class Class
	Key   timing.Key
}

// Scheduler is the interface the router's output ports program and query.
// Implementations must be deterministic: ties break toward the lowest
// slot index, as a hardware tree with index tie-breaking would.
type Scheduler interface {
	// Install places packet state into the given leaf/memory slot.
	Install(slot int, leaf Leaf) error
	// Select returns the best packet for the port at slot-clock t, given
	// the port's horizon parameter. Class is ClassNone if nothing is
	// eligible.
	Select(port int, t timing.Stamp, horizon uint32) Selection
	// ClearPort marks port's copy of the packet in slot transmitted and
	// reports whether the leaf (and memory slot) is now free.
	ClearPort(slot, port int) (empty bool, err error)
	// Leaf returns a copy of the leaf state for inspection.
	Leaf(slot int) Leaf
	// Occupancy returns the number of in-use leaves.
	Occupancy() int
	// Slots returns the leaf count.
	Slots() int
}

// IdleSkipper is implemented by schedulers whose empty-tree Select has
// closed-form side effects: SkipIdleSelects(n) must leave the scheduler
// bit-identical to n Select calls on an empty tree. The router's
// quiescence fast-forward requires it — a scheduler without the method
// disables cycle skipping for its router.
type IdleSkipper interface {
	SkipIdleSelects(n int64)
}

// EDFTree is the paper's scheduler: a comparator tree over all leaves
// with Figure 4 keys. In the chip only eligible leaves take part in a
// reduction; the software model keeps, per output port, a bitmap of the
// slots that still owe that port a copy and reduces over those alone,
// in ascending slot order. Tournament (in tree.go) mirrors the hardware
// structure and is tested equivalent.
type EDFTree struct {
	leafTable
	wheel timing.Wheel
	// owed[p] has bit s set exactly when leaves[s] is in use and its
	// mask holds port p: Install sets the bits of the leaf's mask,
	// ClearPort clears the one it transmits, and nothing else writes a
	// leaf, so Select visits the leaves a scan of all slots would pass.
	owed    [NumPorts][]uint64
	Overdue int64 // count of selections whose laxity clamped (robustness metric)
	Selects int64 // count of Select invocations (arbitration beats)
}

// NewEDFTree returns an EDF scheduler with the given number of leaf slots
// on the given clock wheel.
func NewEDFTree(slots int, wheel timing.Wheel) *EDFTree {
	t := &EDFTree{leafTable: newLeafTable(slots), wheel: wheel}
	words := (slots + 63) / 64
	index := make([]uint64, NumPorts*words)
	for p := range t.owed {
		t.owed[p] = index[p*words : (p+1)*words : (p+1)*words]
	}
	return t
}

// Wheel returns the clock wheel the tree sorts on.
func (t *EDFTree) Wheel() timing.Wheel { return t.wheel }

// Install implements Scheduler.
func (t *EDFTree) Install(slot int, leaf Leaf) error {
	if slot < 0 || slot >= len(t.leaves) {
		return fmt.Errorf("sched: slot %d out of range [0,%d)", slot, len(t.leaves))
	}
	if t.leaves[slot].InUse {
		return fmt.Errorf("sched: slot %d already in use", slot)
	}
	if leaf.Mask == 0 {
		return fmt.Errorf("sched: installing leaf with empty port mask")
	}
	if leaf.Mask&^AllPortsMask(NumPorts) != 0 {
		// No port could ever clear such a bit: the leaf would never free.
		return fmt.Errorf("sched: port mask %#x has bits beyond %d ports", uint8(leaf.Mask), NumPorts)
	}
	leaf.InUse = true
	t.leaves[slot] = leaf
	t.inUse++
	for m := uint8(leaf.Mask); m != 0; m &= m - 1 {
		t.owed[bits.TrailingZeros8(m)][slot>>6] |= 1 << (slot & 63)
	}
	return nil
}

// Select implements Scheduler. It performs the same min-reduction the
// hardware comparator tree performs, with the top-of-tree horizon check.
// A port outside [0, NumPorts) is owed nothing.
func (t *EDFTree) Select(port int, now timing.Stamp, horizon uint32) Selection {
	t.Selects++
	best := Selection{Slot: -1, Class: ClassNone, Key: t.wheel.KeyIneligible()}
	if port < 0 || port >= NumPorts {
		return best
	}
	for w, word := range t.owed[port] {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			lf := &t.leaves[i]
			k, early, overdue := t.wheel.SortKey(lf.L, lf.Dl, now)
			if overdue {
				t.Overdue++
			}
			// Strict compare over ascending slots: ties stay with the
			// lowest slot.
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
	}
	// Top-of-tree check: early winners ship only within the horizon.
	if best.Class == ClassEarly && !t.wheel.WithinHorizon(best.Key, horizon) {
		return Selection{Slot: -1, Class: ClassNone, Key: best.Key}
	}
	return best
}

// ClearPort implements Scheduler.
func (t *EDFTree) ClearPort(slot, port int) (bool, error) {
	if slot < 0 || slot >= len(t.leaves) {
		return false, fmt.Errorf("sched: slot %d out of range", slot)
	}
	lf := &t.leaves[slot]
	if !lf.InUse {
		return false, fmt.Errorf("sched: clearing free slot %d", slot)
	}
	if port < 0 || port >= NumPorts || !lf.Mask.Has(port) {
		return false, fmt.Errorf("sched: port %d bit already clear in slot %d", port, slot)
	}
	lf.Mask = lf.Mask.Clear(port)
	t.owed[port][slot>>6] &^= 1 << (slot & 63)
	if lf.Mask == 0 {
		*lf = Leaf{}
		t.inUse--
		return true, nil
	}
	return false, nil
}

// ResetTelemetry zeroes the running Select and Overdue counters without
// disturbing installed leaves; Router.ResetStats calls it so warmup
// exclusion covers the scheduler too.
func (t *EDFTree) ResetTelemetry() {
	t.Selects = 0
	t.Overdue = 0
}

// SkipIdleSelects implements IdleSkipper: an empty-tree Select only
// increments the beat counter (no leaf, no Overdue).
func (t *EDFTree) SkipIdleSelects(n int64) { t.Selects += n }
