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
// EDFTree is that one tree. Its Order sets what the comparators compare:
// the paper's deadline order, or one of the orders the §6 ablations
// (FIFO, static priority) and the §7 approximate scheduler swap in.
// KeyClass is Table 1's class rule, shared by every order and by the
// router. The package's tests add a structural tree that materializes
// every comparator, the oracle for the reduction the chip performs;
// tree.go holds the tree's cost model.
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
	// ClassHeld is a packet ahead of its logical arrival time by more
	// than the link's horizon: ineligible by design until ℓ − h.
	ClassHeld
)

func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassOnTime:
		return "on-time"
	case ClassEarly:
		return "early"
	case ClassHeld:
		return "held"
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
	// Key is what the order compared: the Figure 4 key under OrderEDF
	// and OrderApprox, the priority Dl − ℓ under OrderStatic, 0 under
	// OrderFIFO.
	Key timing.Key
	// Quiet, on a ClassNone selection, is how many slots the port stays
	// quiet: Select on it with the same horizon at each of the next Quiet
	// slots — this one included — returns ClassNone and counts no
	// Overdue, unless an Install owes the port a leaf first (a ClearPort
	// only removes owed leaves, so it cannot shorten the span).
	// QuietForever means until then.
	Quiet uint32
}

// QuietForever is the Quiet of a port owed no leaf at all.
const QuietForever = ^uint32(0)

// KeyClass is Table 1's class rule: a leaf whose Figure 4 key is k is
// on time once ℓ has passed, early while ℓ lies within horizon slots,
// and held beyond that. It is the one copy of the rule: the tree applies
// it to its winner under every Order, and the router's transmit stage,
// cut-through check and forensics call it too. Under every order it
// classifies by ℓ and the horizon, so a FIFO or static-priority router
// still holds an early packet until ℓ − h (see OrderFIFO).
func KeyClass(w timing.Wheel, k timing.Key, horizon uint32) Class {
	switch {
	case !w.IsEarlyKey(k):
		return ClassOnTime
	case w.KeyGap(k) <= horizon:
		return ClassEarly
	}
	return ClassHeld
}

// LeafClass is KeyClass of the leaf (ℓ, Dl) at slot now.
func LeafClass(w timing.Wheel, l, dl, now timing.Stamp, horizon uint32) Class {
	k, _, _ := w.SortKey(l, dl, now)
	return KeyClass(w, k, horizon)
}

// Order is what the tree's comparators compare. Every order walks the
// leaves owed to a port in ascending slot order with strict compares, so
// ties go to the lowest slot, as in a hardware tree with index
// tie-breaking.
type Order uint8

const (
	// OrderEDF is the paper's design: Figure 4 keys, then the
	// top-of-tree horizon check.
	OrderEDF Order = iota
	// OrderFIFO serves each port's leaves in install order, with no
	// deadline hardware in the tree: the output-queued switch of the X2
	// ablation. The tree has no top-of-tree check under it and offers
	// the head whatever its class; but the class rule still holds a
	// staged packet early beyond its horizon until ℓ − h. X2's "FIFO
	// output-queued" row measures FIFO order behind that logical-arrival
	// regulator, not a work-conserving FIFO: with the rule returning on
	// time under FIFO and static, `rtbench -exp compare` (200 000 cycles)
	// reads FIFO tight misses 100.0 % → 0.0 %, FIFO tight mean 639 → 112
	// cycles, FIFO loose mean 719 → 183, static loose mean 739 → 185.
	OrderFIFO
	// OrderStatic serves by a fixed per-connection priority, the
	// connection's delay Dl − ℓ measured on the wheel (smaller first),
	// install order within a level: the priority-resolution designs of
	// the paper's Related Work. Like OrderFIFO it has no top-of-tree
	// check and sits behind the same regulator.
	OrderStatic
	// OrderApprox is the paper's §7 reduced-complexity scheduler: leaves
	// early beyond the horizon by their exact gap drop out, and the rest
	// compare (class, gap >> shift), so keys in one 2^shift-slot bucket
	// serve lowest slot first. The class bit and the horizon stay exact;
	// only deadline order inside a bucket is lost.
	OrderApprox
)

func (o Order) String() string {
	switch o {
	case OrderEDF:
		return "edf"
	case OrderFIFO:
		return "fifo"
	case OrderStatic:
		return "static-priority"
	case OrderApprox:
		return "approx-edf"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// Scheduler is the read-only view of the tree that code outside the
// router inspects.
type Scheduler interface {
	// Leaf returns a copy of the leaf state for inspection.
	Leaf(slot int) Leaf
	// Occupancy returns the number of in-use leaves.
	Occupancy() int
	// Slots returns the leaf count.
	Slots() int
}

// seqBits is the width of the install sequence in a rank; OrderStatic's
// priority sits above it.
const seqBits = 56

// EDFTree is the paper's scheduler: a comparator tree over all leaves.
// In the chip only eligible leaves take part in a reduction; the software
// model keeps, per output port, a bitmap of the slots that still owe that
// port a copy and reduces over those alone, in ascending slot order. The
// tests' structural tree mirrors the hardware reduction and is checked
// equivalent.
type EDFTree struct {
	leaves []Leaf
	inUse  int
	wheel  timing.Wheel
	order  Order
	shift  uint // OrderApprox: the key bits the comparators drop
	// rank[s] is what OrderFIFO and OrderStatic compare: the install
	// sequence, with OrderStatic's priority above it, so no two leaves
	// tie. nil under the other orders.
	rank []uint64
	seq  uint64
	// owed[p] has bit s set exactly when leaves[s] is in use and its
	// mask holds port p: Install sets the bits of the leaf's mask,
	// ClearPort clears the one it transmits, and nothing else writes a
	// leaf, so Select visits the leaves a scan of all slots would pass.
	owed    [NumPorts][]uint64
	Overdue int64 // count of owed leaves Select keyed with laxity clamped (EDF, approx)
	Selects int64 // count of Select invocations (arbitration beats)
}

// NewEDFTree returns an EDF scheduler with the given number of leaf slots
// on the given clock wheel.
func NewEDFTree(slots int, wheel timing.Wheel) *EDFTree {
	t, err := NewTree(slots, wheel, OrderEDF, 0)
	if err != nil {
		panic(err)
	}
	return t
}

// NewTree returns a tree of the given order. shift is the key bits
// OrderApprox drops (0 is exact EDF); the other orders ignore it.
func NewTree(slots int, wheel timing.Wheel, order Order, shift uint) (*EDFTree, error) {
	switch {
	case slots <= 0:
		return nil, fmt.Errorf("sched: slots must be positive")
	case order > OrderApprox:
		return nil, fmt.Errorf("sched: unknown order %v", order)
	case order == OrderApprox && shift >= wheel.Bits():
		return nil, fmt.Errorf("sched: quantization of %d bits leaves no key on a %d-bit clock",
			shift, wheel.Bits())
	}
	t := &EDFTree{leaves: make([]Leaf, slots), wheel: wheel, order: order}
	switch order {
	case OrderApprox:
		t.shift = shift
	case OrderFIFO, OrderStatic:
		t.rank = make([]uint64, slots)
	}
	words := (slots + 63) / 64
	index := make([]uint64, NumPorts*words)
	for p := range t.owed {
		t.owed[p] = index[p*words : (p+1)*words : (p+1)*words]
	}
	return t, nil
}

// Wheel returns the clock wheel the tree sorts on.
func (t *EDFTree) Wheel() timing.Wheel { return t.wheel }

// Leaf implements Scheduler.
func (t *EDFTree) Leaf(slot int) Leaf { return t.leaves[slot] }

// Occupancy implements Scheduler.
func (t *EDFTree) Occupancy() int { return t.inUse }

// Slots implements Scheduler.
func (t *EDFTree) Slots() int { return len(t.leaves) }

// Install places packet state into the given leaf/memory slot.
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
	if t.rank != nil {
		t.rank[slot] = t.seq
		t.seq++
		if t.order == OrderStatic {
			t.rank[slot] |= uint64(uint8(t.wheel.Sub(leaf.Dl, leaf.L))) << seqBits
		}
	}
	return nil
}

// Select returns the best packet for the port at slot-clock now, given
// the port's horizon parameter, and counts the beat. Class is ClassNone
// (Slot −1) if nothing is eligible; such a selection reports a Quiet
// span, over which the caller may replay the port's selections through
// SkipIdleSelects instead. Under OrderEDF and OrderApprox the top-of-tree
// check turns a held winner into ClassNone; OrderFIFO and OrderStatic
// have no such check and offer it as ClassHeld. A port outside
// [0, NumPorts) is owed nothing.
func (t *EDFTree) Select(port int, now timing.Stamp, horizon uint32) Selection {
	t.Selects++
	sel, overdue := t.reduce(port, now, horizon)
	t.Overdue += overdue
	if sel.Class == ClassHeld && t.rank == nil { // EDF and approx: the top-of-tree check
		// Every owed leaf is early beyond the horizon (approx dropped
		// them all; under EDF the winner is the nearest), and each one's
		// gap to ℓ shrinks by one a slot, so the best gap reaches the
		// horizon — and the port its first candidate — after
		// gap − horizon slots; until then no leaf is on time, so none
		// counts as overdue.
		return Selection{Slot: -1, Class: ClassNone, Key: sel.Key,
			Quiet: t.wheel.KeyGap(sel.Key) - horizon}
	}
	return sel
}

// Peek is Select without telemetry and without the top-of-tree check: a
// held winner keeps its slot as ClassHeld. The router's forensics ask it
// which leaf the port serves next.
func (t *EDFTree) Peek(port int, now timing.Stamp, horizon uint32) Selection {
	sel, _ := t.reduce(port, now, horizon)
	return sel
}

// reduce is the one walk behind Select and Peek: the order's winner
// among the leaves owed to port, classed by KeyClass, and how many of
// the leaves it keyed were overdue. A port owed nothing gets Slot −1,
// ClassNone and QuietForever.
func (t *EDFTree) reduce(port int, now timing.Stamp, horizon uint32) (Selection, int64) {
	none := Selection{Slot: -1, Class: ClassNone, Key: t.wheel.KeyIneligible(), Quiet: QuietForever}
	if port < 0 || port >= NumPorts {
		return none, 0
	}
	switch t.order {
	case OrderEDF:
		best, overdue := none, int64(0)
		for w, word := range t.owed[port] {
			for ; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				lf := &t.leaves[i]
				k, _, over := t.wheel.SortKey(lf.L, lf.Dl, now)
				if over {
					overdue++
				}
				if k < best.Key {
					best.Key, best.Slot = k, i
				}
			}
		}
		if best.Slot >= 0 {
			best.Class, best.Quiet = KeyClass(t.wheel, best.Key, horizon), 0
		}
		return best, overdue
	case OrderApprox:
		return t.reduceApprox(port, now, horizon)
	}
	i, r := t.head(port)
	if i < 0 {
		return none, 0
	}
	lf := &t.leaves[i]
	return Selection{Slot: i, Class: LeafClass(t.wheel, lf.L, lf.Dl, now, horizon),
		Key: timing.Key(r >> seqBits)}, 0
}

// reduceApprox is OrderApprox's walk: leaves held by their exact gap
// drop out (the nearest one is kept for a held result), and the rest
// compare (class, gap >> shift).
func (t *EDFTree) reduceApprox(port int, now timing.Stamp, horizon uint32) (Selection, int64) {
	best := Selection{Slot: -1, Class: ClassNone, Key: t.wheel.KeyIneligible()}
	held := Selection{Slot: -1, Class: ClassHeld, Key: t.wheel.KeyIneligible()}
	var bestQ uint64
	var overdue int64
	for w, word := range t.owed[port] {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			lf := &t.leaves[i]
			k, _, over := t.wheel.SortKey(lf.L, lf.Dl, now)
			if over {
				overdue++
			}
			c := KeyClass(t.wheel, k, horizon)
			if c == ClassHeld {
				if k < held.Key {
					held.Key, held.Slot = k, i
				}
				continue
			}
			if q := uint64(c)<<32 | uint64(t.wheel.KeyGap(k)>>t.shift); best.Slot < 0 || q < bestQ {
				best, bestQ = Selection{Slot: i, Class: c, Key: k}, q
			}
		}
	}
	switch {
	case best.Slot >= 0:
		return best, overdue
	case held.Slot >= 0:
		return held, overdue
	}
	best.Quiet = QuietForever
	return best, overdue
}

// head is the lowest-ranked leaf owed to port under OrderFIFO or
// OrderStatic, with its rank; −1 if none is.
func (t *EDFTree) head(port int) (int, uint64) {
	best, bestR := -1, uint64(0)
	for w, word := range t.owed[port] {
		for ; word != 0; word &= word - 1 {
			if i := w<<6 | bits.TrailingZeros64(word); best < 0 || t.rank[i] < bestR {
				best, bestR = i, t.rank[i]
			}
		}
	}
	return best, bestR
}

// ClearPort marks port's copy of the packet in slot transmitted and
// reports whether the leaf (and memory slot) is now free. Under
// OrderFIFO only the head of the port's queue may leave.
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
	if t.order == OrderFIFO {
		if h, _ := t.head(port); h != slot {
			return false, fmt.Errorf("sched: FIFO clear of slot %d which is not at head of port %d", slot, port)
		}
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

// SkipIdleSelects(n) leaves the tree bit-identical to n Select calls
// that return ClassNone inside a Quiet span: such a Select only
// increments the beat counter (no leaf on time, so no Overdue). On an
// empty tree every port is quiet forever. The router's rest ticks replay
// idle and parked beats through it, the kernel's skips idle ones.
func (t *EDFTree) SkipIdleSelects(n int64) { t.Selects += n }
