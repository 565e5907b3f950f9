package sched

import (
	"fmt"

	"repro/internal/timing"
)

// leafTable is the leaf array every scheduler embeds: a slot's leaf, the
// in-use count, install validation, and the mask-clear-and-free of
// ClearPort. The ablation schedulers (FIFO, StaticPriority, ApproxEDF,
// Tournament) add only their ordering rule; EDFTree also keeps its own
// Install and ClearPort, which are fused with the owed-leaf bitmaps the
// performance ledger times and refuse mask bits no port owns.
type leafTable struct {
	leaves []Leaf
	inUse  int
}

func newLeafTable(slots int) leafTable {
	if slots <= 0 {
		panic("sched: slots must be positive")
	}
	return leafTable{leaves: make([]Leaf, slots)}
}

// Install implements Scheduler.
func (t *leafTable) Install(slot int, leaf Leaf) error {
	if slot < 0 || slot >= len(t.leaves) {
		return fmt.Errorf("sched: slot %d out of range [0,%d)", slot, len(t.leaves))
	}
	if t.leaves[slot].InUse {
		return fmt.Errorf("sched: slot %d already in use", slot)
	}
	if leaf.Mask == 0 {
		return fmt.Errorf("sched: installing leaf with empty port mask")
	}
	leaf.InUse = true
	t.leaves[slot] = leaf
	t.inUse++
	return nil
}

// owes checks that slot holds a packet still owed to port.
func (t *leafTable) owes(slot, port int) error {
	if slot < 0 || slot >= len(t.leaves) {
		return fmt.Errorf("sched: slot %d out of range", slot)
	}
	if lf := &t.leaves[slot]; !lf.InUse || !lf.Mask.Has(port) {
		return fmt.Errorf("sched: invalid clear of slot %d port %d", slot, port)
	}
	return nil
}

// ClearPort implements Scheduler.
func (t *leafTable) ClearPort(slot, port int) (bool, error) {
	if err := t.owes(slot, port); err != nil {
		return false, err
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

// Leaf implements Scheduler.
func (t *leafTable) Leaf(slot int) Leaf { return t.leaves[slot] }

// Occupancy implements Scheduler.
func (t *leafTable) Occupancy() int { return t.inUse }

// Slots implements Scheduler.
func (t *leafTable) Slots() int { return len(t.leaves) }

// SkipIdleSelects implements IdleSkipper for the schedulers whose
// empty-table Select is a pure scan with no telemetry.
func (t *leafTable) SkipIdleSelects(int64) {}

// FIFO is an ablation scheduler: time-constrained packets leave each port
// in arrival order, with no deadline awareness. It models a conventional
// output-queued packet switch and is the "what if we drop the comparator
// tree" baseline for the miss-rate comparisons in EXPERIMENTS.md.
//
// Packets are always reported on-time (the hardware has no notion of
// logical arrival time), so the horizon argument is ignored and early
// traffic is never held back — one of the two behaviours the real-time
// design exists to fix (the other being deadline order).
type FIFO struct {
	leafTable
	queues [NumPorts][]int
}

// NewFIFO returns a FIFO scheduler with the given number of leaf slots.
func NewFIFO(slots int) *FIFO { return &FIFO{leafTable: newLeafTable(slots)} }

// Install implements Scheduler.
func (f *FIFO) Install(slot int, leaf Leaf) error {
	if err := f.leafTable.Install(slot, leaf); err != nil {
		return err
	}
	for p := 0; p < NumPorts; p++ {
		if leaf.Mask.Has(p) {
			f.queues[p] = append(f.queues[p], slot)
		}
	}
	return nil
}

// Select implements Scheduler: head of the port's FIFO, always on-time.
func (f *FIFO) Select(port int, _ timing.Stamp, _ uint32) Selection {
	q := f.queues[port]
	if len(q) == 0 {
		return Selection{Slot: -1, Class: ClassNone}
	}
	return Selection{Slot: q[0], Class: ClassOnTime}
}

// ClearPort implements Scheduler: only the head of the port's queue may
// leave.
func (f *FIFO) ClearPort(slot, port int) (bool, error) {
	if err := f.owes(slot, port); err != nil {
		return false, err
	}
	q := f.queues[port]
	if len(q) == 0 || q[0] != slot {
		return false, fmt.Errorf("sched: FIFO clear of slot %d which is not at head of port %d", slot, port)
	}
	f.queues[port] = q[1:]
	return f.leafTable.ClearPort(slot, port)
}

// StaticPriority is an ablation scheduler that serves time-constrained
// packets by a fixed per-connection priority rather than per-packet
// deadlines — the priority-resolution approach of priority-forwarding
// routers and priority virtual channels discussed in the paper's Related
// Work. The connection table's delay field is reused as the priority
// (smaller = more urgent); packets are always eligible (no logical
// arrival gating), and FIFO order breaks priority ties.
type StaticPriority struct {
	leafTable
	prio []uint8
	seq  []int64
	next int64
}

// NewStaticPriority returns a static-priority scheduler with the given
// number of leaf slots.
func NewStaticPriority(slots int) *StaticPriority {
	return &StaticPriority{
		leafTable: newLeafTable(slots),
		prio:      make([]uint8, slots),
		seq:       make([]int64, slots),
	}
}

// Install implements Scheduler. The leaf's deadline field carries the
// static priority: priority = ℓ+d − ℓ = the connection's delay parameter.
func (s *StaticPriority) Install(slot int, leaf Leaf) error {
	if err := s.leafTable.Install(slot, leaf); err != nil {
		return err
	}
	s.prio[slot] = uint8(leaf.Dl - leaf.L)
	s.seq[slot] = s.next
	s.next++
	return nil
}

// Select implements Scheduler: lowest priority value wins, FIFO within a
// priority level.
func (s *StaticPriority) Select(port int, _ timing.Stamp, _ uint32) Selection {
	best := -1
	for i := range s.leaves {
		if !s.leaves[i].InUse || !s.leaves[i].Mask.Has(port) {
			continue
		}
		if best < 0 || s.prio[i] < s.prio[best] ||
			(s.prio[i] == s.prio[best] && s.seq[i] < s.seq[best]) {
			best = i
		}
	}
	if best < 0 {
		return Selection{Slot: -1, Class: ClassNone}
	}
	return Selection{Slot: best, Class: ClassOnTime, Key: timing.Key(s.prio[best])}
}

// Compile-time interface checks.
var (
	_ Scheduler = (*EDFTree)(nil)
	_ Scheduler = (*FIFO)(nil)
	_ Scheduler = (*StaticPriority)(nil)
	_ Scheduler = (*Tournament)(nil)
	_ Scheduler = (*ApproxEDF)(nil)

	_ IdleSkipper = (*EDFTree)(nil)
	_ IdleSkipper = (*FIFO)(nil)
	_ IdleSkipper = (*StaticPriority)(nil)
	_ IdleSkipper = (*Tournament)(nil)
	_ IdleSkipper = (*ApproxEDF)(nil)
)
