// Package timing implements the bounded-clock arithmetic at the heart of
// the real-time router's link scheduler.
//
// The router chip keeps an on-chip clock that ticks once per packet
// transmission time (one "slot" = 20 byte cycles in the paper). The clock
// register is deliberately narrow — 8 bits in the ISCA '96 design — so the
// packet sorting keys stay small and the comparator tree stays shallow.
// Logical arrival times and deadlines carried in packet headers are stamps
// on this wrapped clock. Section 4.3 of the paper shows that the router can
// still interpret stamps correctly across clock rollover, provided every
// connection keeps h(j-1)+d(j-1) and d(j) below half the clock range:
// at time t, any live stamp ℓ satisfies ℓ ∈ [t−d(j), t+h(j-1)+d(j-1)],
// a window narrower than half the wheel, so the sign of the modular
// difference disambiguates past from future.
//
// This package provides the Wheel type encapsulating that arithmetic and
// the 9-bit sorting keys of Figure 4:
//
//	on-time packet:  key = 0 ∥ (ℓ+d − t) mod 2^bits   (laxity)
//	early packet:    key = 1 ∥ (ℓ − t)   mod 2^bits   (time until ℓ)
//	ineligible:      key = all ones
//
// Normalizing keys against the current time t lets the rest of the
// comparator tree do plain unsigned comparisons even across rollover.
package timing

import "fmt"

// Slot is an absolute (unwrapped) slot count maintained by the simulation
// harness. The hardware never sees a Slot; it sees Stamps.
type Slot int64

// Stamp is a wrapped slot value as carried in packet headers and scheduler
// leaves. Only the low Wheel.Bits() bits are meaningful.
type Stamp uint32

// Key is a sorting key as computed at the base of the comparator tree:
// Bits()+1 wide, smaller is more urgent. The early/on-time discriminator
// occupies the top bit (Figure 4).
type Key uint32

// Wheel captures the width of the on-chip clock register and performs all
// modular comparisons. The paper's chip uses 8 bits; other widths are
// supported for the key-size/delay-range trade-off studies of Section 4.3.
type Wheel struct {
	bits uint
	mask uint32 // 2^bits − 1
	half uint32 // 2^(bits−1)
}

// NewWheel returns a Wheel with the given clock register width in bits.
// Widths outside [2, 30] are rejected: below 2 the eligibility window is
// degenerate, above 30 Key arithmetic would overflow uint32.
func NewWheel(bits uint) (Wheel, error) {
	if bits < 2 || bits > 30 {
		return Wheel{}, fmt.Errorf("timing: clock width %d bits out of range [2,30]", bits)
	}
	return Wheel{bits: bits, mask: 1<<bits - 1, half: 1 << (bits - 1)}, nil
}

// MustWheel is NewWheel for known-good constant widths.
func MustWheel(bits uint) Wheel {
	w, err := NewWheel(bits)
	if err != nil {
		panic(err)
	}
	return w
}

// Bits returns the clock register width.
func (w Wheel) Bits() uint { return w.bits }

// Range returns the number of distinct stamps, 2^bits.
func (w Wheel) Range() uint32 { return w.mask + 1 }

// HalfRange returns 2^(bits−1), the maximum usable delay window.
func (w Wheel) HalfRange() uint32 { return w.half }

// Wrap converts an absolute slot count to a wrapped stamp.
func (w Wheel) Wrap(s Slot) Stamp {
	return Stamp(uint32(uint64(s)) & w.mask)
}

// Add returns the stamp s advanced by d slots, modulo the wheel.
func (w Wheel) Add(s Stamp, d uint32) Stamp {
	return Stamp((uint32(s) + d) & w.mask)
}

// Sub returns the modular difference (a − b) mod 2^bits.
func (w Wheel) Sub(a, b Stamp) uint32 {
	return (uint32(a) - uint32(b)) & w.mask
}

// OnTime reports whether a packet with logical arrival time l has reached
// it at current time t, i.e. l ≤ t within the rollover window (Figure 6:
// with an 8-bit clock and t = 240, ℓ = 210 is on-time because
// (240−210) mod 256 = 30 < 128, while ℓ = 80 is early because
// (240−80) mod 256 = 160 ≥ 128 — it denotes a *future* arrival at
// 80+256k).
func (w Wheel) OnTime(l, t Stamp) bool {
	return w.Sub(t, l) < w.half
}

// Laxity returns the slots remaining until the deadline dl expires, given
// current time t. If the deadline has already passed (only possible for
// traffic that violated its reservation — the admission controller
// guarantees it cannot happen for admitted connections), Laxity clamps to
// zero so an overdue packet sorts as maximally urgent rather than wrapping
// to the far future. The clamp is a robustness deviation from the paper,
// which assumes admission control; see DESIGN.md §5.
func (w Wheel) Laxity(dl, t Stamp) (lax uint32, overdue bool) {
	d := w.Sub(dl, t)
	if d >= w.half {
		return 0, true
	}
	return d, false
}

// SignedDiff interprets the modular difference (a − b) mod 2^bits as a
// signed distance within the half-range window: differences of half the
// wheel or more denote a past stamp and come back negative. Under the
// Section 4.3 window invariant every live stamp sits within ± half a
// wheel of the current time, so the result is exact. SignedDiff(dl, t)
// is the signed slack against deadline dl at time t — zero means the
// deadline slot itself (still on time), negative means overdue.
func (w Wheel) SignedDiff(a, b Stamp) int64 {
	d := w.Sub(a, b)
	if d >= w.half {
		return int64(d) - int64(w.Range())
	}
	return int64(d)
}

// EarlyGap returns the slots remaining until logical arrival l, for an
// early packet, given current time t.
func (w Wheel) EarlyGap(l, t Stamp) uint32 {
	return w.Sub(l, t)
}

// earlyBit is the key discriminator: early keys sort above every on-time
// key.
func (w Wheel) earlyBit() Key { return Key(w.mask + 1) }

// KeyIneligible is the all-ones key assigned to leaves whose port bit is
// clear (or which are empty). Under the window invariant no real early
// packet can reach gap = 2^bits−1, so the value is unambiguous.
func (w Wheel) KeyIneligible() Key {
	return Key(w.mask) | w.earlyBit()
}

// SortKey computes the Figure 4 sorting key for a leaf with logical
// arrival l and deadline dl at current time t. It also reports the service
// class the key encodes and whether the deadline was already overdue.
func (w Wheel) SortKey(l, dl, t Stamp) (k Key, early bool, overdue bool) {
	if w.OnTime(l, t) {
		lax, over := w.Laxity(dl, t)
		return Key(lax), false, over
	}
	return Key(w.EarlyGap(l, t)) | w.earlyBit(), true, false
}

// IsEarlyKey reports whether key k encodes an early packet.
func (w Wheel) IsEarlyKey(k Key) bool { return k&w.earlyBit() != 0 }

// KeyGap extracts the time component of a key (laxity for on-time keys,
// gap-to-ℓ for early keys).
func (w Wheel) KeyGap(k Key) uint32 { return uint32(k) & w.mask }

// WithinHorizon reports whether an early key falls within horizon h: the
// packet may be transmitted ahead of its logical arrival time when the
// link would otherwise idle (top-of-tree check in Figure 5).
func (w Wheel) WithinHorizon(k Key, h uint32) bool {
	return w.IsEarlyKey(k) && w.KeyGap(k) <= h
}

// ValidDelay reports whether a per-hop delay budget d (or a combined
// h(j-1)+d(j-1) window) respects the rollover constraint of Section 4.3:
// it must be strictly less than half the clock range.
func (w Wheel) ValidDelay(d int64) bool {
	return d >= 0 && uint64(d) < uint64(w.half)
}

// SlotsPerPacket is the number of byte cycles in one slot for the paper's
// 20-byte time-constrained packets at one byte per cycle.
const SlotsPerPacket = 20

// CyclesToSlot converts a byte-cycle count to the slot it falls in, for a
// given packet time in cycles.
func CyclesToSlot(cycle int64, cyclesPerSlot int64) Slot {
	if cyclesPerSlot <= 0 {
		panic("timing: cyclesPerSlot must be positive")
	}
	return Slot(cycle / cyclesPerSlot)
}
