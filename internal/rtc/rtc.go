// Package rtc implements the real-time channel abstraction (Section 2 of
// the paper, after Kandlur, Shin & Ferrari): unidirectional virtual
// connections with a linear bounded arrival process at the source, an
// end-to-end delay bound decomposed into per-hop bounds, and
// logical-arrival-time bookkeeping that insulates well-behaved
// connections from ill-behaved ones.
//
// All times are in slots — one slot is one time-constrained packet
// transmission time (20 byte cycles) — matching the router's on-chip
// clock. The structures here are the "protocol software" side of the
// design: they run on the node processor and program the router chip
// through its control interface.
package rtc

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/timing"
)

// Spec is a connection's traffic contract and performance requirement.
type Spec struct {
	// Imin is the minimum temporal spacing between messages, in slots.
	Imin int64
	// Smax is the maximum message size in bytes; messages larger than
	// one packet payload occupy multiple consecutive packets.
	Smax int
	// Bmax is the maximum burst: the number of messages a source may
	// generate in excess of the periodic restriction. Bursts are absorbed
	// by logical arrival times (they queue logically at the source), so
	// Bmax affects source buffering, not the per-link guarantees.
	Bmax int
	// D is the end-to-end delay bound relative to logical arrival, in
	// slots.
	D int64
}

// Validate reports the first contract error, if any.
func (s Spec) Validate() error {
	switch {
	case s.Imin < 1:
		return fmt.Errorf("rtc: Imin %d must be at least one slot", s.Imin)
	case s.Smax < 1:
		return fmt.Errorf("rtc: Smax %d must be positive", s.Smax)
	case s.Bmax < 0:
		return fmt.Errorf("rtc: Bmax %d must be non-negative", s.Bmax)
	case s.D < 1:
		return fmt.Errorf("rtc: delay bound %d must be positive", s.D)
	}
	if s.MessageSlots() > s.Imin {
		return fmt.Errorf("rtc: message transmission time %d slots exceeds Imin %d (utilization > 1 at the source)",
			s.MessageSlots(), s.Imin)
	}
	return nil
}

// PacketsPerMessage returns how many fixed-size packets carry one
// maximum-size message.
func (s Spec) PacketsPerMessage() int {
	return (s.Smax + packet.TCPayloadBytes - 1) / packet.TCPayloadBytes
}

// MessageSlots is the link time of one message: the scheduling cost C in
// the per-link admission test.
func (s Spec) MessageSlots() int64 { return int64(s.PacketsPerMessage()) }

// Utilization is the fraction of one link's slots the contract reserves
// in the worst case: C/Imin, the per-connection term the admission
// test's utilization check sums.
func (s Spec) Utilization() float64 {
	return float64(s.MessageSlots()) / float64(s.Imin)
}

// Source computes logical arrival times at the connection's source node:
//
//	ℓ0(m_i) = t_i                          if i = 0
//	ℓ0(m_i) = max(ℓ0(m_{i−1}) + Imin, t_i) if i > 0
//
// Basing all guarantees on ℓ0 rather than the actual generation time t_i
// is what bounds the influence of a bursty or malicious source.
type Source struct {
	spec    Spec
	lastL   timing.Slot
	started bool
	count   int64
}

// NewSource returns a logical-arrival clock for one connection.
func NewSource(spec Spec) *Source { return &Source{spec: spec} }

// Next assigns the logical arrival time for a message generated at slot t.
func (s *Source) Next(t timing.Slot) timing.Slot {
	if !s.started {
		s.started = true
		s.lastL = t
		s.count = 1
		return t
	}
	l := s.lastL + timing.Slot(s.spec.Imin)
	if t > l {
		l = t
	}
	s.lastL = l
	s.count++
	return l
}

// Messages returns how many messages have been assigned arrival times.
func (s *Source) Messages() int64 { return s.count }

// Backlog returns how far the logical clock runs ahead of slot t — the
// number of slots of queued work a backlogged source has accumulated.
func (s *Source) Backlog(t timing.Slot) int64 {
	if !s.started || s.lastL <= t {
		return 0
	}
	return int64(s.lastL - t)
}

// BufferBound is the worst-case number of messages from one connection
// resident at hop j simultaneously (Section 2): packets can arrive up to
// h(j−1)+d(j−1) slots early and leave up to d(j) slots late, so
//
//	⌈(h(j−1)+d(j−1)+d(j)) / Imin⌉
//
// messages may coexist. At the source router, the regulator window takes
// the place of h+d of the (nonexistent) previous hop. The result is in
// packets.
func BufferBound(prevWindow, dj int64, spec Spec) int {
	msgs := (prevWindow + dj + spec.Imin - 1) / spec.Imin
	if msgs < 1 {
		msgs = 1
	}
	return int(msgs) * spec.PacketsPerMessage()
}
