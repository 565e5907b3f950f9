package traffic

import "repro/internal/sim"

// PeriodicSource calls fire once every period cycles, starting at cycle
// 0, with a running sequence number. It is the injection clock of the
// rigs that drive routers directly — the rival fabrics of X2, the ring,
// the skewed pair — rather than through an admitted channel's
// regulator. It implements sim.Component and must tick before the
// router it injects into.
type PeriodicSource struct {
	name   string
	period int64
	fire   func(now sim.Cycle, seq uint32)
	next   int64
	seq    uint32
}

// NewPeriodicSource creates a source firing every period cycles (every
// cycle, for a period below 1).
func NewPeriodicSource(name string, period int64, fire func(now sim.Cycle, seq uint32)) *PeriodicSource {
	return &PeriodicSource{name: name, period: period, fire: fire}
}

// Name implements sim.Component.
func (s *PeriodicSource) Name() string { return s.name }

// Tick implements sim.Component.
func (s *PeriodicSource) Tick(now sim.Cycle) {
	if int64(now) < s.next {
		return
	}
	s.next = int64(now) + s.period
	s.fire(now, s.seq)
	s.seq++
}
