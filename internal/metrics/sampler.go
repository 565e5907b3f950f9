package metrics

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Sampler periodically snapshots registry totals into a
// stats.TimeSeries, producing Figure 7-style curves of the network's
// internal state (occupancy, wins, misses, stalls) over the run. It
// implements sim.Component; register it after the routers so samples
// reflect the cycle just executed. The kernel runs it as a barrier —
// every router is between ticks — so each beat first folds the routers'
// counts into the registry (the fold function) and then reads it.
type Sampler struct {
	name  string
	reg   *Registry
	every int64
	fold  func()

	// TS receives one point per sampled quantity per period.
	TS *stats.TimeSeries
}

// NewSampler creates a sampler emitting one point every `every` cycles
// (clamped to at least 1). fold brings the registry up to date before
// each point; core.System passes the fold of its routers.
func NewSampler(name string, reg *Registry, every int64, fold func()) *Sampler {
	if every < 1 {
		every = 1
	}
	return &Sampler{name: name, reg: reg, every: every, fold: fold, TS: stats.NewTimeSeries()}
}

// Name implements sim.Component.
func (s *Sampler) Name() string { return s.name }

// Every returns the sampling period in cycles.
func (s *Sampler) Every() int64 { return s.every }

// Tick implements sim.Component.
func (s *Sampler) Tick(now sim.Cycle) {
	t := int64(now)
	if t%s.every != 0 {
		return
	}
	s.fold()
	s.reg.Cycles.Store(t + 1)
	snap := s.reg.Snapshot()
	tot := snap.Totals
	obs := func(name string, v int64) { s.TS.Observe(name, t, float64(v)) }
	obs("tc_enqueued", tot.TCEnqueued)
	obs("tc_delivered", tot.TCDelivered)
	obs("be_delivered", tot.BEDelivered)
	obs("deadline_misses", tot.DeadlineMisses)
	obs("mem_occupancy", tot.MemOccupancy)
	obs("mem_high_water", tot.MemHighWater)
	obs("sched_occupancy", tot.SchedOccupancy)
	obs("slot_rollovers", tot.SlotRollovers)
	obs("cut_throughs", tot.CutThroughs)
	var onTime, early, be, stalls, drops int64
	for _, wins := range tot.ArbWins {
		onTime += wins[ArbOnTime.String()]
		early += wins[ArbEarly.String()]
		be += wins[ArbBE.String()]
	}
	for _, v := range tot.BEStallCycles {
		stalls += v
	}
	for _, v := range tot.Drops {
		drops += v
	}
	obs("arb_on_time", onTime)
	obs("arb_early", early)
	obs("arb_best_effort", be)
	obs("be_stall_cycles", stalls)
	obs("drops", drops)
}
