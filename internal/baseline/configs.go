package baseline

import (
	"repro/internal/router"
	"repro/internal/sched"
)

// FIFOConfig returns the real-time router reconfigured as an
// output-queued packet switch: arrival-order service, no deadline order
// in the tree. This is the "drop the comparator tree" ablation; the
// router still holds early packets until ℓ − h (sched.OrderFIFO).
func FIFOConfig() router.Config {
	cfg := router.DefaultConfig()
	cfg.Scheduler = sched.OrderFIFO
	return cfg
}

// StaticPriorityConfig returns the real-time router reconfigured to
// serve time-constrained packets by fixed per-connection priority with
// no logical-arrival gating — the behavioural analog of designs that
// resolve priority through dedicated virtual channels (Related Work
// [3,4,17]): priorities are static and granularity is per connection
// (early packets are still held until ℓ − h, as under FIFOConfig).
func StaticPriorityConfig() router.Config {
	cfg := router.DefaultConfig()
	cfg.Scheduler = sched.OrderStatic
	return cfg
}
