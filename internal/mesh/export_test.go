package mesh

import "repro/internal/router"

// TotalStats sums a statistic across all routers. f receives a pointer
// to each router's live Stats struct (no copying); it must only read.
func (n *Network) TotalStats(f func(*router.Stats) int64) int64 {
	var total int64
	for _, r := range n.routers {
		total += f(&r.Stats)
	}
	return total
}

// MustNewLoopback is NewLoopback for known-good configurations.
func MustNewLoopback(cfg router.Config) *Loopback {
	l, err := NewLoopback(cfg)
	if err != nil {
		panic(err)
	}
	return l
}
