package experiments

import (
	"reflect"
	"testing"

	"repro/internal/router"
)

// TestSparseMeshRestsAcrossWorkers: on the sparse fixture most routers
// are at rest — idle, or parked on held packets — so what they learn of
// their wires comes from the stamp blocks their neighbours' pipes write
// into. A two-worker run must still reproduce the one-worker run's
// counters and rest-tick counts exactly, over the paper's one-cycle
// wires (per-cycle barriers) and over four-cycle ones (four-cycle
// epochs, eight-slot stamp rings); `make check` runs it under the race
// detector.
func TestSparseMeshRestsAcrossWorkers(t *testing.T) {
	type obs struct {
		stats        []router.Stats
		idle, parked []int64
	}
	run := func(workers, linkLat int) obs {
		fx := SparseMesh(10, 10)
		fx.Options.Workers = workers
		fx.Options.Router = router.DefaultConfig()
		fx.Options.Router.LinkLatency = linkLat
		b, err := fx.BuildAll()
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		b.Net.Kernel.ForcePool(true) // pool even at GOMAXPROCS=1
		b.Run(6000)
		var o obs
		var idle, parked int64
		for _, c := range b.Net.Coords() {
			r := b.Router(c)
			o.stats = append(o.stats, r.Stats)
			o.idle = append(o.idle, r.IdleTicks())
			o.parked = append(o.parked, r.ParkedTicks())
			idle += r.IdleTicks()
			parked += r.ParkedTicks()
		}
		if sum := b.Summarize(); sum.TCDelivered == 0 || sum.TCMisses != 0 || idle == 0 || parked == 0 {
			t.Fatalf("workers %d, %d-cycle links: %d delivered, %d missed, %d idle and %d parked ticks",
				workers, linkLat, sum.TCDelivered, sum.TCMisses, idle, parked)
		}
		return o
	}
	for _, linkLat := range []int{1, 4} {
		if seq, par := run(1, linkLat), run(2, linkLat); !reflect.DeepEqual(seq, par) {
			t.Errorf("%d-cycle links: two-worker run of the sparse mesh diverged from the one-worker run", linkLat)
		}
	}
}
