package experiments

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/sim"
)

// sparseObs is everything the sparse-mesh differential compares: per
// router the counters, the rest-tick counts and the comparator tree's
// selections, and per sink the delivery counts and latency histograms.
type sparseObs struct {
	stats            []router.Stats
	idle, parked     []int64
	selects, overdue []int64
	tc, be           []int64
	tcLat, beLat     []string
}

func observeSparse(b *core.Built) sparseObs {
	var o sparseObs
	for _, c := range b.Net.Coords() {
		r, s := b.Router(c), b.Sink(c)
		tree := r.Scheduler().(*sched.EDFTree)
		o.stats = append(o.stats, r.Stats)
		o.idle = append(o.idle, r.IdleTicks())
		o.parked = append(o.parked, r.ParkedTicks())
		o.selects = append(o.selects, tree.Selects)
		o.overdue = append(o.overdue, tree.Overdue)
		o.tc, o.be = append(o.tc, s.TCCount), append(o.be, s.BECount)
		o.tcLat, o.beLat = append(o.tcLat, s.TCLatency.String()), append(o.beLat, s.BELatency.String())
	}
	return o
}

func buildSparse(t *testing.T, w, h, workers, linkLat int) *core.Built {
	t.Helper()
	fx := SparseMesh(w, h)
	fx.Options.Workers = workers
	fx.Options.Router = router.DefaultConfig()
	fx.Options.Router.LinkLatency = linkLat
	b, err := fx.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	if workers > 1 {
		b.Net.Kernel.ForcePool(true) // pool even at GOMAXPROCS=1
	}
	return b
}

// isRouter selects the routers for Kernel.Activity.
func isRouter(c sim.Component) bool {
	_, ok := c.(*router.Router)
	return ok
}

// TestSparseMeshRestsAcrossWorkers: on the sparse fixture most routers
// are at rest — idle, or parked on held packets. The sequential kernel's
// wake list leaves them out until a wire, a push or a live beat wakes
// them; the two-worker pool ticks every one of them every cycle (over the
// paper's one-cycle wires) or skips whole tiles (over four-cycle ones,
// with four-cycle epochs and eight-slot stamp rings). After every Run
// chunk of 1, 8 or 37 cycles, and through a RunUntil whose predicate
// reads the settled IdleTicks each cycle, the sequential run must read
// exactly as the pooled one: counters, rest-tick counts, selections,
// sink counts and latency histograms. `make check` runs it under the
// race detector.
func TestSparseMeshRestsAcrossWorkers(t *testing.T) {
	for _, linkLat := range []int{1, 4} {
		seq, par := buildSparse(t, 10, 10, 1, linkLat), buildSparse(t, 10, 10, 2, linkLat)
		chunks := []int64{1, 8, 37}
		for i := 0; seq.Now() < 6000; i++ {
			n := chunks[i%len(chunks)]
			seq.Run(n)
			par.Run(n)
			if a, b := observeSparse(seq), observeSparse(par); !reflect.DeepEqual(a, b) {
				t.Fatalf("%d-cycle links, cycle %d: the sequential run of the sparse mesh diverged from the two-worker run",
					linkLat, seq.Now())
			}
		}
		idleSum := func(b *core.Built) int64 {
			var n int64
			for _, c := range b.Net.Coords() {
				n += b.Router(c).IdleTicks()
			}
			return n
		}
		target := idleSum(seq) + 150*int64(len(seq.Net.Coords()))
		okSeq := seq.RunUntil(func() bool { return idleSum(seq) >= target }, 1000)
		okPar := par.RunUntil(func() bool { return idleSum(par) >= target }, 1000)
		if !okSeq || okSeq != okPar || seq.Now() != par.Now() {
			t.Fatalf("%d-cycle links: RunUntil on idle ticks stopped at cycle %d (%v), the pool at %d (%v)",
				linkLat, seq.Now(), okSeq, par.Now(), okPar)
		}
		if a, b := observeSparse(seq), observeSparse(par); !reflect.DeepEqual(a, b) {
			t.Fatalf("%d-cycle links: after RunUntil the sequential run diverged from the two-worker run", linkLat)
		}
		var idle, parked int64
		o := observeSparse(seq)
		for i := range o.idle {
			idle += o.idle[i]
			parked += o.parked[i]
		}
		if sum := seq.Summarize(); sum.TCDelivered == 0 || sum.TCMisses != 0 || idle == 0 || parked == 0 {
			t.Fatalf("%d-cycle links: %d delivered, %d missed, %d idle and %d parked ticks",
				linkLat, sum.TCDelivered, sum.TCMisses, idle, parked)
		}
		seq.Close()
		par.Close()
	}
}

// TestSparseMeshRoutersSleep: on the 32×32 sparse mesh after warm-up, the
// wake list sleeps through at least 80 % of the router-cycles, so a
// change that keeps resting routers awake fails here.
func TestSparseMeshRoutersSleep(t *testing.T) {
	b := buildSparse(t, 32, 32, 1, 1)
	defer b.Close()
	b.Run(2000)
	t0, s0 := b.Net.Kernel.Activity(isRouter)
	b.Run(3000)
	t1, s1 := b.Net.Kernel.Activity(isRouter)
	ticked, slept := t1-t0, s1-s0
	if ticked+slept != 3000*1024 {
		t.Fatalf("%d router-cycles accounted, want %d", ticked+slept, 3000*1024)
	}
	if share := float64(slept) / float64(ticked+slept); share < 0.8 {
		t.Errorf("the wake list slept %.1f %% of the router-cycles, want at least 80 %%", 100*share)
	}
}
