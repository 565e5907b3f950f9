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

// buildSparse builds the sparse fixture on the given kernel: workers > 1
// is the pool (even at GOMAXPROCS=1), and control registers a barrier
// that keeps every component awake — the every-cycle loop.
func buildSparse(t *testing.T, w, h, workers, linkLat int, control bool) *core.Built {
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
		b.Net.Kernel.ForcePool(true)
	}
	if control {
		b.Net.Kernel.Register(keepAwake{})
	}
	return b
}

// keepAwake is a barrier component that does nothing: registered on a
// kernel, it keeps every component awake.
type keepAwake struct{}

func (keepAwake) Name() string   { return "keep-awake" }
func (keepAwake) Tick(sim.Cycle) {}

// isRouter selects the routers for Kernel.Activity.
func isRouter(c sim.Component) bool {
	_, ok := c.(*router.Router)
	return ok
}

// TestSparseMeshRestsAcrossWorkers: on the sparse fixture most routers
// are at rest — idle, or parked on held packets. The sequential kernel's
// wake list and the two-worker pool's per-tile wake lists leave them out
// until a wire, a push or a live beat wakes them; a kernel kept awake by
// a barrier ticks every one of them every cycle. Over the paper's
// one-cycle wires and over four-cycle ones (four-cycle epochs, eight-slot
// stamp rings), after every Run chunk of 1, 8 or 37 cycles, and through a
// RunUntil whose predicate reads the settled IdleTicks each cycle, the
// three must read exactly alike: counters, rest-tick counts, selections,
// sink counts and latency histograms. `make check` runs it under the race
// detector.
func TestSparseMeshRestsAcrossWorkers(t *testing.T) {
	for _, linkLat := range []int{1, 4} {
		legs := []*core.Built{buildSparse(t, 10, 10, 1, linkLat, true),
			buildSparse(t, 10, 10, 1, linkLat, false), buildSparse(t, 10, 10, 2, linkLat, false)}
		names := []string{"", "the sequential wake list", "the pooled wake list"}
		ctl := legs[0]
		chunks := []int64{1, 8, 37}
		for i := 0; ctl.Now() < 6000; i++ {
			for _, b := range legs {
				b.Run(chunks[i%len(chunks)])
			}
			want := observeSparse(ctl)
			for j, b := range legs[1:] {
				if !reflect.DeepEqual(observeSparse(b), want) {
					t.Fatalf("%d-cycle links, cycle %d: %s of the sparse mesh diverged from the every-cycle loop",
						linkLat, ctl.Now(), names[j+1])
				}
			}
		}
		idleSum := func(b *core.Built) int64 {
			var n int64
			for _, c := range b.Net.Coords() {
				n += b.Router(c).IdleTicks()
			}
			return n
		}
		target := idleSum(ctl) + 150*int64(len(ctl.Net.Coords()))
		okCtl := ctl.RunUntil(func() bool { return idleSum(ctl) >= target }, 1000)
		for j, b := range legs[1:] {
			ok := b.RunUntil(func() bool { return idleSum(b) >= target }, 1000)
			if !okCtl || ok != okCtl || b.Now() != ctl.Now() {
				t.Fatalf("%d-cycle links: RunUntil on idle ticks stopped %s at cycle %d (%v), the every-cycle loop at %d (%v)",
					linkLat, names[j+1], b.Now(), ok, ctl.Now(), okCtl)
			}
			if !reflect.DeepEqual(observeSparse(b), observeSparse(ctl)) {
				t.Fatalf("%d-cycle links: after RunUntil %s diverged from the every-cycle loop", linkLat, names[j+1])
			}
		}
		var idle, parked int64
		o := observeSparse(ctl)
		for i := range o.idle {
			idle += o.idle[i]
			parked += o.parked[i]
		}
		if sum := ctl.Summarize(); sum.TCDelivered == 0 || sum.TCMisses != 0 || idle == 0 || parked == 0 {
			t.Fatalf("%d-cycle links: %d delivered, %d missed, %d idle and %d parked ticks",
				linkLat, sum.TCDelivered, sum.TCMisses, idle, parked)
		}
		for j, b := range legs {
			if ticked, slept := b.Net.Kernel.Activity(isRouter); j > 0 && slept < ticked {
				t.Errorf("%d-cycle links: %s slept only %d of %d router-cycles", linkLat, names[j], slept, ticked+slept)
			}
			b.Close()
		}
	}
}

// TestSparseMeshRoutersSleep: on the 32×32 sparse mesh after warm-up, the
// wake lists sleep through at least 80 % of the router-cycles — the
// sequential kernel's and the two-worker pool's tiles alike — so a change
// that keeps resting routers awake on either engine fails here.
func TestSparseMeshRoutersSleep(t *testing.T) {
	for _, workers := range []int{1, 2} {
		b := buildSparse(t, 32, 32, workers, 1, false)
		b.Run(2000)
		t0, s0 := b.Net.Kernel.Activity(isRouter)
		b.Run(3000)
		t1, s1 := b.Net.Kernel.Activity(isRouter)
		b.Close()
		ticked, slept := t1-t0, s1-s0
		if ticked+slept != 3000*1024 {
			t.Fatalf("workers %d: %d router-cycles accounted, want %d", workers, ticked+slept, 3000*1024)
		}
		if share := float64(slept) / float64(ticked+slept); share < 0.8 {
			t.Errorf("workers %d: the wake lists slept %.1f %% of the router-cycles, want at least 80 %%", workers, 100*share)
		}
	}
}
