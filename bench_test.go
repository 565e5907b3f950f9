// Benchmarks, one per paper table/figure plus the extension studies
// (DESIGN.md §4 maps each to its experiment driver). Macro benchmarks
// report the wall time of a full experiment run and domain metrics via
// ReportMetric; micro benchmarks cover the hardware-critical paths
// (sorting keys, comparator-tree selection, router cycle rate).
package repro

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/timing"
)

// BenchmarkE1WormholeBaseline regenerates the Section 5.2 latency model
// (paper: 30 + b cycles; Table E1 in EXPERIMENTS.md).
func BenchmarkE1WormholeBaseline(b *testing.B) {
	sizes := []int{16, 64, 256, 1024}
	var overhead int64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE1(router.DefaultConfig(), sizes)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Linear {
			b.Fatal("latency not linear")
		}
		overhead = res.Overhead
	}
	b.ReportMetric(float64(overhead), "overhead-cycles")
}

// BenchmarkFig7MixedTraffic regenerates the Figure 7 service-share
// experiment and reports the achieved link utilization.
func BenchmarkFig7MixedTraffic(b *testing.B) {
	var util float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7(experiments.DefaultFig7())
		if err != nil {
			b.Fatal(err)
		}
		if res.Misses != 0 {
			b.Fatalf("misses: %d", res.Misses)
		}
		var tc float64
		for _, v := range res.TCTotal {
			tc += v
		}
		util = (tc + res.BETotal) / float64(res.Cfg.Cycles)
	}
	b.ReportMetric(util*100, "link-util-%")
}

// BenchmarkFig6SortKeys measures the Figure 4 key computation — the
// logic at the base of every comparator-tree leaf.
func BenchmarkFig6SortKeys(b *testing.B) {
	w := timing.MustWheel(8)
	var sink timing.Key
	for i := 0; i < b.N; i++ {
		t := w.Wrap(timing.Slot(i))
		l := w.Add(t, uint32(i)%40)
		k, _, _ := w.SortKey(l, w.Add(l, 20), t)
		sink ^= k
	}
	_ = sink
}

// BenchmarkFig6Rollover regenerates the rollover soak (Figure 6).
func BenchmarkFig6Rollover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(2)
		if err != nil {
			b.Fatal(err)
		}
		if res.Misses != 0 {
			b.Fatal("rollover misses")
		}
	}
}

// BenchmarkT1ServiceOrder exercises the Table 1 three-queue decision for
// one output port with a mixed population of on-time and early packets.
func BenchmarkT1ServiceOrder(b *testing.B) {
	w := timing.MustWheel(8)
	tree := sched.NewEDFTree(256, w)
	for i := 0; i < 256; i++ {
		off := int64(i%60) - 30
		leaf := sched.Leaf{
			L:    w.Wrap(timing.Slot(1000 + off)),
			Dl:   w.Wrap(timing.Slot(1000 + off + 25)),
			Mask: sched.PortMask(1 << (i % 5)),
		}
		if err := tree.Install(i, leaf); err != nil {
			b.Fatal(err)
		}
	}
	now := w.Wrap(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Select(i%5, now, 8)
	}
}

// BenchmarkT3ControlInterface measures the Table 3 staged-write
// programming path.
func BenchmarkT3ControlInterface(b *testing.B) {
	r := router.MustNew("bench", router.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.SetConnection(uint8(i), uint8(i+1), 10, 1<<router.PortLocal); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkX1HorizonSweep regenerates the horizon trade-off study.
func BenchmarkX1HorizonSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunHorizon([]uint32{0, 16, 48}, 20000)
		if err != nil {
			b.Fatal(err)
		}
		if res.Misses != 0 {
			b.Fatal("misses in sweep")
		}
	}
}

// BenchmarkX2BaselineComparison regenerates the architecture
// comparison and reports the FIFO tight-stream miss rate.
func BenchmarkX2BaselineComparison(b *testing.B) {
	var fifoMiss float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCompare(30000)
		if err != nil {
			b.Fatal(err)
		}
		for j, name := range res.Disciplines {
			if name == "FIFO output-queued" {
				fifoMiss = res.TightMiss[j]
			}
		}
	}
	b.ReportMetric(fifoMiss*100, "fifo-tight-miss-%")
}

// BenchmarkX3VirtualCutThrough regenerates the Section 7 extension
// study and reports the latency saving.
func BenchmarkX3VirtualCutThrough(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunVCT(3, 30000)
		if err != nil {
			b.Fatal(err)
		}
		saving = res.Saving
	}
	b.ReportMetric(saving, "saving-cycles")
}

// BenchmarkX4Multicast regenerates the fan-out study.
func BenchmarkX4Multicast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMulticast([]int{2, 4}, 3)
		if err != nil {
			b.Fatal(err)
		}
		if res.Misses != 0 || res.SlotLeaks != 0 {
			b.Fatal("multicast misses or leaks")
		}
	}
}

// BenchmarkX5Admissibility regenerates the buffer-policy study.
func BenchmarkX5Admissibility(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAdmit()
		if err != nil {
			b.Fatal(err)
		}
		gap = float64(res.Asymmetric[1] - res.Asymmetric[0])
	}
	b.ReportMetric(gap, "shared-minus-partitioned")
}

// BenchmarkX6ApproximateScheduling regenerates the Section 7
// reduced-complexity study and reports where misses begin.
func BenchmarkX6ApproximateScheduling(b *testing.B) {
	var missAt4 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunApprox([]uint{0, 4}, 30000)
		if err != nil {
			b.Fatal(err)
		}
		if res.TightMiss[0] != 0 {
			b.Fatal("exact EDF missed")
		}
		missAt4 = res.TightMiss[1]
	}
	b.ReportMetric(missAt4*100, "tight-miss-%@16-slot-buckets")
}

// BenchmarkX7LoadSweep regenerates the network load sweep and reports
// the best-effort latency blow-up factor between light and heavy load.
func BenchmarkX7LoadSweep(b *testing.B) {
	var factor float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLoadSweep([]float64{0.05, 0.6}, 30000)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range res.TCMisses {
			if m != 0 {
				b.Fatal("reserved class missed under load")
			}
		}
		if res.BEMean[0] > 0 {
			factor = res.BEMean[1] / res.BEMean[0]
		}
	}
	b.ReportMetric(factor, "be-latency-blowup")
}

// BenchmarkX8ClockSkew regenerates the §4.1 skew-tolerance study.
func BenchmarkX8ClockSkew(b *testing.B) {
	var missesBeyond int64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSkew([]int64{0, 400}, 30000)
		if err != nil {
			b.Fatal(err)
		}
		if res.Misses[0] != 0 {
			b.Fatal("aligned clocks missed")
		}
		missesBeyond = res.Misses[1]
	}
	b.ReportMetric(float64(missesBeyond), "misses@20-slot-skew")
}

// BenchmarkX9Failover regenerates the link-failure timeline.
func BenchmarkX9Failover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFailover(4)
		if err != nil {
			b.Fatal(err)
		}
		if !res.RerouteOK || res.Delivered[2] != 4 {
			b.Fatal("failover did not recover")
		}
	}
}

// BenchmarkX10RingTopology regenerates the topology-independence study.
func BenchmarkX10RingTopology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunRing(8, 8, 30000)
		if err != nil {
			b.Fatal(err)
		}
		if res.Misses != 0 {
			b.Fatal("ring missed deadlines")
		}
	}
}

// BenchmarkX11LeafSharing regenerates the §5.1 area/throughput study.
func BenchmarkX11LeafSharing(b *testing.B) {
	var missAt32 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSharing([]int{1, 32}, 30000)
		if err != nil {
			b.Fatal(err)
		}
		if res.TightMiss[0] != 0 {
			b.Fatal("factor-1 chip missed")
		}
		missAt32 = res.TightMiss[1]
	}
	b.ReportMetric(missAt32*100, "tight-miss-%@32-sharing")
}

// buildLoadedMesh builds the sweep's loaded w×h mesh
// (experiments.LoadedMesh: real-time channels crossing corner to corner
// plus a best-effort source on every node). With traced set it carries
// the full observability stack: the sharded lifecycle collector, the
// telemetry registry, and per-channel SLO histograms.
func buildLoadedMesh(tb testing.TB, w, h, workers int, traced bool) *core.System {
	tb.Helper()
	fx := experiments.LoadedMesh(w, h, workers, 1)
	if traced {
		fx.Options.Metrics = metrics.NewRegistry()
		fx.Options.Collector = obs.NewSharded(obs.DefaultShardCap)
		fx.Options.ChannelSLO = obs.NewSLO()
	}
	b, err := fx.BuildAll()
	if err != nil {
		tb.Fatal(err)
	}
	return b.System
}

// BenchmarkRouterCycleRate measures the simulator itself: cycles per
// second for a loaded 8×8 mesh, the figure that bounds every experiment
// above — once with the sequential kernel and once with the parallel
// kernel at GOMAXPROCS workers (both modes produce identical results;
// see core.TestParallelEquivalence).
func BenchmarkRouterCycleRate(b *testing.B) {
	par := runtime.GOMAXPROCS(0)
	if par < 2 {
		par = 2 // still exercise the pooled path on single-core hosts
	}
	for _, workers := range []int{1, par} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sys := buildLoadedMesh(b, 8, 8, workers, false)
			defer sys.Close()
			sys.Run(2000) // warm up buffers and frame pools
			b.ResetTimer()
			sys.Run(int64(b.N))
			b.StopTimer()
			b.ReportMetric(float64(64), "routers")
		})
	}
}

// BenchmarkSparseCycleRate is the other regime of the dataplane: a 32×32
// mesh carrying experiments.SparseMesh's forty channels and nothing
// else, once on the sequential kernel and once on the worker pool at
// GOMAXPROCS workers, like BenchmarkRouterCycleRate. Nearly every router
// is idle or parked and asleep on a wake list — the sequential kernel's
// one, or its tile's on the pool — so ns/op is the cost of the few busy
// routers plus the wake lists' own walks, timers and settling (and on the
// pool the rendezvous); `make profile-dataplane` profiles the sequential
// leg beside the loaded mesh above.
func BenchmarkSparseCycleRate(b *testing.B) {
	par := runtime.GOMAXPROCS(0)
	if par < 2 {
		par = 2 // still exercise the pooled path on single-core hosts
	}
	for _, workers := range []int{1, par} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			fx := experiments.SparseMesh(32, 32)
			fx.Options.Workers = workers
			built, err := fx.BuildAll()
			if err != nil {
				b.Fatal(err)
			}
			sys := built.System
			defer sys.Close()
			sys.Run(2000) // every channel has packets in flight
			b.ResetTimer()
			sys.Run(int64(b.N))
			b.StopTimer()
			b.ReportMetric(float64(1024), "routers")
			if sys.Summarize().TCDelivered == 0 {
				b.Fatal("sparse mesh delivered nothing")
			}
		})
	}
}

// BenchmarkRouterCycleRateTraced is the same mesh with the full
// observability stack attached — sharded lifecycle collector, telemetry
// counters, and channel SLO histograms — so the delta against
// BenchmarkRouterCycleRate is the price of always-on tracing.
func BenchmarkRouterCycleRateTraced(b *testing.B) {
	par := runtime.GOMAXPROCS(0)
	if par < 2 {
		par = 2
	}
	for _, workers := range []int{1, par} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sys := buildLoadedMesh(b, 8, 8, workers, true)
			defer sys.Close()
			sys.Run(2000)
			b.ResetTimer()
			sys.Run(int64(b.N))
			b.StopTimer()
			b.ReportMetric(float64(64), "routers")
		})
	}
}

// TestTracingOverheadGate is the regression gate on that price: a
// traced parallel run must stay within 10% of the untraced run's wall
// time. Both systems are built up front and timed in alternating
// windows — untraced, traced, untraced, traced, … — so host-speed drift
// lands on both sides of every pair alike, and the gate reads the median
// of the per-pair ratios, which discards one-off stalls entirely. A
// verdict needs the ratios to agree with each other more closely than
// the median stands from the budget: when their interquartile spread is
// wider than that margin — sibling test binaries sharing the host's two
// CPUs do this — the verdict subtest is reported unresolved and skipped
// rather than passed or failed on noise; a tight spread over the budget
// still fails. The gate is also skipped in short mode and under the race
// detector, where instrumented atomics distort the ratio.
func TestTracingOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in short mode")
	}
	if raceEnabled {
		t.Skip("timing gate skipped under the race detector")
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	const cycles = 8000
	const trials = 15
	plain := buildLoadedMesh(t, 8, 8, workers, false)
	defer plain.Close()
	traced := buildLoadedMesh(t, 8, 8, workers, true)
	defer traced.Close()
	plain.Run(2000) // warm up
	traced.Run(2000)
	window := func(sys *core.System) time.Duration {
		start := time.Now()
		sys.Run(cycles)
		return time.Since(start)
	}
	ratios := make([]float64, trials)
	for i := range ratios {
		p, tr := window(plain), window(traced)
		ratios[i] = float64(tr) / float64(p)
	}
	sort.Float64s(ratios)
	const budget = 1.10
	ratio, iqr := ratios[trials/2], ratios[3*trials/4]-ratios[trials/4]
	t.Logf("traced/untraced per-pair ratios %.3f, median %.3f, interquartile spread %.3f", ratios, ratio, iqr)
	t.Run("verdict", func(t *testing.T) {
		if margin := math.Abs(budget - ratio); iqr > margin {
			t.Skipf("unresolved on a noisy host: interquartile spread %.3f exceeds the %.3f between the median %.3f and the %.2f budget (per-pair ratios %.3f)",
				iqr, margin, ratio, budget, ratios)
		}
		if ratio > budget {
			t.Errorf("tracing overhead %.1f%% exceeds the 10%% budget (per-pair ratios %.3f)",
				(ratio-1)*100, ratios)
		}
	})
}

// TestSteadyStateAllocs is the allocation regression gate locking in the
// preallocated hot state: once the pools and arenas have warmed up, the
// tick path of a loaded mesh must be allocation-free to within the
// per-mesh budget, at every mesh size. The budgets are deliberately a
// couple of orders of magnitude below where the pre-pooling code sat
// (0.5 allocs/cycle at 8×8, 12+ at 32×32), so any new per-packet or
// per-cycle heap traffic on the hot path trips the gate immediately.
func TestSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate skipped in short mode")
	}
	budgets := []struct {
		edge   int
		budget float64 // allocs per simulated cycle
	}{
		{8, 0.05},
		{16, 0.05},
		{32, 0.10},
	}
	for _, bc := range budgets {
		bc := bc
		t.Run(fmt.Sprintf("mesh%dx%d", bc.edge, bc.edge), func(t *testing.T) {
			sys := buildLoadedMesh(t, bc.edge, bc.edge, 1, false)
			defer sys.Close()
			// Warm-up must outlast every pool's growth phase: delivery
			// double-buffers, frame pools, flit queues, and the BE arena all
			// reach their working set within the first few thousand cycles.
			sys.Run(8000)
			const cycles = 4000
			// AllocsPerRun calls the body once extra before measuring, so
			// the measured window starts from an even warmer steady state.
			perRun := testing.AllocsPerRun(1, func() {
				sys.Run(cycles)
			})
			perCycle := perRun / float64(cycles)
			t.Logf("%dx%d: %.4f allocs/cycle (budget %.2f)", bc.edge, bc.edge, perCycle, bc.budget)
			if perCycle > bc.budget {
				t.Errorf("%dx%d mesh: %.4f allocs/cycle exceeds the %.2f budget",
					bc.edge, bc.edge, perCycle, bc.budget)
			}
		})
	}
}
