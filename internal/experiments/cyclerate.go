package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/traffic"
)

// loadCycleRateSystem builds the measured workload: real-time channels
// crossing the mesh corner to corner plus a best-effort source on every
// node, all registered into per-node shards. linkLat > 1 deepens the
// mesh wires, which is what lets the parallel kernel run epochs.
func loadCycleRateSystem(w, h, workers, linkLat int) (*core.System, error) {
	opts := core.Options{Workers: workers}
	if linkLat > 1 {
		opts.Router = router.DefaultConfig()
		opts.Router.LinkLatency = linkLat
	}
	sys, err := core.NewMesh(w, h, opts)
	if err != nil {
		return nil, err
	}
	spec := rtc.Spec{Imin: 8, Smax: 18, D: 24 * int64(w+h)}
	routes := [][2]mesh.Coord{
		{{X: 0, Y: 0}, {X: w - 1, Y: h - 1}},
		{{X: w - 1, Y: 0}, {X: 0, Y: h - 1}},
		{{X: 0, Y: h - 1}, {X: w - 1, Y: 0}},
		{{X: w - 1, Y: h - 1}, {X: 0, Y: 0}},
	}
	for i, rt := range routes {
		ch, err := sys.OpenChannel(rt[0], []mesh.Coord{rt[1]}, spec)
		if err != nil {
			return nil, fmt.Errorf("cyclerate: channel %d: %w", i, err)
		}
		app, err := traffic.NewTCApp(fmt.Sprintf("tc%d", i), ch.Paced(), spec, traffic.Periodic, 18)
		if err != nil {
			return nil, err
		}
		sys.RegisterNode(rt[0], app)
	}
	for i, c := range sys.Net.Coords() {
		be, err := traffic.NewBEApp(fmt.Sprintf("be%d", i), sys.Net, c,
			traffic.UniformDst(sys.Net, c), traffic.FixedSize(64), 0.3, int64(i)+1)
		if err != nil {
			return nil, err
		}
		sys.RegisterNode(c, be)
	}
	return sys, nil
}

// timingReps is how many times the measured segment repeats per mode.
// Rates report the best repetition; the speedup is the median of the
// per-repetition ratios, which discards one-off stalls entirely.
const timingReps = 5

// measurement is one mode's timing outcome.
type measurement struct {
	Rate  float64   // cycles per second, best repetition
	Reps  []float64 // cycles per second of every repetition, in order
	Stats []router.Stats
	Epoch int // the kernel's EffectiveEpoch
}

// timeSegment times one already-warm system over cycles and folds the
// repetition into m.
func timeSegment(sys *core.System, cycles int64, m *measurement) {
	start := time.Now()
	sys.Run(cycles)
	elapsed := time.Since(start)
	r := float64(cycles) / elapsed.Seconds()
	m.Reps = append(m.Reps, r)
	if r > m.Rate {
		m.Rate = r
	}
}

// allocWarmup is how long a fresh system must run before its heap goes
// quiet. The best-effort frame pools refill from *received* frames, so
// every source keeps allocating until traffic has round-tripped the
// mesh — O(diameter × frame serialization) cycles. 125·(w+h) puts
// 32x32 at 8000 cycles, the warm-up the allocation regression gate
// (TestSteadyStateAllocs) validated against.
func allocWarmup(w, h int) int64 {
	return 125 * int64(w+h)
}

// steadyAllocs measures heap allocations per cycle in the steady state:
// one fresh system, warmed past the pool-filling transient, then a
// clean measured window. Timing repetitions can't reuse this number —
// their warm-up is sized for rate stability, not pool circulation, so
// folding allocation reads into them would report the transient.
func steadyAllocs(w, h, workers, linkLat int, window int64) (float64, error) {
	sys, err := loadCycleRateSystem(w, h, workers, linkLat)
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	sys.Run(allocWarmup(w, h))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sys.Run(window)
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(window), nil
}

// timePair measures the sequential and the parallel kernel on identical
// workloads with interleaved repetitions — seq, par, seq, par, … — so
// machine-load drift lands on both modes alike. Every repetition builds
// both systems from scratch: heap layout luck is a persistent few-
// percent bias for any single instance, and only re-drawing it per
// repetition lets the median expose the code's real difference. The
// returned speedup is the median of the per-repetition par/seq ratios.
// Both modes share linkLat, so the sequential baseline simulates the
// identical machine; over deepened links the parallel mode runs
// epoch-synchronized.
func timePair(w, h, workers, linkLat int, cycles int64) (seq, par measurement, speedup float64, err error) {
	for rep := 0; rep < timingReps; rep++ {
		seqSys, err := loadCycleRateSystem(w, h, 1, linkLat)
		if err != nil {
			return seq, par, 0, err
		}
		parSys, err := loadCycleRateSystem(w, h, workers, linkLat)
		if err != nil {
			seqSys.Close()
			return seq, par, 0, err
		}
		// Warm up pools and buffers so the steady state is what's
		// measured, and start each timing from a clean heap.
		seqSys.Run(cycles / 10)
		parSys.Run(cycles / 10)
		runtime.GC()
		timeSegment(seqSys, cycles, &seq)
		timeSegment(parSys, cycles, &par)
		if rep == timingReps-1 {
			for _, c := range seqSys.Net.Coords() {
				seq.Stats = append(seq.Stats, seqSys.Router(c).Stats)
			}
			for _, c := range parSys.Net.Coords() {
				par.Stats = append(par.Stats, parSys.Router(c).Stats)
			}
			par.Epoch = int(parSys.Net.Kernel.EffectiveEpoch())
		}
		parSys.Close()
		seqSys.Close()
	}
	ratios := make([]float64, 0, timingReps)
	for i := range par.Reps {
		if seq.Reps[i] > 0 {
			ratios = append(ratios, par.Reps[i]/seq.Reps[i])
		}
	}
	sort.Float64s(ratios)
	if len(ratios) > 0 {
		speedup = ratios[len(ratios)/2]
	}
	return seq, par, speedup, nil
}
