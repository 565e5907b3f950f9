package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/sim"
)

// LoadedMesh is the workload the sweep (and the repository-root
// benchmarks and gates) measure: real-time channels crossing the mesh
// corner to corner plus a best-effort source on every node. linkLat > 1
// deepens the mesh wires, which is what lets the parallel kernel run
// epochs.
func LoadedMesh(w, h, workers, linkLat int) core.Fixture {
	opts := core.Options{Workers: workers}
	if linkLat > 1 {
		opts.Router = router.DefaultConfig()
		opts.Router.LinkLatency = linkLat
	}
	fx := core.Fixture{
		W: w, H: h, Options: opts, Seed: 1,
		BestEffort: core.EveryNode(w, h, core.BESource{Rate: 0.3, SizeMin: 64, SizeMax: 64}),
	}
	spec := rtc.Spec{Imin: 8, Smax: 18, D: 24 * int64(w+h)}
	for _, rt := range [][2]mesh.Coord{
		{{X: 0, Y: 0}, {X: w - 1, Y: h - 1}},
		{{X: w - 1, Y: 0}, {X: 0, Y: h - 1}},
		{{X: 0, Y: h - 1}, {X: w - 1, Y: 0}},
		{{X: w - 1, Y: h - 1}, {X: 0, Y: 0}},
	} {
		fx.Channels = append(fx.Channels, core.ChannelReq{Src: rt[0], Dsts: []mesh.Coord{rt[1]}, Spec: spec})
	}
	return fx
}

// SparseMesh is the dataplane's other regime, the one
// `make profile-dataplane` profiles beside LoadedMesh: one real-time
// channel per 25 nodes scattered over the mesh, no best-effort load, and
// deadlines of 12 slots a hop plus 16. A packet then moves for some 45
// cycles per hop and is held in a packet memory for a couple of hundred,
// so most routers are idle and those on a route mostly parked.
func SparseMesh(w, h int) core.Fixture {
	fx := core.Fixture{W: w, H: h, Seed: 1}
	rng := rand.New(rand.NewSource(1))
	for len(fx.Channels) < w*h/25 {
		src := mesh.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
		dst := mesh.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
		if src == dst {
			continue
		}
		dx, dy := src.X-dst.X, src.Y-dst.Y
		hops := int64(max(dx, -dx) + max(dy, -dy) + 1)
		fx.Channels = append(fx.Channels, core.ChannelReq{
			Src: src, Dsts: []mesh.Coord{dst},
			Spec: rtc.Spec{Imin: 16 << rng.Intn(2), Smax: 18, D: 12*hops + 16},
		})
	}
	return fx
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
	sys, err := LoadedMesh(w, h, workers, linkLat).BuildAll()
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
		seqSys, err := LoadedMesh(w, h, 1, linkLat).BuildAll()
		if err != nil {
			return seq, par, 0, err
		}
		parSys, err := LoadedMesh(w, h, workers, linkLat).BuildAll()
		if err != nil {
			seqSys.Close()
			return seq, par, 0, err
		}
		// Warm up pools and buffers so the steady state is what's
		// measured, and start each timing from a clean heap.
		seqSys.Run(cycles / 10)
		parSys.Run(cycles / 10)
		runtime.GC()
		timeSegment(seqSys.System, cycles, &seq)
		timeSegment(parSys.System, cycles, &par)
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

// SweepRow is one (mesh, worker-count) measurement of the scaling
// sweep, always compared against a shared sequential baseline for the
// same mesh.
type SweepRow struct {
	W, H    int
	Cycles  int64
	Workers int
	// Epoch is the synchronization epoch the parallel kernel derived
	// from the link latency (1 = per-cycle barriers); deeper links apply
	// to both modes.
	Epoch int

	SeqRate float64 // cycles per second, sequential kernel
	ParRate float64 // cycles per second, parallel kernel
	Speedup float64 // median of per-repetition par/seq ratios

	SeqAllocsPerCycle float64
	ParAllocsPerCycle float64

	// StatsMatch confirms this run reproduced the sequential baseline's
	// per-router hardware counters exactly.
	StatsMatch bool
}

// SweepResult is the full scaling matrix. GOMAXPROCS and NumCPU record
// the machine parallelism the sweep actually had available, so a reader
// of the archived numbers can tell a single-core result (the pool never
// runs) from a real multicore one (GOMAXPROCS can be capped below the CPU
// count by the environment; NumCPU is the hardware's own figure).
type SweepResult struct {
	GOMAXPROCS int
	NumCPU     int
	Rows       []SweepRow
}

// DefaultSweepMeshes are the square mesh edges the sweep covers. 128 is
// not among them: its rows need more than 16 GB of memory, and a default
// command must not get the host's other tenants killed; ask for it with
// -mesh 128 on a machine that has the room.
var DefaultSweepMeshes = []int{8, 16, 32, 64}

// DefaultSweepWorkers returns the worker counts to sweep: 1, 2, 4 and
// GOMAXPROCS, deduplicated and sorted.
func DefaultSweepWorkers() []int {
	set := map[int]bool{1: true, 2: true, 4: true, runtime.GOMAXPROCS(0): true}
	out := make([]int, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// DefaultSweepCycles sizes the measured run per mesh edge so the whole
// sweep stays in tens of seconds: larger meshes do more work per cycle
// and need fewer cycles for a stable rate.
func DefaultSweepCycles(edge int) int64 {
	switch {
	case edge <= 8:
		return 20000
	case edge <= 16:
		return 8000
	case edge <= 32:
		return 3000
	case edge <= 64:
		return 1000
	default:
		return 400
	}
}

// RunScalingSweep measures simulator throughput for every mesh edge ×
// worker count combination. Each mesh's sequential baseline is timed
// once and shared across its rows. Nil or empty arguments select the
// defaults; worker counts <= 0 resolve to GOMAXPROCS. linkLat > 1
// deepens the links on both modes, so the parallel mode runs
// epoch-synchronized.
func RunScalingSweep(meshes []int, workers []int, cycles func(edge int) int64, linkLat int) (*SweepResult, error) {
	if len(meshes) == 0 {
		meshes = DefaultSweepMeshes
	}
	if len(workers) == 0 {
		workers = DefaultSweepWorkers()
	}
	if cycles == nil {
		cycles = DefaultSweepCycles
	}
	res := &SweepResult{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	for _, edge := range meshes {
		n := cycles(edge)
		// Steady-state allocations are deterministic and independent of
		// the worker count (the parallel kernel reproduces the sequential
		// machine bit for bit), so measure each mode once per mesh and
		// share the number across the mesh's rows. The measurement warms
		// up past the pool-filling transient, which the short timing
		// warm-up deliberately does not wait for.
		wkAlloc := 1
		for _, wk := range workers {
			if r := sim.ResolveWorkers(wk); r > wkAlloc {
				wkAlloc = r
			}
		}
		seqAllocs, err := steadyAllocs(edge, edge, 1, linkLat, n)
		if err != nil {
			return nil, fmt.Errorf("sweep %dx%d seq allocs: %w", edge, edge, err)
		}
		parAllocs, err := steadyAllocs(edge, edge, wkAlloc, linkLat, n)
		if err != nil {
			return nil, fmt.Errorf("sweep %dx%d par allocs: %w", edge, edge, err)
		}
		for _, wk := range workers {
			wk = sim.ResolveWorkers(wk)
			// Each row carries its own interleaved sequential baseline so
			// the ratio is taken under the same machine conditions.
			seq, par, speedup, err := timePair(edge, edge, wk, linkLat, n)
			if err != nil {
				return nil, fmt.Errorf("sweep %dx%d x%d: %w", edge, edge, wk, err)
			}
			res.Rows = append(res.Rows, SweepRow{
				W: edge, H: edge, Cycles: n, Workers: wk, Epoch: par.Epoch,
				SeqRate: seq.Rate, ParRate: par.Rate, Speedup: speedup,
				SeqAllocsPerCycle: seqAllocs, ParAllocsPerCycle: parAllocs,
				StatsMatch: reflect.DeepEqual(seq.Stats, par.Stats),
			})
		}
	}
	return res, nil
}

// Table renders the scaling matrix.
func (s *SweepResult) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Parallel kernel scaling sweep (GOMAXPROCS=%d, NumCPU=%d)", s.GOMAXPROCS, s.NumCPU),
		Header: []string{"mesh", "workers", "epoch", "cycles", "seq c/s", "par c/s", "speedup", "allocs/cyc", "match"},
	}
	for _, r := range s.Rows {
		t.AddRow(
			fmt.Sprintf("%dx%d", r.W, r.H),
			fmt.Sprintf("%d", r.Workers),
			fmt.Sprintf("%d", r.Epoch),
			fmt.Sprintf("%d", r.Cycles),
			fmt.Sprintf("%.0f", r.SeqRate),
			fmt.Sprintf("%.0f", r.ParRate),
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%.2f", r.ParAllocsPerCycle),
			fmt.Sprintf("%v", r.StatsMatch),
		)
	}
	return t
}

// WriteJSONFile writes the scaling matrix — the one table the
// performance ledger does not produce — in machine-readable form.
func (s *SweepResult) WriteJSONFile(path string, linkLat int) error {
	type jsonRow struct {
		Mesh              string  `json:"mesh"`
		Cycles            int64   `json:"cycles"`
		Workers           int     `json:"workers"`
		Epoch             int     `json:"epoch"`
		SeqCyclesPerSec   float64 `json:"seq_cycles_per_sec"`
		ParCyclesPerSec   float64 `json:"par_cycles_per_sec"`
		Speedup           float64 `json:"speedup"`
		SeqAllocsPerCycle float64 `json:"seq_allocs_per_cycle"`
		ParAllocsPerCycle float64 `json:"par_allocs_per_cycle"`
		StatsMatch        bool    `json:"stats_match"`
	}
	rows := make([]jsonRow, len(s.Rows))
	for i, r := range s.Rows {
		rows[i] = jsonRow{
			Mesh: fmt.Sprintf("%dx%d", r.W, r.H), Cycles: r.Cycles, Workers: r.Workers, Epoch: r.Epoch,
			SeqCyclesPerSec: r.SeqRate, ParCyclesPerSec: r.ParRate, Speedup: r.Speedup,
			SeqAllocsPerCycle: r.SeqAllocsPerCycle, ParAllocsPerCycle: r.ParAllocsPerCycle,
			StatsMatch: r.StatsMatch,
		}
	}
	out := map[string]any{
		"benchmark":    "router_scaling_sweep",
		"gomaxprocs":   s.GOMAXPROCS,
		"num_cpu":      s.NumCPU,
		"link_latency": linkLat,
		"rows":         rows,
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(out)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
