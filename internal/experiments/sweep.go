package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"

	"repro/internal/sim"
)

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

// DefaultSweepMeshes are the square mesh edges the sweep covers.
var DefaultSweepMeshes = []int{8, 16, 32, 64, 128}

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

// Row returns the sweep row for the given mesh edge and worker count,
// or nil if the combination was not measured.
func (s *SweepResult) Row(edge, workers int) *SweepRow {
	for i := range s.Rows {
		r := &s.Rows[i]
		if r.W == edge && r.Workers == workers {
			return r
		}
	}
	return nil
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
	// Headline, flattened into the top level: the 8×8 mesh at 4 workers,
	// when the sweep covers it.
	if h := s.Row(8, 4); h != nil {
		out["mesh"] = "8x8"
		out["cycles"] = h.Cycles
		out["workers"] = h.Workers
		out["seq_cycles_per_sec"] = h.SeqRate
		out["par_cycles_per_sec"] = h.ParRate
		out["speedup"] = h.Speedup
		out["seq_allocs_per_cycle"] = h.SeqAllocsPerCycle
		out["par_allocs_per_cycle"] = h.ParAllocsPerCycle
		out["stats_match"] = h.StatsMatch
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
