// Command rtbench regenerates every table and figure of the paper's
// evaluation, plus the extension studies catalogued in DESIGN.md §4.
//
// Usage:
//
//	rtbench                   # run everything
//	rtbench -exp fig7         # one experiment
//	rtbench -exp fig7 -chart  # include ASCII charts where available
//
// Experiments: e1, fig6, fig7, chip, horizon, compare, vct, multicast,
// admit, all; plus cyclerate and sweep, which benchmark the simulator
// itself (sequential vs parallel kernel; -workers, -mesh, -benchjson,
// -min-speedup, and -baseline/-max-regress for regression diffing
// against an archived sweep), forensics, which gates the slack
// attribution engine on a scenario (-scenario), capacity, which
// probes each scenario family's max admissible channel count and gates
// the reservation ledger's conservation and audit byte-identity
// (-baseline/-max-regress against an archived BENCH_capacity.json),
// admission, the mass-admission campaign (-requests, -workers,
// -min-admit-speedup, -min-admit-rate, -benchjson, and
// -baseline/-max-regress against an archived BENCH_admission.json),
// and layout, the channel-layout synthesis campaign (-requests,
// -strict-layout, -benchjson, -baseline/-max-regress against an
// archived BENCH_layout.json) pitting the slack-aware route-and-split
// search against the greedy planner on identical request sequences.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/sim"
)

// The flag set is registered at package level so the consumption
// tables below (globalFlags/expFlags) can be checked against it in
// tests: every registered flag must be consumed somewhere, and every
// table entry must name a real flag.
var (
	exp             = flag.String("exp", "all", "experiment to run (e1|fig6|fig7|chip|horizon|compare|approx|vct|multicast|admit|load|skew|failover|faults|ring|sharing|cyclerate|sweep|forensics|capacity|admission|layout|all)")
	seed            = flag.Int64("seed", 1, "seed for the faults campaign's fault placement")
	cycles          = flag.Int64("cycles", 0, "override simulated cycles where applicable (0 = experiment default)")
	chart           = flag.Bool("chart", false, "render ASCII charts where available")
	workers         = flag.Int("workers", 0, "parallel kernel workers for cyclerate, or the single worker count for sweep (0 = GOMAXPROCS for cyclerate, default worker set for sweep)")
	benchJSON       = flag.String("benchjson", "", "write the cyclerate/sweep result as JSON to this file (e.g. BENCH_router.json)")
	meshList        = flag.String("mesh", "", "comma-separated square mesh edges for the sweep (default 8,16,32); the first entry sizes the -exp capacity/layout mesh (default 8)")
	minSpeedup      = flag.Float64("min-speedup", 0, "fail the sweep if any parallel row is slower than this fraction of sequential (0 = don't enforce)")
	baseline        = flag.String("baseline", "", "archived benchmark JSON (BENCH_router/admission/capacity/layout.json) to diff the fresh run against")
	maxRegress      = flag.Float64("max-regress", 0, "with -baseline: fail if any row's speedup drops (or allocs/cycle grows, or an admitted-count ratio shrinks) more than this fraction vs the baseline (0 = report only)")
	scenarioPath    = flag.String("scenario", "scenarios/faulty.json", "scenario file for -exp forensics and the audit-identity leg of -exp capacity")
	requests        = flag.Int("requests", 100000, "request count per family for -exp admission (and -exp layout, default 3·nodes there when unset)")
	strictLayout    = flag.String("strict-layout", "", "comma-separated families whose synthesized run must admit strictly more than greedy in -exp layout (e.g. hotspot,transpose)")
	minAdmitSpeedup = flag.Float64("min-admit-speedup", 0, "fail -exp admission if any family's incremental-vs-reference sequential speedup (timed in-run, serial vs serial) is below this (0 = don't enforce)")
	minAdmitRate    = flag.Float64("min-admit-rate", 0, "fail -exp admission if the best AdmitBatch decisions/sec is below this floor; loudly skipped on a single-CPU runner (0 = don't enforce)")
	linkLatency     = flag.Int("link-latency", 1, "mesh link latency in cycles for cyclerate/sweep/forensics, on every run compared; the parallel kernel derives its synchronization epoch from it, so deeper links amortize its barrier (1 = the paper's wire, per-cycle barriers)")
	cpuProfile      = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile      = flag.String("memprofile", "", "write a heap profile to this file at exit")
	metricsOut      = flag.String("metrics", "", "write aggregate telemetry across all runs to this file (.prom/.txt = Prometheus text, otherwise JSON; - = stdout)")
	listen          = flag.String("listen", "", "serve live telemetry over HTTP at this address while experiments run (e.g. :8080)")
	traceOut        = flag.String("trace-out", "", "write the merged event timeline across all runs to this file (.json = Chrome trace-event JSON for Perfetto, .jsonl = JSON lines, otherwise the human-readable dump)")
	traceBuf        = flag.Int("trace-buf", obs.DefaultShardCap, "per-node event buffer capacity for -trace-out (oldest events evict first)")
)

func main() {
	flag.Parse()

	// Every explicitly set flag must be consumed by the selected
	// experiment (or apply globally): a flag the experiment silently
	// ignores — say -baseline on an experiment with no baseline diff —
	// reads as a gate that ran when it never did.
	setFlags := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	if unknown := unconsumedFlags(*exp, setFlags); len(unknown) > 0 {
		fmt.Fprintf(os.Stderr, "rtbench: -exp %s does not consume -%s (see -h for which experiments honor which flags)\n",
			*exp, strings.Join(unknown, ", -"))
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal("cpuprofile", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("cpuprofile", err)
		}
		profStop = append(profStop, func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("cpu profile written to %s\n", f.Name())
		})
	}
	if *memProfile != "" {
		path := *memProfile
		profStop = append(profStop, func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rtbench: memprofile:", err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "rtbench: memprofile:", err)
				return
			}
			fmt.Printf("heap profile written to %s\n", path)
		})
	}

	// Experiments build their Systems internally, so telemetry hooks in
	// through the package-level default registry; tracing and SLO
	// accounting hook in the same way. The sharded collector is
	// parallel-safe, so -workers stays honored with tracing on.
	var reg *metrics.Registry
	if *metricsOut != "" || *listen != "" {
		reg = metrics.NewRegistry()
		core.DefaultMetrics = reg
		if *listen != "" {
			go func() {
				if err := http.ListenAndServe(*listen, reg); err != nil {
					fmt.Fprintln(os.Stderr, "rtbench: telemetry listener:", err)
				}
			}()
			fmt.Printf("telemetry: live at http://%s/\n", *listen)
		}
	}
	var col *obs.Sharded
	var slo *obs.SLO
	if *traceOut != "" {
		col = obs.NewSharded(*traceBuf)
		slo = obs.NewSLO()
		core.DefaultCollector = col
		core.DefaultChannelSLO = slo
		fmt.Printf("tracing: on (per-node buffer %d events; cyclerate runs on %d kernel worker(s))\n", *traceBuf, sim.ResolveWorkers(*workers))
	}

	runners := map[string]func() error{
		"e1":        func() error { return runE1() },
		"fig6":      func() error { return runFig6() },
		"fig7":      func() error { return runFig7(*cycles, *chart) },
		"chip":      func() error { return runChip() },
		"horizon":   func() error { return runHorizon(*cycles) },
		"compare":   func() error { return runCompare(*cycles) },
		"vct":       func() error { return runVCT(*cycles) },
		"multicast": func() error { return runMulticast() },
		"admit":     func() error { return runAdmit() },
		"approx":    func() error { return runApprox(*cycles) },
		"load":      func() error { return runLoad(*cycles) },
		"skew":      func() error { return runSkew(*cycles) },
		"failover":  func() error { return runFailover() },
		"faults":    func() error { return runFaults(*seed) },
		"ring":      func() error { return runRing(*cycles) },
		"sharing":   func() error { return runSharing(*cycles) },
		"cyclerate": func() error { return runKernelRate(*cycles, *workers, *linkLatency, *benchJSON) },
		"sweep": func() error {
			return runSweep(*cycles, *workers, *linkLatency, *meshList, *benchJSON, *minSpeedup, *baseline, *maxRegress)
		},
		"forensics": func() error { return runForensics(*scenarioPath, *cycles, *linkLatency) },
		"capacity": func() error {
			return runCapacity(*meshList, *scenarioPath, *cycles, *benchJSON, *baseline, *maxRegress)
		},
		"admission": func() error {
			return runAdmissionCampaign(*meshList, *requests, *benchJSON,
				*minAdmitSpeedup, *minAdmitRate, *baseline, *maxRegress)
		},
		"layout": func() error {
			// The admission campaign's 100k default would swamp the layout
			// search; unset, the campaign sizes itself to the mesh.
			reqs := *requests
			if !setFlags["requests"] {
				reqs = 0
			}
			return runLayout(*meshList, reqs, *benchJSON, *baseline, *maxRegress, *strictLayout)
		},
	}
	// cyclerate, sweep, forensics, capacity and admission probe the
	// simulator rather than the paper and are run on request only, not as
	// part of "all".
	order := []string{"e1", "fig7", "fig6", "chip", "horizon", "compare", "approx", "vct", "multicast", "admit", "load", "skew", "failover", "faults", "ring", "sharing"}

	if *exp == "all" {
		for _, name := range order {
			if err := runners[name](); err != nil {
				fatal(name, err)
			}
		}
		dumpTelemetry(reg, *metricsOut)
		dumpTrace(col, slo, *traceOut)
		finishProfiles()
		return
	}
	run, ok := runners[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "rtbench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(); err != nil {
		fatal(*exp, err)
	}
	dumpTelemetry(reg, *metricsOut)
	dumpTrace(col, slo, *traceOut)
	finishProfiles()
}

// expFlags names, per experiment, the flags that experiment actually
// consumes; globalFlags apply regardless of the experiment. Anything
// else explicitly set on the command line is a mistake and rtbench says
// so instead of silently ignoring it.
var (
	globalFlags = []string{"exp", "cpuprofile", "memprofile", "metrics", "listen", "trace-out", "trace-buf"}
	expFlags    = map[string][]string{
		"e1":        {},
		"fig6":      {},
		"fig7":      {"cycles", "chart"},
		"chip":      {},
		"horizon":   {"cycles"},
		"compare":   {"cycles"},
		"approx":    {"cycles"},
		"vct":       {"cycles"},
		"multicast": {},
		"admit":     {},
		"load":      {"cycles"},
		"skew":      {"cycles"},
		"failover":  {},
		"faults":    {"seed"},
		"ring":      {"cycles"},
		"sharing":   {"cycles"},
		"cyclerate": {"cycles", "workers", "link-latency", "benchjson"},
		"sweep":     {"cycles", "workers", "link-latency", "mesh", "benchjson", "min-speedup", "baseline", "max-regress"},
		"forensics": {"scenario", "cycles", "link-latency"},
		"capacity":  {"mesh", "scenario", "cycles", "benchjson", "baseline", "max-regress"},
		"admission": {"mesh", "requests", "benchjson", "min-admit-speedup", "min-admit-rate", "baseline", "max-regress"},
		"layout":    {"mesh", "requests", "benchjson", "baseline", "max-regress", "strict-layout"},
		"all":       {"seed", "cycles", "chart"},
	}
)

// unconsumedFlags returns the explicitly set flags the selected
// experiment does not consume, sorted. An unknown experiment name
// returns nothing — the runner lookup reports that with its own error.
func unconsumedFlags(exp string, set map[string]bool) []string {
	consumed, ok := expFlags[exp]
	if !ok {
		return nil
	}
	allowed := make(map[string]bool, len(globalFlags)+len(consumed))
	for _, f := range globalFlags {
		allowed[f] = true
	}
	for _, f := range consumed {
		allowed[f] = true
	}
	var out []string
	for f := range set {
		if !allowed[f] {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

// profStop holds the -cpuprofile/-memprofile finalizers;
// finishProfiles runs them exactly once on every exit path, fatal
// included, so a failed run still leaves usable profiles behind.
var (
	profStop []func()
	profDone bool
)

func finishProfiles() {
	if profDone {
		return
	}
	profDone = true
	for _, f := range profStop {
		f()
	}
}

// dumpTrace exports the merged timeline accumulated across every system
// the experiments built; the extension picks the format.
func dumpTrace(col *obs.Sharded, slo *obs.SLO, path string) {
	if col == nil || path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal("trace", err)
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".json"):
		err = obs.WriteChromeTrace(f, col, slo)
	case strings.HasSuffix(path, ".jsonl"):
		err = obs.WriteJSONL(f, col)
	default:
		col.Dump(f)
	}
	if err != nil {
		fatal("trace", err)
	}
	fmt.Printf("trace written to %s (%d events recorded, %d evicted)\n", path, col.Total(), col.Dropped())
}

// dumpTelemetry writes the aggregate registry (counters accumulated
// across every system the experiments built) after the runs finish.
func dumpTelemetry(reg *metrics.Registry, path string) {
	if reg == nil || path == "" {
		return
	}
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fatal("metrics", err)
		}
		defer f.Close()
		w = f
	}
	var err error
	if strings.HasSuffix(path, ".prom") || strings.HasSuffix(path, ".txt") {
		err = reg.WritePrometheus(w)
	} else {
		err = reg.WriteJSON(w)
	}
	if err != nil {
		fatal("metrics", err)
	}
	if path != "-" {
		fmt.Printf("telemetry report written to %s\n", path)
	}
}

func fatal(name string, err error) {
	finishProfiles()
	fmt.Fprintf(os.Stderr, "rtbench: %s: %v\n", name, err)
	os.Exit(1)
}

func runE1() error {
	res, err := experiments.RunE1(router.DefaultConfig(), []int{16, 32, 64, 128, 256, 512, 1024})
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)
	return nil
}

func runFig7(cycles int64, chart bool) error {
	cfg := experiments.DefaultFig7()
	if cycles > 0 {
		cfg.Cycles = cycles
	}
	res, err := experiments.RunFig7(cfg)
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)
	if chart {
		fmt.Println(res.Chart())
	}
	return nil
}

func runFig6() error {
	res, err := experiments.RunFig6(4)
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)
	return nil
}

func runChip() error {
	res := experiments.RunChip()
	res.Table().Fprint(os.Stdout)
	res.SharedTable().Fprint(os.Stdout)
	res.ClockTable().Fprint(os.Stdout)
	return nil
}

func runHorizon(cycles int64) error {
	if cycles <= 0 {
		cycles = 60000
	}
	res, err := experiments.RunHorizon([]uint32{0, 2, 4, 8, 16, 32, 48}, cycles)
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)
	return nil
}

func runCompare(cycles int64) error {
	if cycles <= 0 {
		cycles = 200000
	}
	res, err := experiments.RunCompare(cycles)
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)
	return nil
}

func runVCT(cycles int64) error {
	if cycles <= 0 {
		cycles = 100000
	}
	res, err := experiments.RunVCT(3, cycles)
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)
	load, err := experiments.RunVCTLoad([]int{0, 1, 2, 4, 6}, cycles)
	if err != nil {
		return err
	}
	load.Table().Fprint(os.Stdout)
	return nil
}

func runMulticast() error {
	res, err := experiments.RunMulticast([]int{1, 2, 4, 8}, 10)
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)
	return nil
}

func runApprox(cycles int64) error {
	if cycles <= 0 {
		cycles = 120000
	}
	res, err := experiments.RunApprox([]uint{0, 1, 2, 3, 4, 5}, cycles)
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)
	return nil
}

func runLoad(cycles int64) error {
	if cycles <= 0 {
		cycles = 60000
	}
	res, err := experiments.RunLoadSweep([]float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8}, cycles)
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)
	return nil
}

func runSkew(cycles int64) error {
	if cycles <= 0 {
		cycles = 60000
	}
	res, err := experiments.RunSkew([]int64{-400, -160, -40, 0, 40, 100, 160, 240, 400}, cycles)
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)
	return nil
}

func runFailover() error {
	res, err := experiments.RunFailover(8)
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)
	return nil
}

func runFaults(seed int64) error {
	res, err := experiments.RunFaults(40, seed)
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)
	return nil
}

func runRing(cycles int64) error {
	if cycles <= 0 {
		cycles = 100000
	}
	res, err := experiments.RunRing(8, 8, cycles)
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)
	return nil
}

func runSharing(cycles int64) error {
	if cycles <= 0 {
		cycles = 120000
	}
	res, err := experiments.RunSharing([]int{1, 2, 4, 8, 16, 32}, cycles)
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)
	return nil
}

func runKernelRate(cycles int64, workers, linkLat int, benchJSON string) error {
	res, err := experiments.RunCycleRate(8, 8, cycles, workers, linkLat)
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)
	if !res.StatsMatch {
		return fmt.Errorf("parallel run diverged from sequential run")
	}
	if benchJSON == "" {
		return nil
	}
	f, err := os.Create(benchJSON)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{
		"benchmark":            "router_cycle_rate",
		"mesh":                 fmt.Sprintf("%dx%d", res.W, res.H),
		"cycles":               res.Cycles,
		"workers":              res.Workers,
		"epoch":                res.Epoch,
		"num_cpu":              runtime.NumCPU(),
		"seq_cycles_per_sec":   res.SeqRate,
		"par_cycles_per_sec":   res.ParRate,
		"speedup":              res.Speedup,
		"seq_allocs_per_cycle": res.SeqAllocsPerCycle,
		"par_allocs_per_cycle": res.ParAllocsPerCycle,
		"stats_match":          res.StatsMatch,
	}); err != nil {
		return err
	}
	fmt.Printf("benchmark result written to %s\n", benchJSON)
	return nil
}

// runForensics runs the slack-attribution gate on a scenario: the
// forensics report must be byte-identical at every worker count, every
// non-advancing time-constrained cycle must carry exactly one blame
// cause (no unattributed cycles), and the blame totals must reconcile
// with the independent hardware counters.
func runForensics(scenarioPath string, cycles int64, linkLat int) error {
	res, err := experiments.RunForensics(scenarioPath, cycles, nil, linkLat)
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)
	if !res.OK() {
		return fmt.Errorf("forensics gate failed on %s", scenarioPath)
	}
	return nil
}

// meshEdge parses the first entry of -mesh as the square mesh edge,
// falling back to def when the flag is empty.
func meshEdge(meshList string, def int) (int, error) {
	if meshList == "" {
		return def, nil
	}
	first := strings.TrimSpace(strings.Split(meshList, ",")[0])
	e, err := strconv.Atoi(first)
	if err != nil || e < 2 {
		return 0, fmt.Errorf("bad -mesh entry %q", first)
	}
	return e, nil
}

// runCapacity runs the capacity-probe campaign: per scenario family it
// binary-searches the max admissible channel count on a square mesh,
// prints the saturation table, utilization heatmaps, and per-link
// headroom tables, then runs the audit byte-identity gate on the
// scenario. Any conservation violation or unexplained rejection fails
// the run — the CI capacity gate. A baseline file adds a per-family
// diff against an archived campaign with the same delta-table and
// nonzero-exit contract as sweep and admission.
func runCapacity(meshList, scenarioPath string, cycles int64, benchJSON, baseline string, maxRegress float64) error {
	edge, err := meshEdge(meshList, 8)
	if err != nil {
		return err
	}
	res, err := experiments.RunCapacity(edge, edge, nil)
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)
	for i := range res.Families {
		f := &res.Families[i]
		fmt.Printf("\n%s utilization heatmap (%dx%d, digit = floor(10*max link util at node), . = idle):\n%s",
			f.Name, res.W, res.H, f.Heatmap)
		f.HeadroomTable(8).Fprint(os.Stdout)
	}
	if !res.OK() {
		return fmt.Errorf("capacity gate failed on the %dx%d mesh", edge, edge)
	}
	aud, err := experiments.RunAuditIdentity(scenarioPath, cycles, nil)
	if err != nil {
		return err
	}
	fmt.Printf("\naudit identity: %s, %d decisions, workers %v, byte-identical: %v\n",
		aud.Scenario, aud.Decisions, aud.Workers, aud.Identical)
	if !aud.Identical {
		return fmt.Errorf("audit log diverged across worker counts on %s", scenarioPath)
	}
	var regress error
	if baseline != "" {
		base, err := experiments.LoadCapacityBaseline(baseline)
		if err != nil {
			return err
		}
		deltas := res.Diff(base)
		if len(deltas) == 0 {
			return fmt.Errorf("baseline %s shares no families with this campaign", baseline)
		}
		experiments.CapacityDeltaTable(deltas, baseline).Fprint(os.Stdout)
		regress = experiments.CheckCapacityRegression(deltas, maxRegress)
	}
	if benchJSON == "" {
		return regress
	}
	f, err := os.Create(benchJSON)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{
		"benchmark": "capacity_probe",
		"mesh":      fmt.Sprintf("%dx%d", res.W, res.H),
		"rows":      res.BaselineRows(),
	}); err != nil {
		return err
	}
	fmt.Printf("benchmark result written to %s\n", benchJSON)
	return regress
}

// runLayout runs the channel-layout synthesis campaign: per request
// family, the greedy baseline (default Admit) versus the synthesizer's
// route-and-split search over the identical request sequence, with
// binding-resource tables, rejection/utilization heatmaps, Reference-
// mode shadow re-validation of every synthesized layout, and the usual
// baseline-diff contract. strict names families (comma-separated) whose
// synthesized run must admit strictly more than greedy — the CI
// acceptance gate.
func runLayout(meshList string, requests int, benchJSON, baseline string, maxRegress float64, strict string) error {
	edge, err := meshEdge(meshList, 8)
	if err != nil {
		return err
	}
	res, err := experiments.RunLayout(edge, edge, requests, nil)
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)
	for i := range res.Families {
		f := &res.Families[i]
		fmt.Printf("\n%s greedy rejection heatmap (%dx%d, digit = rejections bound at router, . = none):\n%s",
			f.Name, res.W, res.H, f.GreedyRejectHeat)
		fmt.Printf("%s synthesized utilization heatmap (digit = floor(10*max link util at node), . = idle):\n%s",
			f.Name, f.SynthHeat)
		f.BindingTable().Fprint(os.Stdout)
	}
	if !res.OK() {
		for _, c := range res.Checks {
			if !c.OK {
				fmt.Fprintf(os.Stderr, "rtbench: layout check %s failed: %s\n", c.Name, c.Detail)
			}
		}
		return fmt.Errorf("layout gate failed on the %dx%d mesh", edge, edge)
	}
	var strictErr error
	for _, fam := range strings.Split(strict, ",") {
		fam = strings.TrimSpace(fam)
		if fam == "" {
			continue
		}
		if !res.StrictlyBeatsGreedy(fam) {
			strictErr = fmt.Errorf("layout synthesis did not strictly beat greedy on the %s family (%dx%d)", fam, edge, edge)
			fmt.Fprintln(os.Stderr, "rtbench:", strictErr)
		}
	}
	var regress error
	if baseline != "" {
		base, err := experiments.LoadLayoutBaseline(baseline)
		if err != nil {
			return err
		}
		deltas := res.Diff(base)
		if len(deltas) == 0 {
			return fmt.Errorf("baseline %s shares no families with this campaign", baseline)
		}
		experiments.LayoutDeltaTable(deltas, baseline).Fprint(os.Stdout)
		regress = experiments.CheckLayoutRegression(deltas, maxRegress)
	}
	if benchJSON != "" {
		f, err := os.Create(benchJSON)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{
			"benchmark": "layout_synthesis",
			"mesh":      fmt.Sprintf("%dx%d", res.W, res.H),
			"requests":  res.Requests,
			"rows":      res.BaselineRows(),
		}); err != nil {
			return err
		}
		fmt.Printf("benchmark result written to %s\n", benchJSON)
	}
	if strictErr != nil {
		return strictErr
	}
	return regress
}

// runSweep runs the full scaling matrix (meshes × worker counts). A
// non-zero workers narrows the sweep to that single worker count, a
// non-zero cycles overrides every mesh's budget, and minSpeedup turns
// the sweep into a regression tripwire for CI. A baseline file adds a
// per-row diff against the archived sweep, failing past maxRegress.
func runSweep(cycles int64, workers, linkLat int, meshList, benchJSON string, minSpeedup float64, baseline string, maxRegress float64) error {
	var meshes []int
	if meshList != "" {
		for _, s := range strings.Split(meshList, ",") {
			edge, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || edge < 2 {
				return fmt.Errorf("bad -mesh entry %q", s)
			}
			meshes = append(meshes, edge)
		}
	}
	var workerSet []int
	if workers != 0 {
		workerSet = []int{sim.ResolveWorkers(workers)}
	}
	var budget func(edge int) int64
	if cycles > 0 {
		budget = func(int) int64 { return cycles }
	}
	// Always say what parallelism the gate actually ran with — a CI log
	// that never states the effective GOMAXPROCS can hide a single-CPU
	// runner silently passing (or skipping) a scaling floor.
	fmt.Printf("sweep parallelism: GOMAXPROCS=%d, NumCPU=%d\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Fprintf(os.Stderr, "rtbench: WARNING: GOMAXPROCS=1 (NumCPU=%d) — every parallel row runs its workers on a single OS thread, so speedups here measure overhead, not scaling\n", runtime.NumCPU())
	}
	res, err := experiments.RunScalingSweep(meshes, workerSet, budget, linkLat)
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)

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
	rows := make([]jsonRow, 0, len(res.Rows))
	for _, r := range res.Rows {
		if !r.StatsMatch {
			return fmt.Errorf("%dx%d x%d: parallel run diverged from sequential run", r.W, r.H, r.Workers)
		}
		rows = append(rows, jsonRow{
			Mesh:            fmt.Sprintf("%dx%d", r.W, r.H),
			Cycles:          r.Cycles,
			Workers:         r.Workers,
			Epoch:           r.Epoch,
			SeqCyclesPerSec: r.SeqRate, ParCyclesPerSec: r.ParRate,
			Speedup:           r.Speedup,
			SeqAllocsPerCycle: r.SeqAllocsPerCycle, ParAllocsPerCycle: r.ParAllocsPerCycle,
			StatsMatch: r.StatsMatch,
		})
	}
	if minSpeedup > 0 {
		if res.GOMAXPROCS == 1 || res.NumCPU == 1 {
			// A single-CPU runner cannot demonstrate scaling; skipping the
			// floor silently would let a real regression hide behind the
			// hardware, so say exactly what was not enforced.
			fmt.Fprintf(os.Stderr, "rtbench: SKIPPED -min-speedup %.2f gate: single-CPU runner (GOMAXPROCS=%d, NumCPU=%d) cannot measure parallel speedup\n",
				minSpeedup, res.GOMAXPROCS, res.NumCPU)
		} else {
			for _, r := range res.Rows {
				if r.Workers > 1 && r.Speedup < minSpeedup {
					return fmt.Errorf("%dx%d x%d: speedup %.2fx below the %.2fx floor",
						r.W, r.H, r.Workers, r.Speedup, minSpeedup)
				}
			}
		}
	}
	var regress error
	if baseline != "" {
		base, err := experiments.LoadSweepBaseline(baseline)
		if err != nil {
			return err
		}
		deltas := res.Diff(base)
		if len(deltas) == 0 {
			return fmt.Errorf("baseline %s shares no (mesh, workers) rows with this sweep", baseline)
		}
		experiments.DeltaTable(deltas, baseline).Fprint(os.Stdout)
		// Write the fresh sweep (the next baseline / CI artifact) before
		// failing, so a regression still leaves the evidence behind.
		regress = experiments.CheckRegression(deltas, maxRegress)
	}
	if benchJSON == "" {
		return regress
	}
	out := map[string]any{
		"benchmark":    "router_scaling_sweep",
		"gomaxprocs":   res.GOMAXPROCS,
		"num_cpu":      res.NumCPU,
		"link_latency": linkLat,
		"rows":         rows,
	}
	// Headline: the 8×8 mesh at 4 workers, the configuration the older
	// single-point cyclerate benchmark archived.
	if h := res.Row(8, 4); h != nil {
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
	f, err := os.Create(benchJSON)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	fmt.Printf("benchmark result written to %s\n", benchJSON)
	return regress
}

func runAdmit() error {
	res, err := experiments.RunAdmit()
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)
	return nil
}

// runAdmissionCampaign runs the mass-admission campaign: per request
// family it times the reference (pre-incremental) sequential admission
// path against the incremental one over the same request sequence —
// both serial, so the speedup gate holds on any runner — then measures
// AdmitBatch at workers {1,2,4} with byte-identity checks and a churn
// phase. The -mesh flag's first entry sizes the square mesh (default
// 16, the acceptance configuration).
func runAdmissionCampaign(meshList string, requests int, benchJSON string, minSpeedup, minRate float64, baseline string, maxRegress float64) error {
	edge := 16
	if meshList != "" {
		first := strings.TrimSpace(strings.Split(meshList, ",")[0])
		e, err := strconv.Atoi(first)
		if err != nil || e < 2 {
			return fmt.Errorf("bad -mesh entry %q", first)
		}
		edge = e
	}
	// Same contract as the sweep gate: the effective parallelism is
	// printed unconditionally so a CI log always shows what the batch
	// rows could possibly demonstrate.
	fmt.Printf("admission parallelism: GOMAXPROCS=%d, NumCPU=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	res, err := experiments.RunAdmission(edge, edge, requests, nil)
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)
	if !res.OK() {
		for _, c := range res.Checks {
			if !c.OK {
				fmt.Fprintf(os.Stderr, "rtbench: admission check %s failed: %s\n", c.Name, c.Detail)
			}
		}
		return fmt.Errorf("admission identity/ledger checks failed on the %dx%d mesh", edge, edge)
	}
	if minSpeedup > 0 {
		// Serial vs serial, both timed in this very run — enforceable on
		// any hardware, single-CPU runners included.
		if got := res.MinSpeedup(); got < minSpeedup {
			return fmt.Errorf("incremental speedup %.2fx below the %.2fx floor (reference vs incremental, both sequential)",
				got, minSpeedup)
		}
	}
	if minRate > 0 {
		if res.GOMAXPROCS == 1 || res.NumCPU == 1 {
			fmt.Fprintf(os.Stderr, "rtbench: SKIPPED -min-admit-rate %.0f gate: single-CPU runner (GOMAXPROCS=%d, NumCPU=%d) cannot demonstrate parallel batch throughput\n",
				minRate, res.GOMAXPROCS, res.NumCPU)
		} else if got := res.BestBatchRate(); got < minRate {
			return fmt.Errorf("best AdmitBatch rate %.0f decisions/sec below the %.0f floor", got, minRate)
		}
	}
	var regress error
	if baseline != "" {
		base, err := experiments.LoadAdmissionBaseline(baseline)
		if err != nil {
			return err
		}
		deltas := res.Diff(base)
		if len(deltas) == 0 {
			return fmt.Errorf("baseline %s shares no families with this campaign", baseline)
		}
		experiments.AdmissionDeltaTable(deltas, baseline).Fprint(os.Stdout)
		// Write the fresh campaign (the next baseline / CI artifact)
		// before failing, so a regression still leaves evidence behind.
		regress = experiments.CheckAdmissionRegression(deltas, maxRegress)
	}
	if benchJSON == "" {
		return regress
	}
	f, err := os.Create(benchJSON)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{
		"benchmark":  "mass_admission",
		"mesh":       fmt.Sprintf("%dx%d", res.W, res.H),
		"requests":   res.Requests,
		"gomaxprocs": res.GOMAXPROCS,
		"num_cpu":    res.NumCPU,
		"workers":    res.WorkerSet,
		"rows":       res.BaselineRows(),
	}); err != nil {
		return err
	}
	fmt.Printf("benchmark result written to %s\n", benchJSON)
	return regress
}
