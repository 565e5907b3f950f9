// Command rtbench regenerates every table and figure of the paper's
// evaluation, plus the extension studies catalogued in DESIGN.md §4 and
// the campaigns that gate the simulator itself.
//
// Usage:
//
//	rtbench                   # run everything in "all"
//	rtbench -exp fig7         # one experiment
//	rtbench -exp fig7 -chart  # include ASCII charts where available
//
// The experiments table below is the one place an experiment's name,
// the flags it consumes and its membership in "all" are written down;
// `rtbench -h` lists the names, and a flag the selected experiment does
// not consume is an error (exit 2), not a silent no-op.
package main

import (
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

var (
	exp          = flag.String("exp", "all", "experiment to run ("+strings.Join(expNames(), "|")+"|all)")
	seed         = flag.Int64("seed", 1, "seed for the faults campaign's fault placement")
	cycles       = flag.Int64("cycles", 0, "override simulated cycles where applicable (0 = experiment default)")
	chart        = flag.Bool("chart", false, "render ASCII charts where available")
	workers      = flag.Int("workers", 0, "narrow the sweep to this single kernel worker count (0 = the default worker set)")
	benchJSON    = flag.String("benchjson", "", "write the sweep's mesh × workers matrix as JSON to this file (e.g. BENCH_router.json)")
	meshList     = flag.String("mesh", "", "comma-separated square mesh edges for the sweep (default 8,16,32,64; 128 runs when asked for and peaks at about 1.8 GiB resident); the first entry sizes the capacity/layout (default 8) and admission (default 16) mesh")
	minSpeedup   = flag.Float64("min-speedup", 0, "fail the sweep if any parallel row is slower than this fraction of sequential (0 = don't enforce)")
	scenarioPath = flag.String("scenario", "scenarios/faulty.json", "scenario file for -exp forensics and the audit-identity leg of -exp capacity")
	requests     = flag.Int("requests", 0, "request count per family for -exp admission and -exp layout (0 = 100000 for admission, 3·nodes for layout)")
	strictLayout = flag.String("strict-layout", "", "comma-separated families whose synthesized run must admit strictly more than greedy in -exp layout (e.g. hotspot,transpose)")
	minAdmitRate = flag.Float64("min-admit-rate", 0, "fail -exp admission if the slowest family's incremental sequential decisions/sec is below this floor (0 = don't enforce)")
	linkLatency  = flag.Int("link-latency", 1, "mesh link latency in cycles for sweep/forensics, on every run compared; the parallel kernel derives its synchronization epoch from it, so deeper links amortize its barrier (1 = the paper's wire, per-cycle barriers)")
	cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile   = flag.String("memprofile", "", "write a heap profile to this file at exit")
	metricsOut   = flag.String("metrics", "", "write aggregate telemetry across all runs to this file (.prom/.txt = Prometheus text, otherwise JSON; - = stdout)")
	listen       = flag.String("listen", "", "serve live telemetry over HTTP at this address while experiments run (e.g. :8080); router counters update every 1024 cycles of a simulation run and when it returns")
	traceOut     = flag.String("trace-out", "", "write the merged event timeline across all runs to this file (.json = Chrome trace-event JSON for Perfetto, .jsonl = JSON lines, otherwise the human-readable dump)")
	traceBuf     = flag.Int("trace-buf", obs.DefaultShardCap, "per-node event buffer capacity for -trace-out (oldest events evict first)")
)

// experiment is one -exp name: the flags it consumes beyond globalFlags,
// whether "all" includes it, and how to run it. Adding an experiment is
// one entry here plus its smoke case in main_test.go.
type experiment struct {
	name  string
	inAll bool
	flags []string
	run   func() error
}

// experimentList is in "all" order. The campaigns after sharing probe
// the simulator rather than the paper and run on request only.
var experimentList = []experiment{
	{"e1", true, nil, func() error {
		return show(experiments.RunE1(router.DefaultConfig(), []int{16, 32, 64, 128, 256, 512, 1024}))
	}},
	{"fig7", true, []string{"cycles", "chart"}, runFig7},
	{"fig6", true, nil, func() error { return show(experiments.RunFig6(4)) }},
	{"chip", true, nil, runChip},
	{"horizon", true, []string{"cycles"}, func() error {
		return show(experiments.RunHorizon([]uint32{0, 2, 4, 8, 16, 32, 48}, cyclesOr(60000)))
	}},
	{"compare", true, []string{"cycles"}, func() error { return show(experiments.RunCompare(cyclesOr(200000))) }},
	{"approx", true, []string{"cycles"}, func() error {
		return show(experiments.RunApprox([]uint{0, 1, 2, 3, 4, 5}, cyclesOr(120000)))
	}},
	{"vct", true, []string{"cycles"}, func() error {
		if err := show(experiments.RunVCT(3, cyclesOr(100000))); err != nil {
			return err
		}
		return show(experiments.RunVCTLoad([]int{0, 1, 2, 4, 6}, cyclesOr(100000)))
	}},
	{"multicast", true, nil, func() error { return show(experiments.RunMulticast([]int{1, 2, 4, 8}, 10)) }},
	{"admit", true, nil, func() error { return show(experiments.RunAdmit()) }},
	{"load", true, []string{"cycles"}, func() error {
		return show(experiments.RunLoadSweep([]float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8}, cyclesOr(60000)))
	}},
	{"skew", true, []string{"cycles"}, func() error {
		return show(experiments.RunSkew([]int64{-400, -160, -40, 0, 40, 100, 160, 240, 400}, cyclesOr(60000)))
	}},
	{"failover", true, nil, func() error { return show(experiments.RunFailover(8)) }},
	{"faults", true, []string{"seed"}, func() error { return show(experiments.RunFaults(40, *seed)) }},
	{"ring", true, []string{"cycles"}, func() error { return show(experiments.RunRing(8, 8, cyclesOr(100000))) }},
	{"sharing", true, []string{"cycles"}, func() error {
		return show(experiments.RunSharing([]int{1, 2, 4, 8, 16, 32}, cyclesOr(120000)))
	}},
	{"sweep", false, []string{"cycles", "workers", "link-latency", "mesh", "benchjson", "min-speedup"}, runSweep},
	{"forensics", false, []string{"scenario", "cycles", "link-latency"}, runForensics},
	{"capacity", false, []string{"mesh", "scenario", "cycles"}, runCapacity},
	{"admission", false, []string{"mesh", "requests", "min-admit-rate"}, runAdmission},
	{"layout", false, []string{"mesh", "requests", "strict-layout"}, runLayout},
}

// globalFlags apply regardless of the experiment.
var globalFlags = []string{"exp", "cpuprofile", "memprofile", "metrics", "listen", "trace-out", "trace-buf"}

func expNames() []string {
	names := make([]string, len(experimentList))
	for i, e := range experimentList {
		names[i] = e.name
	}
	return names
}

// selected returns the experiments -exp name runs, nil if there is no
// such name: the inAll entries for "all", otherwise the one entry.
func selected(name string) []experiment {
	var out []experiment
	for _, e := range experimentList {
		if e.name == name || (name == "all" && e.inAll) {
			out = append(out, e)
		}
	}
	return out
}

// unconsumedFlags returns the explicitly set flags none of the selected
// experiments consumes, sorted.
func unconsumedFlags(sel []experiment, set map[string]bool) []string {
	allowed := make(map[string]bool)
	for _, f := range globalFlags {
		allowed[f] = true
	}
	for _, e := range sel {
		for _, f := range e.flags {
			allowed[f] = true
		}
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

func main() {
	flag.Parse()

	sel := selected(*exp)
	if len(sel) == 0 {
		fmt.Fprintf(os.Stderr, "rtbench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	// Every explicitly set flag must be consumed by the selected
	// experiment (or apply globally): a flag the experiment silently
	// ignores — say -min-speedup on an experiment with no such floor —
	// reads as a gate that ran when it never did.
	setFlags := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	if unknown := unconsumedFlags(sel, setFlags); len(unknown) > 0 {
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
		fmt.Printf("tracing: on (per-node buffer %d events)\n", *traceBuf)
	}

	for _, e := range sel {
		if err := e.run(); err != nil {
			fatal(e.name, err)
		}
	}
	// The aggregate registry and the merged timeline accumulate across
	// every system the experiments built.
	if *metricsOut != "" {
		if err := reg.WriteFile(*metricsOut); err != nil {
			fatal("metrics", err)
		}
		if *metricsOut != "-" {
			fmt.Printf("telemetry report written to %s\n", *metricsOut)
		}
	}
	if col != nil {
		if err := obs.WriteTraceFile(*traceOut, col, slo); err != nil {
			fatal("trace", err)
		}
		fmt.Printf("trace written to %s (%d events recorded, %d evicted)\n", *traceOut, col.Total(), col.Dropped())
	}
	finishProfiles()
}

// profStop holds the -cpuprofile/-memprofile finalizers;
// finishProfiles runs them on every exit path, fatal included, so a
// failed run still leaves usable profiles behind.
var profStop []func()

func finishProfiles() {
	for _, f := range profStop {
		f()
	}
}

func fatal(name string, err error) {
	finishProfiles()
	fmt.Fprintf(os.Stderr, "rtbench: %s: %v\n", name, err)
	os.Exit(1)
}

// tables is where show, runFig7, runChip and runLayout print their
// tables: stdout, except under TestRunnersSmoke, which compares what
// lands here with the recorded golden output.
var tables io.Writer = os.Stdout

// show prints an experiment result's table; it takes the (result,
// error) pair every experiments.RunX returns, so a table entry is
// show(experiments.RunX(…)).
func show(res interface{ Table() *experiments.Table }, err error) error {
	if err != nil {
		return err
	}
	res.Table().Fprint(tables)
	return nil
}

// cyclesOr returns -cycles when set, else the experiment's own budget.
func cyclesOr(def int64) int64 {
	if *cycles > 0 {
		return *cycles
	}
	return def
}

// meshEdges parses -mesh; nil when the flag is empty.
func meshEdges() ([]int, error) {
	if *meshList == "" {
		return nil, nil
	}
	var edges []int
	for _, s := range strings.Split(*meshList, ",") {
		edge, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || edge < 2 {
			return nil, fmt.Errorf("bad -mesh entry %q", s)
		}
		edges = append(edges, edge)
	}
	return edges, nil
}

// meshEdge returns the first -mesh entry as the square mesh edge,
// falling back to def when the flag is empty.
func meshEdge(def int) (int, error) {
	edges, err := meshEdges()
	if err != nil || len(edges) == 0 {
		return def, err
	}
	return edges[0], nil
}

// failedChecks reports every failed campaign check on stderr.
func failedChecks(campaign string, checks experiments.Checks) {
	for _, c := range checks {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "rtbench: %s check %s failed: %s\n", campaign, c.Name, c.Detail)
		}
	}
}

func runFig7() error {
	cfg := experiments.DefaultFig7()
	cfg.Cycles = cyclesOr(cfg.Cycles)
	res, err := experiments.RunFig7(cfg)
	if err != nil {
		return err
	}
	res.Table().Fprint(tables)
	if *chart {
		fmt.Fprintln(tables, res.Chart())
	}
	return nil
}

func runChip() error {
	res := experiments.RunChip()
	res.Table().Fprint(tables)
	res.SharedTable().Fprint(tables)
	res.ClockTable().Fprint(tables)
	return nil
}

// runForensics is the slack-attribution gate: it fails unless every
// check of experiments.RunForensics holds on the scenario.
func runForensics() error {
	res, err := experiments.RunForensics(*scenarioPath, *cycles, nil, *linkLatency)
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)
	if !res.OK() {
		return fmt.Errorf("forensics gate failed on %s", *scenarioPath)
	}
	return nil
}

// runCapacity is the CI capacity gate: the capacity-probe campaign's
// saturation table, heatmaps and headroom tables, then the audit
// byte-identity leg on the scenario. A conservation violation, an
// unexplained rejection or a diverging audit log fails the run.
func runCapacity() error {
	edge, err := meshEdge(8)
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
	aud, err := experiments.RunAuditIdentity(*scenarioPath, *cycles, nil)
	if err != nil {
		return err
	}
	fmt.Printf("\naudit identity: %s, %d decisions, workers %v, byte-identical: %v\n",
		aud.Scenario, aud.Decisions, aud.Workers, aud.Identical)
	if !aud.Identical {
		return fmt.Errorf("audit log diverged across worker counts on %s", *scenarioPath)
	}
	return nil
}

// runLayout prints the channel-layout synthesis campaign (greedy vs the
// route-and-split search, per family) and fails on any campaign check;
// -strict-layout names families whose synthesized run must admit
// strictly more than greedy — the CI acceptance gate.
func runLayout() error {
	edge, err := meshEdge(8)
	if err != nil {
		return err
	}
	res, err := experiments.RunLayout(edge, edge, *requests, nil)
	if err != nil {
		return err
	}
	res.Table().Fprint(tables)
	for i := range res.Families {
		f := &res.Families[i]
		fmt.Fprintf(tables, "\n%s greedy rejection heatmap (%dx%d, digit = rejections bound at router, . = none):\n%s",
			f.Name, res.W, res.H, f.GreedyRejectHeat)
		fmt.Fprintf(tables, "%s synthesized utilization heatmap (digit = floor(10*max link util at node), . = idle):\n%s",
			f.Name, f.SynthHeat)
		f.BindingTable().Fprint(tables)
	}
	if !res.OK() {
		failedChecks("layout", res.Checks)
		return fmt.Errorf("layout gate failed on the %dx%d mesh", edge, edge)
	}
	var strictErr error
	for _, fam := range strings.Split(*strictLayout, ",") {
		fam = strings.TrimSpace(fam)
		if fam != "" && !res.StrictlyBeatsGreedy(fam) {
			strictErr = fmt.Errorf("layout synthesis did not strictly beat greedy on the %s family (%dx%d)", fam, edge, edge)
			fmt.Fprintln(os.Stderr, "rtbench:", strictErr)
		}
	}
	return strictErr
}

// runSweep runs the scaling matrix (meshes × worker counts). A non-zero
// -workers narrows the sweep to that single worker count, a non-zero
// -cycles overrides every mesh's budget, and -min-speedup turns the
// sweep into a regression tripwire for CI.
func runSweep() error {
	meshes, err := meshEdges()
	if err != nil {
		return err
	}
	var workerSet []int
	if *workers != 0 {
		workerSet = []int{sim.ResolveWorkers(*workers)}
	}
	var budget func(edge int) int64
	if n := *cycles; n > 0 {
		budget = func(int) int64 { return n }
	}
	// Always say what parallelism the gate actually ran with — a CI log
	// that never states the effective GOMAXPROCS can hide a single-CPU
	// runner silently passing (or skipping) a scaling floor.
	fmt.Printf("sweep parallelism: GOMAXPROCS=%d, NumCPU=%d\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Fprintf(os.Stderr, "rtbench: WARNING: GOMAXPROCS=1 (NumCPU=%d) — every parallel row runs its workers on a single OS thread, so speedups here measure overhead, not scaling\n", runtime.NumCPU())
	}
	res, err := experiments.RunScalingSweep(meshes, workerSet, budget, *linkLatency)
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)
	return judgeSweep(res, *linkLatency, *benchJSON, *minSpeedup)
}

// judgeSweep archives the sweep to benchJSON and only then enforces
// counter identity and the -min-speedup floor, so the run one most
// wants to inspect — a failing one — still leaves its evidence (and
// CI's upload-artifact step its file) behind.
func judgeSweep(res *experiments.SweepResult, linkLat int, benchJSON string, minSpeedup float64) error {
	if benchJSON != "" {
		if err := res.WriteJSONFile(benchJSON, linkLat); err != nil {
			return err
		}
		fmt.Printf("benchmark result written to %s\n", benchJSON)
	}
	for _, r := range res.Rows {
		if !r.StatsMatch {
			return fmt.Errorf("%dx%d x%d: parallel run diverged from sequential run", r.W, r.H, r.Workers)
		}
	}
	if minSpeedup <= 0 {
		return nil
	}
	if res.GOMAXPROCS == 1 || res.NumCPU == 1 {
		// A single-CPU runner cannot demonstrate scaling; skipping the
		// floor silently would let a real regression hide behind the
		// hardware, so say exactly what was not enforced.
		fmt.Fprintf(os.Stderr, "rtbench: SKIPPED -min-speedup %.2f gate: single-CPU runner (GOMAXPROCS=%d, NumCPU=%d) cannot measure parallel speedup\n",
			minSpeedup, res.GOMAXPROCS, res.NumCPU)
		return nil
	}
	for _, r := range res.Rows {
		if r.Workers > 1 && r.Speedup < minSpeedup {
			return fmt.Errorf("%dx%d x%d: speedup %.2fx below the %.2fx floor",
				r.W, r.H, r.Workers, r.Speedup, minSpeedup)
		}
	}
	return nil
}

// runAdmission prints the mass-admission campaign on a square mesh
// (default 16, the acceptance configuration) and enforces its identity
// and ledger checks, then the -min-admit-rate floor.
func runAdmission() error {
	edge, err := meshEdge(16)
	if err != nil {
		return err
	}
	res, err := experiments.RunAdmission(edge, edge, *requests)
	if err != nil {
		return err
	}
	res.Table().Fprint(os.Stdout)
	if !res.OK() {
		failedChecks("admission", res.Checks)
		return fmt.Errorf("admission identity/ledger checks failed on the %dx%d mesh", edge, edge)
	}
	// The floor is a serial figure timed in this very run — enforceable
	// on any hardware, single-CPU runners included.
	if *minAdmitRate > 0 {
		if got := res.MinSeqRate(); got < *minAdmitRate {
			return fmt.Errorf("slowest family's sequential admission rate %.0f decisions/sec below the %.0f floor", got, *minAdmitRate)
		}
	}
	return nil
}
