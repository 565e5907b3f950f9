// Command benchmark is the repository's one performance ledger: six
// seeded workloads over the dataplane, the simulation kernel and the
// admission controller, measured from outside through exported functions
// and counters only. BENCHMARK.json at the repository root names the
// command, the workloads, the metrics and their bounds; README.md beside
// this file says why each workload exists and how to compare two commits.
//
//	bash benchmark/run.sh --workload mesh_loaded --seed 1 --seconds 8 --trace 0
//
// One invocation runs one workload. It prints every metric by name with
// its unit, checks the workload's outputs, and ends with one JSON line:
// the end-to-end metrics with --trace 0, the per-layer metrics (from a
// run with spans recorded around every call into a layer) with --trace 1.
// A failed output or workload-validity check sets "correct": false.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// config is what one invocation was asked to do.
type config struct {
	seed    uint64
	seconds float64 // length of the timed part
	smoke   bool    // 4×4 meshes, minimal rounds: a wiring test, not a measurement
	tr      *tracer // nil unless --trace 1
	host    *speedometer
}

// outcome is what a workload hands back; main turns it into metrics.
type outcome struct {
	attempted, failed int64
	// problems lists failed output and workload-validity checks.
	problems []string
	// setup holds the host seconds of each set-up repetition; rate the
	// operations per host second of each throughput segment or round; lat
	// the host µs per operation of every individually timed operation.
	setup, rate, lat []float64
	heapMB           float64
	// layer holds the per-layer metrics the workload produced (traced
	// run only); notes are extra human-readable lines.
	layer map[string]float64
	notes []string
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its implementation. The names are
// final: BENCHMARK.json and every later comparison refer to them.
var workloads = map[string]func(config) (*outcome, error){
	"mesh_loaded":  func(c config) (*outcome, error) { return runMesh(meshLoaded, c) },
	"mesh_sparse":  func(c config) (*outcome, error) { return runMesh(meshSparse, c) },
	"admit_fill":   runAdmitFill,
	"admit_storm":  runAdmitStorm,
	"admit_churn":  runAdmitChurn,
	"layout_synth": runLayoutSynth,
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports all
// of them. An operation is one simulated mesh cycle on mesh_*, one
// controller call on admit_*, one request on layout_synth. The three host
// times are at reference host speed (hostspeed.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"host_heap_mb", "MB"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 8, "length of the timed part in host seconds")
		trace    = flag.Int("trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
		traceOut = flag.String("trace-out", "", "span file of a traced run (default benchmark/out/<workload>-<seed>.jsonl)")
		smoke    = flag.Bool("smoke", false, "tiny meshes and minimal rounds: exercises every code path in seconds, measures nothing")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || flag.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload <%s> [--seed n] [--seconds s] [--trace 0|1]\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}

	// At most two threads of load, the reference host's core count; with
	// fewer CPUs mesh_loaded's two-worker leg still runs but is not evidence.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	fmt.Printf("host.cpus %d count\nhost.gomaxprocs %d count\n", runtime.NumCPU(), procs)
	if runtime.NumCPU() < 2 {
		fmt.Println("host.oversubscribed 1 count")
	}

	cfg := config{seed: *seed, seconds: *seconds, smoke: *smoke, host: &speedometer{}}
	if *trace != 0 {
		cfg.tr = newTracer()
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if cfg.tr != nil {
		path := *traceOut
		if path == "" {
			path = fmt.Sprintf("benchmark/out/%s-%d.jsonl", *workload, *seed)
		}
		if err := cfg.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Printf("trace %d spans written to %s\n", len(cfg.tr.spans), path)
	}

	res := report(out, cfg)
	for _, n := range out.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%s %.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	share := 0.0
	if out.attempted > 0 {
		share = float64(out.failed) / float64(out.attempted)
	}
	fmt.Printf("failed_op_share %.3g (%d/%d)\n", share, out.failed, out.attempted)
	for _, p := range out.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// report turns a workload's outcome into the result line: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func report(out *outcome, cfg config) result {
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	q1, slow, q3 := quartiles(cfg.host.readings)
	out.note("host slowdown quartiles %.4g %.4g %.4g over %d readings of the reference task: end-to-end host times are divided by it",
		q1, slow, q3, len(cfg.host.readings))
	if cfg.tr == nil {
		res.Metrics = endToEndMetrics(out)
	} else {
		out.layer["host.cpus"] = float64(runtime.NumCPU())
		out.layer["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
		out.layer["host.slowdown"] = slow
		out.layer["host.op_p99_us"], _ = percentile(sorted(out.lat), 99)
		for _, d := range perLayer {
			// A layer the workload does not exercise reports 0.
			res.Metrics[d.name] = metricValue{out.layer[d.name], d.unit}
		}
		for name := range out.layer {
			if _, ok := res.Metrics[name]; !ok {
				out.check(false, "per-layer metric %s is not declared in perLayer", name)
			}
		}
	}
	res.Correct = len(out.problems) == 0
	return res
}

// endToEndMetrics reduces a workload's samples to the end-to-end metrics:
// medians over set-up repetitions and over throughput segments, and the
// median of every individually timed operation. The tail is printed, at
// the highest percentile with its ten samples beyond, but is not an
// end-to-end metric: on a shared host the tail of a host time is the
// neighbours', not the program's (README.md, "A/A").
func endToEndMetrics(out *outcome) map[string]metricValue {
	lat := sorted(out.lat)
	p50, _ := percentile(lat, 50)
	q1, med, q3 := quartiles(out.rate)
	out.note("ops_per_s quartiles %.6g %.6g %.6g over %d segments", q1, med, q3, len(out.rate))
	if hi := highestPercentile(lat); hi > 0 {
		v, _ := percentile(lat, hi)
		out.note("op latency p%g %.6g us over %d samples", hi, v, len(lat))
	}
	vals := map[string]float64{"setup_s": median(out.setup), "ops_per_s": med, "op_p50_us": p50, "host_heap_mb": out.heapMB}
	m := make(map[string]metricValue, len(endToEnd))
	for _, d := range endToEnd {
		m[d.name] = metricValue{vals[d.name], d.unit}
	}
	return m
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// heapMB returns the live heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
