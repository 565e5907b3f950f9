// Command rtsim runs a configurable mixed-traffic scenario on a mesh of
// real-time routers and prints a network-wide summary: the
// network-simulator companion the paper lists as ongoing work (ref 30).
//
// Example:
//
//	rtsim -mesh 4x4 -channels 12 -imin 16 -deadline 96 -berate 0.3 -cycles 200000
//
// opens 12 randomly placed real-time channels (Imin 16 slots, end-to-end
// bound 96 slots), runs uniform best-effort background traffic at 0.3
// bytes/cycle per node, simulates 200k cycles and reports latency and
// miss statistics.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// workloadFlags describe the flag-driven workload. A scenario file
// carries its own mesh, channels, traffic and router settings, so one of
// these set beside -scenario would be dropped: it is an error (exit 2),
// not a silent no-op.
var workloadFlags = []string{"mesh", "channels", "imin", "deadline", "smax", "berate", "besize",
	"cycles", "seed", "horizon", "window", "sched", "vct", "shared"}

// observers is the observability stack one run attaches: whichever of
// these the flags asked for, nil otherwise.
type observers struct {
	reg *metrics.Registry
	col *obs.Sharded
	slo *obs.SLO
	fns *obs.Forensics
	rec *obs.Recorder
	aud *obs.AuditLog
}

func main() { os.Exit(run(os.Args[1:])) }

// run is main with its exit code returned, so tests can drive the
// command in-process.
func run(args []string) int {
	fs := flag.NewFlagSet("rtsim", flag.ExitOnError)
	var (
		meshDim    = fs.String("mesh", "4x4", "mesh dimensions WxH")
		channels   = fs.Int("channels", 8, "real-time channels to open at random placements")
		imin       = fs.Int64("imin", 16, "channel Imin in slots")
		deadline   = fs.Int64("deadline", 96, "channel end-to-end bound in slots")
		smax       = fs.Int("smax", 18, "channel message size in bytes")
		beRate     = fs.Float64("berate", 0.2, "best-effort bytes/cycle injected per node (0 disables)")
		beSize     = fs.Int("besize", 64, "best-effort payload bytes")
		cycles     = fs.Int64("cycles", 100000, "cycles to simulate")
		seed       = fs.Int64("seed", 1, "workload placement seed")
		horizon    = fs.Uint("horizon", 8, "horizon parameter programmed on all ports (slots)")
		window     = fs.Int64("window", 8, "source regulator window (slots)")
		scheduler  = fs.String("sched", "edf", "link scheduler: edf|fifo|static")
		vct        = fs.Bool("vct", false, "enable virtual cut-through for time-constrained traffic")
		shared     = fs.Bool("shared", false, "use shared-pool buffer accounting instead of partitioned")
		traceN     = fs.Int("trace", 0, "dump the last N network events after the run (0 disables)")
		traceOut   = fs.String("trace-out", "", "write the merged event timeline to this file after the run (.json = Chrome trace-event JSON for Perfetto, .jsonl = JSON lines, otherwise the human-readable dump)")
		traceBuf   = fs.Int("trace-buf", obs.DefaultShardCap, "per-node event buffer capacity for -trace/-trace-out (oldest events evict first)")
		scenPath   = fs.String("scenario", "", "run a JSON scenario file instead of the flag-driven workload (the workload flags then conflict with it)")
		links      = fs.Bool("links", false, "print the per-link utilization table after the run")
		metricsOut = fs.String("metrics", "", "write the telemetry report to this file after the run (.prom/.txt = Prometheus text, otherwise JSON; - = stdout)")
		sample     = fs.Int64("sample", 0, "snapshot telemetry totals into a time series every N cycles (0 = 1% of the run, the scenario's own length under -scenario, when telemetry is on)")
		listen     = fs.String("listen", "", "serve live telemetry over HTTP at this address during the run (e.g. :8080; also serves net/http/pprof under /debug/pprof/)")
		workers    = fs.Int("workers", 1, "simulation kernel workers: 1 = sequential, >1 parallel (bit-identical results), 0 = GOMAXPROCS")
		explain    = fs.Bool("explain", false, "print the slack-attribution report after the run: cause totals, blame matrix, per-channel waterfalls, longest stall episodes")
		flight     = fs.String("flight", "", "write the flight-recorder dump to this file after the run: the merged events of the last -flight-cycles cycles before the final trigger (.jsonl = JSON lines with trigger records, otherwise Chrome trace-event JSON for Perfetto)")
		flightN    = fs.Int64("flight-cycles", 0, "flight-recorder dump window in cycles (0 = 4096); the dump draws on the -trace-buf event retention, so windows deeper than the per-node buffer covers come back truncated")
		admitRep   = fs.Bool("admit-report", false, "print the capacity ledger (per-link reservations, EDF headroom, buffer/id usage) and the admission audit trail after the run")
		memProfile = fs.String("memprofile", "", "write a heap (allocs) profile to this file at exit")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits 2 inside Parse

	if *scenPath != "" {
		var bad []string
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(workloadFlags, f.Name) {
				bad = append(bad, f.Name)
			}
		})
		if len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "rtsim: -scenario %s carries its own workload and does not consume -%s\n",
				*scenPath, strings.Join(bad, ", -"))
			return 2
		}
	}

	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rtsim: memprofile:", err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "rtsim: memprofile:", err)
				return
			}
			fmt.Printf("heap profile written to %s\n", path)
		}()
	}

	// core.Options treats 0 as "default" (sequential); the documented
	// CLI meaning of 0 is GOMAXPROCS, which Options expresses as a
	// negative count.
	if *workers == 0 {
		*workers = -1
	}

	// Tracing is sharded per node (obs.Sharded), so it composes with any
	// worker count; the merged timeline is identical across modes.
	// Forensics and the flight recorder both reconstruct from the merged
	// timeline, so requesting either brings the collector up too.
	o := observers{reg: openTelemetry(*metricsOut, *listen), slo: obs.NewSLO()}
	if *traceN > 0 || *traceOut != "" || *explain || *flight != "" {
		o.col = obs.NewSharded(*traceBuf)
	}
	if *explain || *flight != "" {
		o.fns = obs.NewForensics()
		o.fns.UseSLO(o.slo)
		o.rec = obs.NewRecorder(*flightN, 0)
	}
	if *admitRep {
		o.aud = obs.NewAuditLog()
	}

	var sys *core.System
	if *scenPath != "" {
		sys = runScenario(*scenPath, o, *sample, *workers)
	} else {
		w, h, err := parseMesh(*meshDim)
		if err != nil {
			fail(err)
		}
		cfg := router.DefaultConfig()
		cfg.VCT = *vct
		switch *scheduler {
		case "edf":
		case "fifo":
			cfg.Scheduler = router.SchedFIFO
		case "static":
			cfg.Scheduler = router.SchedStaticPriority
		default:
			fail(fmt.Errorf("unknown scheduler %q", *scheduler))
		}
		policy := admission.Partitioned
		if *shared {
			policy = admission.SharedPool
		}
		fx := core.Fixture{
			W: w, H: h, Seed: *seed,
			Options: core.Options{
				Router:             cfg,
				Metrics:            o.reg,
				MetricsSampleEvery: samplePeriod(o.reg, *sample, *cycles),
				Collector:          o.col,
				ChannelSLO:         o.slo,
				Forensics:          o.fns,
				Recorder:           o.rec,
				Audit:              o.aud,
				Workers:            *workers,
			}.WithAdmission(admission.Config{
				Policy:       policy,
				SourceWindow: *window,
				Horizon:      uint32(*horizon),
			}),
		}
		if *beRate > 0 {
			fx.BestEffort = core.EveryNode(w, h, core.BESource{Rate: *beRate, SizeMin: *beSize, SizeMax: *beSize})
		}
		b, err := fx.Build()
		if err != nil {
			fail(err)
		}
		sys = b.System

		// Channels go to random placements until enough are admitted, so
		// the request list is not known up front: each try is one Open.
		rng := rand.New(rand.NewSource(*seed))
		req := core.ChannelReq{Spec: rtc.Spec{Imin: *imin, Smax: *smax, D: *deadline}}
		opened := 0
		for try := 0; try < *channels*10 && opened < *channels; try++ {
			req.Src = mesh.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
			dst := mesh.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
			if req.Src == dst {
				continue
			}
			req.Dsts = []mesh.Coord{dst}
			_, refused, err := sys.Open(req)
			if err != nil {
				fail(err)
			}
			if refused == nil {
				opened++
			}
		}
		fmt.Printf("opened %d/%d real-time channels (Imin=%d slots, D=%d slots, Smax=%dB)\n",
			opened, *channels, *imin, *deadline, *smax)
		// The admission phase is over: publish the reservation ledger so a
		// live -listen scrape and the final telemetry report both carry it.
		sys.SealCapacity()
		if *beRate > 0 {
			fmt.Printf("best-effort background: %.2f bytes/cycle/node, %dB payloads, uniform destinations\n",
				*beRate, *beSize)
		}
		sys.Run(*cycles)
	}
	defer sys.Close()

	// Flush open stall episodes before anything reads the merged
	// timeline, so -trace-out, -explain and -flight all see them.
	if o.fns != nil {
		o.fns.Flush()
	}
	printSummary(sys, *workers)
	printChannelReport(o.slo)
	if *links {
		printLinkTable(sys)
	}
	printForensics(o.fns, o.rec, o.col, *explain)
	printAdmitReport(sys, o.aud)
	dumpTraceTail(o.col, *traceN)
	writeTraceFile(o.col, o.slo, *traceOut)
	writeFlightFile(o.rec, o.col, o.slo, *flight)
	finishTelemetry(o.reg, sys.Now(), *metricsOut)
	return 0
}

// samplePeriod resolves -sample: an explicit period stands; otherwise,
// with telemetry on, 1% of the run that is about to happen.
func samplePeriod(reg *metrics.Registry, sample, cycles int64) int64 {
	if reg == nil || sample > 0 {
		return sample
	}
	return max(cycles/100, 1)
}

// printAdmitReport writes the sealed capacity ledger (per-link
// reservations with EDF headroom, per-node buffer and id usage) and the
// admission audit trail, as -admit-report requests.
func printAdmitReport(sys *core.System, aud *obs.AuditLog) {
	if aud == nil {
		return
	}
	snap := sys.SealCapacity()
	fmt.Printf("\ncapacity ledger: %d admitted channels", snap.Channels)
	if snap.WorstLink != "" {
		fmt.Printf("; worst link %s at %.2f utilization; min EDF headroom %d slots",
			snap.WorstLink, snap.WorstUtilization, snap.MinHeadroomSlots)
	}
	fmt.Println()
	if len(snap.Links) > 0 {
		fmt.Printf("  %-14s %8s %6s %9s %9s %7s\n",
			"link", "channels", "util", "reserved", "headroom", "margin")
		for _, lc := range snap.Links {
			fmt.Printf("  %-14s %8d %6.2f %9d %9d %7d\n",
				lc.Link, lc.Channels, lc.Utilization, lc.ReservedSlots,
				lc.HeadroomSlots, lc.WorstMarginSlots)
		}
	}
	if len(snap.Nodes) > 0 {
		fmt.Printf("  %-8s %9s %9s %7s %7s\n", "node", "buffers", "buflimit", "conns", "connlim")
		for _, nc := range snap.Nodes {
			fmt.Printf("  %-8s %9d %9d %7d %7d\n",
				nc.Node, nc.BuffersUsed, nc.BuffersLimit, nc.ConnsUsed, nc.ConnsLimit)
		}
	}
	fmt.Printf("\nadmission audit trail (%d decisions):\n", aud.Len())
	if err := aud.Dump(os.Stdout); err != nil {
		fail(err)
	}
}

// printForensics writes the slack-attribution report and the flight
// recorder's trigger digest, as -explain requests.
func printForensics(fns *obs.Forensics, rec *obs.Recorder, col *obs.Sharded, explain bool) {
	if fns == nil || !explain {
		return
	}
	var events []obs.Event
	if col != nil {
		events = col.Merged()
	}
	fmt.Println("\nforensics (slack attribution):")
	fns.Report(os.Stdout, events)
	if rec != nil {
		fmt.Println()
		rec.Summary(os.Stdout)
	}
}

// writeFlightFile dumps the flight-recorder window — the merged events
// of the last recorder-window cycles up to the final trigger — to the
// path; .jsonl selects JSON lines (trigger records first), anything
// else Chrome trace-event JSON for Perfetto.
func writeFlightFile(rec *obs.Recorder, col *obs.Sharded, slo *obs.SLO, path string) {
	if rec == nil || col == nil || path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	var fired bool
	if strings.HasSuffix(path, ".jsonl") {
		fired, err = rec.DumpJSONL(f, col)
	} else {
		fired, err = rec.DumpChrome(f, col, slo)
	}
	if err != nil {
		fail(err)
	}
	if !fired {
		fmt.Printf("flight recorder: no triggers fired; %s left empty\n", path)
		return
	}
	last, _ := rec.Last()
	fmt.Printf("flight recorder dump written to %s (%d cycles ending at %d; %d triggers)\n",
		path, rec.Window(), last.Cycle, rec.Count())
}

// printChannelReport writes the per-channel SLO table (latency and
// slack quantiles, miss and early counters) for every opened channel.
func printChannelReport(slo *obs.SLO) {
	if slo == nil || len(slo.Channels()) == 0 {
		return
	}
	fmt.Println("\nper-channel SLO (latency in cycles, slack in slots):")
	slo.Report(os.Stdout)
}

// dumpTraceTail prints the last n merged events, as -trace requests.
func dumpTraceTail(col *obs.Sharded, n int) {
	if col == nil || n <= 0 {
		return
	}
	retained := col.Total() - col.Dropped()
	fmt.Printf("\nlast %d of %d network events:\n", min(int64(n), retained), col.Total())
	col.DumpTail(os.Stdout, n)
}

// writeTraceFile exports the merged timeline; the extension picks the
// format (see obs.WriteTraceFile).
func writeTraceFile(col *obs.Sharded, slo *obs.SLO, path string) {
	if col == nil || path == "" {
		return
	}
	if err := obs.WriteTraceFile(path, col, slo); err != nil {
		fail(err)
	}
	fmt.Printf("trace written to %s (%d events recorded, %d evicted)\n", path, col.Total(), col.Dropped())
}

// openTelemetry builds the metrics registry when any telemetry output
// is requested and starts the live HTTP endpoint.
func openTelemetry(metricsOut, listen string) *metrics.Registry {
	if metricsOut == "" && listen == "" {
		return nil
	}
	reg := metrics.NewRegistry()
	if listen != "" {
		// Telemetry at the root, the standard pprof handlers alongside it:
		// profiling parity with rtbench without a second listener.
		mux := http.NewServeMux()
		mux.Handle("/", reg)
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		go func() {
			if err := http.ListenAndServe(listen, mux); err != nil {
				fmt.Fprintln(os.Stderr, "rtsim: telemetry listener:", err)
			}
		}()
		fmt.Printf("telemetry: live at http://%s/ (Prometheus text; ?format=json for JSON; pprof at /debug/pprof/)\n", listen)
	}
	return reg
}

// finishTelemetry stamps the final cycle count and writes the report.
func finishTelemetry(reg *metrics.Registry, now int64, metricsOut string) {
	if reg == nil {
		return
	}
	reg.Cycles.Store(now)
	if metricsOut == "" {
		return
	}
	if err := reg.WriteFile(metricsOut); err != nil {
		fail(err)
	}
	if metricsOut != "-" {
		fmt.Printf("telemetry report written to %s\n", metricsOut)
	}
}

// runScenario plays a declarative workload file (see scenarios/ and the
// scenario package) and prints what it opened and played.
func runScenario(path string, o observers, sample int64, workers int) *core.System {
	sc, err := scenario.Load(path)
	if err != nil {
		fail(err)
	}
	res, sys, err := sc.RunWith(scenario.RunOpts{
		Metrics: o.reg, SampleEvery: samplePeriod(o.reg, sample, sc.Cycles), Workers: workers,
		Collector: o.col, ChannelSLO: o.slo, Forensics: o.fns, Recorder: o.rec, Audit: o.aud,
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("scenario %s: %dx%d mesh, %d channels opened", path, sc.Mesh.W, sc.Mesh.H, res.Opened)
	if len(res.Rejected) > 0 {
		fmt.Printf(" (%d rejected)", len(res.Rejected))
	}
	fmt.Println()
	for _, r := range res.Rejected {
		fmt.Println("  rejected:", r)
	}
	if res.Failures > 0 {
		fmt.Printf("fault episodes played: %d (repairs: %d); channels rerouted: %d\n",
			res.Failures, res.Repairs, res.Rerouted)
	}
	if res.Faults.CorruptedPhits > 0 || res.Faults.LostPhits > 0 {
		fmt.Printf("wire faults injected: %d corrupted, %d lost phits\n",
			res.Faults.CorruptedPhits, res.Faults.LostPhits)
	}
	return sys
}

func parseMesh(s string) (int, int, error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("rtsim: mesh must be WxH, got %q", s)
	}
	var w, h int
	if _, err := fmt.Sscanf(parts[0], "%d", &w); err != nil {
		return 0, 0, fmt.Errorf("rtsim: bad mesh width %q", parts[0])
	}
	if _, err := fmt.Sscanf(parts[1], "%d", &h); err != nil {
		return 0, 0, fmt.Errorf("rtsim: bad mesh height %q", parts[1])
	}
	return w, h, nil
}

// printLinkTable reports per-link traffic: the PP-MESS-SIM style
// breakdown of where the bytes went.
func printLinkTable(sys *core.System) {
	cycles := sys.Now()
	fmt.Println("\nper-link traffic (bytes and utilization):")
	fmt.Printf("  %-8s %-6s %12s %12s %8s\n", "router", "port", "TC bytes", "BE bytes", "util%")
	for _, c := range sys.Net.Coords() {
		st := sys.Router(c).Stats
		for p := 0; p < router.NumLinks; p++ {
			tc := st.TCTransmitted[p] * packet.TCBytes
			be := st.BEBytes[p]
			if tc == 0 && be == 0 {
				continue
			}
			util := float64(tc+be) / float64(cycles) * 100
			fmt.Printf("  %-8s %-6s %12d %12d %7.1f%%\n", c, router.PortName(p), tc, be, util)
		}
	}
}

func printSummary(sys *core.System, workers int) {
	sum, cycles := sys.Summarize(), sys.Now()
	fmt.Printf("\nsimulated %d cycles (%d slots) on %d kernel worker(s)\n",
		cycles, cycles/packet.TCBytes, sim.ResolveWorkers(workers))
	fmt.Printf("time-constrained: %d delivered, %d deadline misses, %d drops\n",
		sum.TCDelivered, sum.TCMisses, sum.TCDrops)
	if sum.TCLatency.N() > 0 {
		fmt.Printf("  latency cycles: mean=%.0f p50=%.0f p99=%.0f max=%.0f (n=%d)\n",
			sum.TCLatency.Mean(), sum.TCLatency.Quantile(0.5),
			sum.TCLatency.Quantile(0.99), sum.TCLatency.Max(), sum.TCLatency.N())
	}
	fmt.Printf("best-effort: %d delivered\n", sum.BEDelivered)
	if sum.BELatency.N() > 0 {
		fmt.Printf("  latency cycles: mean=%.0f p50=%.0f p99=%.0f max=%.0f (n=%d)\n",
			sum.BELatency.Mean(), sum.BELatency.Quantile(0.5),
			sum.BELatency.Quantile(0.99), sum.BELatency.Max(), sum.BELatency.N())
	}
	fmt.Printf("peak scheduler occupancy: %d packets; cut-throughs: %d; memory-bus load: %.2f chunks/cycle/router\n",
		sum.SchedulerPeak, sum.CutThroughs, sum.BusUtilization)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rtsim:", err)
	os.Exit(1)
}
