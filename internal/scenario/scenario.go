// Package scenario loads declarative workload descriptions for the
// rtsim tool: a JSON file names the mesh, the real-time channels with
// their traffic contracts and generation patterns, the best-effort
// background flows, and optional link failures on a timeline — the
// configuration-file front end a network-simulator release needs.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/traffic"
)

// Scenario is the top-level document.
type Scenario struct {
	// Mesh dimensions.
	Mesh struct {
		W, H int
	} `json:"mesh"`
	// Cycles to simulate.
	Cycles int64 `json:"cycles"`
	// Seed for best-effort randomness.
	Seed int64 `json:"seed"`

	// Router tweaks (zero values keep the paper defaults).
	Router struct {
		Scheduler   string `json:"scheduler"` // edf|fifo|static|approx
		ApproxShift uint   `json:"approxShift"`
		VCT         bool   `json:"vct"`
	} `json:"router"`

	// Admission configuration.
	Admission struct {
		Policy       string `json:"policy"` // partitioned|shared
		SourceWindow int64  `json:"sourceWindow"`
		Horizon      uint32 `json:"horizon"`
	} `json:"admission"`

	Channels   []Channel  `json:"channels"`
	BestEffort []BEFlow   `json:"bestEffort"`
	Failures   []LinkFail `json:"failures"`
}

// Channel describes one real-time channel and its generator.
type Channel struct {
	Src     [2]int   `json:"src"`
	Dsts    [][2]int `json:"dsts"`
	Imin    int64    `json:"imin"`
	Smax    int      `json:"smax"`
	Bmax    int      `json:"bmax"`
	D       int64    `json:"d"`
	Pattern string   `json:"pattern"` // periodic|bursty|backlogged
	Size    int      `json:"size"`    // message payload bytes (default Smax)
}

// BEFlow describes one best-effort source.
type BEFlow struct {
	Src     [2]int  `json:"src"`
	Dst     *[2]int `json:"dst"` // nil = uniform random destinations
	Rate    float64 `json:"rate"`
	SizeMin int     `json:"sizeMin"`
	SizeMax int     `json:"sizeMax"`
}

// LinkFail schedules a link fault episode on a timeline. Kind selects
// the episode:
//
//   - "fail" (or empty): the link is severed at At, permanently unless
//     RepairAt restores it. Channels crossing it are rerouted after the
//     failure and failed back after the repair.
//   - "flap": sugar for a fail that must carry a RepairAt.
//   - "corrupt", "lose": a transient fault process (rate, optional
//     burstiness) garbles or erases phits on the link from At until
//     RepairAt (or the end of the run). Requires link-level integrity,
//     which the runner enables automatically.
type LinkFail struct {
	At   int64  `json:"at"`
	From [2]int `json:"from"`
	Port string `json:"port"` // +x|-x|+y|-y
	Kind string `json:"kind"` // fail|flap|corrupt|lose ("" = fail)
	// RepairAt, when positive, ends the episode: the link is repaired
	// (fail/flap) or the fault process is disarmed (corrupt/lose).
	RepairAt int64 `json:"repair_at"`
	// Rate is the steady-state per-phit fault probability for
	// corrupt/lose, in (0,1).
	Rate float64 `json:"rate"`
	// Burst is the mean fault-burst length in phits; ≤ 1 means
	// independent per-phit faults.
	Burst float64 `json:"burst"`
}

// outage reports whether the episode severs the link (as opposed to
// arming a transient fault process on it).
func (f LinkFail) outage() bool { return f.Kind == "" || f.Kind == "fail" || f.Kind == "flap" }

// Load reads and validates a scenario file.
func Load(path string) (*Scenario, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Parse(raw)
}

// Parse decodes and validates scenario JSON.
func Parse(raw []byte) (*Scenario, error) {
	var sc Scenario
	if err := json.Unmarshal(raw, &sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

func (sc *Scenario) validate() error {
	if sc.Mesh.W < 1 || sc.Mesh.H < 1 {
		return fmt.Errorf("scenario: mesh %dx%d invalid", sc.Mesh.W, sc.Mesh.H)
	}
	if sc.Cycles < 1 {
		return fmt.Errorf("scenario: cycles %d invalid", sc.Cycles)
	}
	switch sc.Router.Scheduler {
	case "", "edf", "fifo", "static", "approx":
	default:
		return fmt.Errorf("scenario: unknown scheduler %q", sc.Router.Scheduler)
	}
	switch sc.Admission.Policy {
	case "", "partitioned", "shared":
	default:
		return fmt.Errorf("scenario: unknown buffer policy %q", sc.Admission.Policy)
	}
	for i, ch := range sc.Channels {
		if len(ch.Dsts) == 0 {
			return fmt.Errorf("scenario: channel %d has no destinations", i)
		}
		switch ch.Pattern {
		case "", "periodic", "bursty", "backlogged":
		default:
			return fmt.Errorf("scenario: channel %d: unknown pattern %q", i, ch.Pattern)
		}
	}
	// Overlap detection: two outage episodes (or two fault processes) on
	// the same undirected link must not be active at once.
	type interval struct {
		idx      int
		from, to int64
	}
	spans := map[string][]interval{}
	for i, f := range sc.Failures {
		port, err := parsePort(f.Port)
		if err != nil {
			return fmt.Errorf("scenario: failure %d: %w", i, err)
		}
		if f.At < 0 || f.At >= sc.Cycles {
			return fmt.Errorf("scenario: failure %d at cycle %d outside the run", i, f.At)
		}
		from := coord(f.From)
		to := from.Add(port)
		if from.X < 0 || from.X >= sc.Mesh.W || from.Y < 0 || from.Y >= sc.Mesh.H {
			return fmt.Errorf("scenario: failure %d: node %s outside the %dx%d mesh", i, from, sc.Mesh.W, sc.Mesh.H)
		}
		if to.X < 0 || to.X >= sc.Mesh.W || to.Y < 0 || to.Y >= sc.Mesh.H {
			return fmt.Errorf("scenario: failure %d: link %s %s leaves the mesh", i, from, f.Port)
		}
		switch f.Kind {
		case "", "fail", "flap", "corrupt", "lose":
		default:
			return fmt.Errorf("scenario: failure %d: unknown kind %q", i, f.Kind)
		}
		if f.RepairAt != 0 && (f.RepairAt <= f.At || f.RepairAt > sc.Cycles) {
			return fmt.Errorf("scenario: failure %d: repair_at %d outside (at, cycles]", i, f.RepairAt)
		}
		if f.Kind == "flap" && f.RepairAt == 0 {
			return fmt.Errorf("scenario: failure %d: flap requires repair_at", i)
		}
		if f.outage() {
			if f.Rate != 0 || f.Burst != 0 {
				return fmt.Errorf("scenario: failure %d: rate/burst only apply to corrupt or lose", i)
			}
		} else if f.Rate <= 0 || f.Rate >= 1 {
			return fmt.Errorf("scenario: failure %d: %s rate %v outside (0,1)", i, f.Kind, f.Rate)
		}
		// Canonical undirected link name, keyed per episode category.
		lf, lp := from, port
		if port == router.PortXMinus || port == router.PortYMinus {
			lf, lp = to, map[int]int{router.PortXMinus: router.PortXPlus, router.PortYMinus: router.PortYPlus}[port]
		}
		key := fmt.Sprintf("%s#%d#%v", lf, lp, f.outage())
		end := f.RepairAt
		if end == 0 {
			end = sc.Cycles
		}
		for _, iv := range spans[key] {
			if f.At < iv.to && iv.from < end {
				return fmt.Errorf("scenario: failures %d and %d overlap on link %s %s", iv.idx, i, lf, f.Port)
			}
		}
		spans[key] = append(spans[key], interval{i, f.At, end})
	}
	return nil
}

func parsePort(s string) (int, error) {
	switch s {
	case "+x":
		return router.PortXPlus, nil
	case "-x":
		return router.PortXMinus, nil
	case "+y":
		return router.PortYPlus, nil
	case "-y":
		return router.PortYMinus, nil
	default:
		return 0, fmt.Errorf("unknown port %q", s)
	}
}

func coord(a [2]int) mesh.Coord { return mesh.Coord{X: a[0], Y: a[1]} }

// Result summarizes a scenario run.
type Result struct {
	Opened   int
	Rejected []string
	Rerouted int
	Summary  core.Summary
	Cycles   int64
	Failures int
	// Repairs counts episode endings played: link repairs and fault
	// processes disarmed.
	Repairs int
	// Faults reports what the fault injector did on the wire.
	Faults fault.Stats
}

// RunOpts carries harness-level knobs that are not part of the
// scenario document itself.
type RunOpts struct {
	// Metrics, when non-nil, attaches the telemetry registry to every
	// router in the built system.
	Metrics *metrics.Registry
	// SampleEvery, when positive, registers a periodic sampler
	// snapshotting the registry into System.Sampler.TS.
	SampleEvery int64
	// Collector, when non-nil, attaches the sharded lifecycle collector
	// to every router (parallel-safe tracing).
	Collector *obs.Sharded
	// ChannelSLO, when non-nil, attaches per-channel SLO accounting to
	// every channel the scenario opens.
	ChannelSLO *obs.SLO
	// Forensics, when non-nil, attaches the slack-attribution engine to
	// every router (blame matrix, cause totals).
	Forensics *obs.Forensics
	// Recorder, when non-nil, attaches the flight recorder (trigger
	// logs with occupancy snapshots, post-run window dumps).
	Recorder *obs.Recorder
	// Audit, when non-nil, receives one record per admission-plane
	// decision the scenario drives (channel opens, failure-driven
	// reroutes, failbacks).
	Audit *obs.AuditLog
	// Workers selects the kernel execution mode: 0 or 1 sequential,
	// n > 1 parallel over per-node shards (bit-identical results),
	// negative GOMAXPROCS. Parallel runs should Close the returned
	// System when done with it.
	Workers int
	// LinkLatency > 1 deepens the mesh links to that many cycles: the
	// run then simulates a machine with n-cycle links, identically at
	// every worker count, and the parallel kernel — which derives its
	// epoch from the wiring — rendezvous once per n cycles.
	LinkLatency int
}

// Run builds the system, opens every channel, attaches the generators,
// plays the failure timeline (rerouting affected channels), and returns
// the summary.
func (sc *Scenario) Run() (*Result, *core.System, error) {
	return sc.RunWith(RunOpts{})
}

// RunWith is Run with harness options (telemetry attachment). The
// scenario is re-validated first, so hand-built documents get the same
// checks as parsed ones.
func (sc *Scenario) RunWith(opts RunOpts) (*Result, *core.System, error) {
	if err := sc.validate(); err != nil {
		return nil, nil, err
	}
	rcfg := router.DefaultConfig()
	rcfg.VCT = sc.Router.VCT
	if opts.LinkLatency > 1 {
		rcfg.LinkLatency = opts.LinkLatency
	}
	for _, f := range sc.Failures {
		if !f.outage() {
			// Transient wire faults need link-level detection to matter.
			rcfg.Integrity = true
		}
	}
	switch sc.Router.Scheduler {
	case "fifo":
		rcfg.Scheduler = router.SchedFIFO
	case "static":
		rcfg.Scheduler = router.SchedStaticPriority
	case "approx":
		rcfg.Scheduler = router.SchedApproxEDF
		rcfg.ApproxShift = sc.Router.ApproxShift
	}
	acfg := admission.DefaultConfig()
	if sc.Admission.Policy == "shared" {
		acfg.Policy = admission.SharedPool
	}
	if sc.Admission.SourceWindow > 0 {
		acfg.SourceWindow = sc.Admission.SourceWindow
	}
	acfg.Horizon = sc.Admission.Horizon

	fx := core.Fixture{
		W: sc.Mesh.W, H: sc.Mesh.H, Seed: sc.Seed,
		Options: core.Options{
			Router:             rcfg,
			Metrics:            opts.Metrics,
			MetricsSampleEvery: opts.SampleEvery,
			Collector:          opts.Collector,
			ChannelSLO:         opts.ChannelSLO,
			Forensics:          opts.Forensics,
			Recorder:           opts.Recorder,
			Audit:              opts.Audit,
			Workers:            opts.Workers,
		}.WithAdmission(acfg),
	}
	for _, def := range sc.Channels {
		req := core.ChannelReq{
			Src:  coord(def.Src),
			Spec: rtc.Spec{Imin: def.Imin, Smax: def.Smax, Bmax: def.Bmax, D: def.D},
			Size: def.Size,
		}
		for _, d := range def.Dsts {
			req.Dsts = append(req.Dsts, coord(d))
		}
		switch def.Pattern {
		case "bursty":
			req.Pattern = traffic.Bursty
		case "backlogged":
			req.Pattern = traffic.Backlogged
		}
		fx.Channels = append(fx.Channels, req)
	}
	for _, f := range sc.BestEffort {
		be := core.BESource{Src: coord(f.Src), Rate: f.Rate, SizeMin: f.SizeMin, SizeMax: f.SizeMax}
		if f.Dst != nil {
			dst := coord(*f.Dst)
			be.Dst = &dst
		}
		fx.BestEffort = append(fx.BestEffort, be)
	}
	sys, err := fx.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: %w", err)
	}
	res := &Result{Cycles: sc.Cycles}
	var opened []*core.Channel
	for i, ch := range sys.Channels {
		if ch == nil {
			res.Rejected = append(res.Rejected, fmt.Sprintf("channel %d: %v", i, sys.Refusals[i]))
			continue
		}
		opened = append(opened, ch)
	}
	res.Opened = len(opened)
	// The admission phase is over: publish the reservation ledger so a
	// live scrape during the run sees the admitted state.
	sys.SealCapacity()

	// The failure timeline: every episode contributes an onset event and,
	// with RepairAt set, an ending event. Deterministic order: by cycle,
	// then document order, endings before onsets at the same cycle (so a
	// flap interval ending at t frees the link for one starting at t).
	type event struct {
		at     int64
		repair bool
		idx    int
	}
	var events []event
	for i, f := range sc.Failures {
		events = append(events, event{f.At, false, i})
		if f.RepairAt > 0 {
			events = append(events, event{f.RepairAt, true, i})
		}
	}
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.repair != b.repair {
			return a.repair
		}
		return a.idx < b.idx
	})
	var inj *fault.Injector
	// reroutedAt remembers which channels each outage displaced, so its
	// repair fails exactly those back.
	reroutedAt := make(map[int][]*core.Channel)
	at := int64(0)
	for _, ev := range events {
		sys.Run(ev.at - at)
		at = ev.at
		f := sc.Failures[ev.idx]
		port, err := parsePort(f.Port)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: failure at %d: %w", f.At, err)
		}
		from := coord(f.From)
		switch {
		case !f.outage() && !ev.repair:
			if inj == nil {
				inj = fault.New(sc.Seed)
			}
			kind := fault.Corrupt
			if f.Kind == "lose" {
				kind = fault.Lose
			}
			cfg := fault.Config{Kind: kind, Rate: f.Rate, Burst: f.Burst}
			if err := inj.InjectLink(sys.Net, from, port, cfg); err != nil {
				return nil, nil, fmt.Errorf("scenario: fault at %d: %w", f.At, err)
			}
			res.Failures++
		case !f.outage():
			inj.ClearLink(from, port)
			res.Repairs++
		case !ev.repair:
			if err := sys.FailLink(from, port); err != nil {
				return nil, nil, fmt.Errorf("scenario: failure at %d: %w", f.At, err)
			}
			res.Failures++
			// A severed link is dead in both directions: reroute channels
			// crossing it either way.
			rev := map[int]int{
				router.PortXPlus:  router.PortXMinus,
				router.PortXMinus: router.PortXPlus,
				router.PortYPlus:  router.PortYMinus,
				router.PortYMinus: router.PortYPlus,
			}[port]
			to := from.Add(port)
			for _, ch := range opened {
				if ch.Admitted().Uses(from, port) || ch.Admitted().Uses(to, rev) {
					if err := ch.Reroute(); err == nil {
						res.Rerouted++
						reroutedAt[ev.idx] = append(reroutedAt[ev.idx], ch)
					}
				}
			}
		default:
			if err := sys.RepairLink(from, port); err != nil {
				return nil, nil, fmt.Errorf("scenario: repair at %d: %w", ev.at, err)
			}
			res.Repairs++
			// Fail the displaced channels back: admission prefers the
			// primary XY order, so they return to the repaired path.
			for _, ch := range reroutedAt[ev.idx] {
				if err := ch.Reroute(); err == nil {
					res.Rerouted++
				}
			}
		}
		// Each event may have moved reservations; re-seal so the live
		// ledger tracks the outage/repair state.
		sys.SealCapacity()
	}
	sys.Run(sc.Cycles - at)
	res.Summary = sys.Summarize()
	if inj != nil {
		res.Faults = inj.Stats()
	}
	return res, sys.System, nil
}
