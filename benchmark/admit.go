package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/admission"
	"repro/internal/layout"
	"repro/internal/mesh"
	"repro/internal/router"
)

// Sizes of the admission workloads. Rounds are fixed amounts of work;
// how many run is set by --seconds.
const (
	admitMesh    = 16
	fillRequests = 1500  // admit_fill: requests per round, mostly accepted
	stormFill    = 40000 // admit_storm: requests that saturate the mesh in set-up
	stormRound   = 50000 // admit_storm: further requests per round
	churnFill    = 4000  // admit_churn: set-up fill, about the churn's own equilibrium
	churnRound   = 5000  // admit_churn: steps per round; a step is 1 Teardown + churnAdmits Admits
	churnAdmits  = 3
	layoutReqs   = 768 // layout_synth: requests per round
	// Set-ups per run; setup_s is their median. The cheaper the set-up,
	// the more repetitions its median needs to hold still.
	fillSetups  = 7
	stormSetups = 3
	churnSetups = 5
	// oracleOps is how many timed-phase operations of storm and churn are
	// replayed on the Reference controller; fill rounds replay whole.
	oracleOps = 2000
	// pollOps is how many controller calls pass between two looks at
	// whether a reading of the host-speed reference is due.
	pollOps = 256
)

// verdict classifies one Admit outcome by its typed error.
type verdict uint8

const (
	accepted verdict = iota
	rejectLink
	rejectBuffer
	rejectID
	untyped // an error that is not a typed refusal: a failed operation
	numVerdicts
)

func classify(err error) verdict {
	switch err.(type) {
	case nil:
		return accepted
	case *admission.ErrLinkOverload:
		return rejectLink
	case *admission.ErrBufferExhausted:
		return rejectBuffer
	case *admission.ErrIDExhausted:
		return rejectID
	}
	return untyped
}

// admitStats accumulates what the timed controller calls did.
type admitStats struct {
	verdicts [numVerdicts]int64
	// Host µs per call, from latency rounds only: by kind as measured,
	// and all of them at reference host speed (hostspeed.go).
	acceptUS, rejectUS, teardownUS []float64
	callUS                         []float64
	// thrRate and latRate are ops per second, at reference host speed, of
	// throughput rounds (one clock pair per round) and latency rounds (one
	// per call, plus a span when traced); their ratio is the cost of
	// observing.
	thrRate, latRate []float64
	admitted         []float64 // live channels at the end of each round
	mallocs, ops     uint64    // heap allocations over the throughput rounds
	gcPauseNS        uint64
}

func (s *admitStats) admits() int64 {
	var n int64
	for _, v := range s.verdicts {
		n += v
	}
	return n
}

// controller is one mesh with its admission controller and live channels.
type controller struct {
	net  *mesh.Network
	ctl  *admission.Controller
	live []*admission.Channel
}

func newController(size int, reference bool) (*controller, error) {
	net, err := mesh.New(size, size, router.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cfg := admission.DefaultConfig()
	cfg.Reference = reference
	ctl, err := admission.New(net, cfg)
	if err != nil {
		return nil, err
	}
	return &controller{net: net, ctl: ctl}, nil
}

// admit offers one generated request and keeps the channel if granted.
func (c *controller) admit(r request) verdict {
	ch, err := c.ctl.Admit(coord(r.SX, r.SY), []mesh.Coord{coord(r.DX, r.DY)}, specOf(r))
	if err == nil {
		c.live = append(c.live, ch)
	}
	return classify(err)
}

// teardown releases the live channel at position pick mod len(live).
func (c *controller) teardown(pick uint64) error {
	i := int(pick % uint64(len(c.live)))
	ch := c.live[i]
	c.live[i] = c.live[len(c.live)-1]
	c.live = c.live[:len(c.live)-1]
	return c.ctl.Teardown(ch)
}

// op is one step of a recorded operation sequence: a request to admit, or
// (teardown set) a pick of the live channel to release.
type op struct {
	teardown bool
	pick     uint64
	req      request
}

// apply performs o and returns its verdict (accepted for a clean teardown).
func (c *controller) apply(o op) verdict {
	if !o.teardown {
		return c.admit(o.req)
	}
	if err := c.teardown(o.pick); err != nil {
		return untyped
	}
	return accepted
}

// timedApply is apply with the call's host time recorded as a latency
// sample and, in a traced run, as a span.
func (c *controller) timedApply(o op, st *admitStats, tr *tracer, round int) verdict {
	t := time.Now()
	v := c.apply(o)
	d := time.Since(t)
	us := float64(d.Nanoseconds()) / 1e3
	st.callUS = append(st.callUS, us)
	switch {
	case o.teardown:
		st.teardownUS = append(st.teardownUS, us)
		tr.add("admission.Teardown", round, t, d)
	case v == accepted:
		st.acceptUS = append(st.acceptUS, us)
		tr.add("admission.Admit accept", round, t, d)
	default:
		st.rejectUS = append(st.rejectUS, us)
		tr.add("admission.Admit reject", round, t, d)
	}
	return v
}

// runRound applies ops to c: odd rounds time every call, even rounds only
// the whole. build, when non-nil, creates the controller inside the timed
// region (a mesh per round). It returns the verdicts for the oracle.
func runRound(round int, ops []op, c *controller, build func() (*controller, error), st *admitStats, cfg config) (*controller, []verdict, error) {
	verdicts := make([]verdict, len(ops))
	latency := round%2 == 1
	name := "round throughput"
	if latency {
		name = "round latency"
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	speed, first := cfg.host.begin(), len(st.callUS)
	sp := cfg.tr.begin(name, round)
	t0 := time.Now()
	if build != nil {
		var err error
		if c, err = build(); err != nil {
			return nil, nil, err
		}
		cfg.tr.add("mesh.New + admission.New", round, t0, time.Since(t0))
	}
	for i, o := range ops {
		if latency {
			verdicts[i] = c.timedApply(o, st, cfg.tr, round)
		} else {
			verdicts[i] = c.apply(o)
		}
		if i%pollOps == pollOps-1 {
			cfg.host.poll()
		}
	}
	wall := time.Since(t0)
	cfg.tr.end(sp)
	slow, probing := cfg.host.end(speed)
	rate := float64(len(ops)) / (wall - probing).Seconds() * slow
	for i := first; i < len(st.callUS); i++ {
		st.callUS[i] /= slow
	}
	runtime.ReadMemStats(&ms1)
	st.gcPauseNS += ms1.PauseTotalNs - ms0.PauseTotalNs
	if latency {
		st.latRate = append(st.latRate, rate)
	} else {
		st.thrRate = append(st.thrRate, rate)
		st.mallocs += ms1.Mallocs - ms0.Mallocs
		st.ops += uint64(len(ops))
	}
	for i, o := range ops {
		if !o.teardown {
			st.verdicts[verdicts[i]]++
		}
	}
	st.admitted = append(st.admitted, float64(len(c.live)))
	return c, verdicts, nil
}

// admitOps is requests [from, from+n) of a stream as admit operations.
func admitOps(seed uint64, from, n, size int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i].req = genRequest(seed, from+i, size, size, defaultHotPct)
	}
	return ops
}

// churnOps is steps [from, from+n) of the churn sequence: each step tears
// down a seeded pick of the live channels, then offers churnAdmits
// requests continuing the stream after the fill requests of set-up.
func churnOps(seed uint64, fill, from, n, size int) []op {
	ops := make([]op, 0, n*(1+churnAdmits))
	for s := from; s < from+n; s++ {
		picks := newStream(seed^0x636875726e, s)
		ops = append(ops, op{teardown: true, pick: picks.next()})
		for a := 0; a < churnAdmits; a++ {
			ops = append(ops, op{req: genRequest(seed, fill+s*churnAdmits+a, size, size, defaultHotPct)})
		}
	}
	return ops
}

// replay runs ops on a Reference-mode controller (the from-scratch
// analysis, no caches or memos) and returns it with its verdicts and the
// host seconds it took.
func replay(size int, ops []op) (*controller, []verdict, float64, error) {
	ref, err := newController(size, true)
	if err != nil {
		return nil, nil, 0, err
	}
	verdicts := make([]verdict, len(ops))
	t := time.Now()
	for i, o := range ops {
		verdicts[i] = ref.apply(o)
	}
	return ref, verdicts, time.Since(t).Seconds(), nil
}

// mismatches counts positions where the controller under test and the
// oracle disagree.
func mismatches(got, want []verdict) int64 {
	var n int64
	for i := range want {
		if got[i] != want[i] {
			n++
		}
	}
	return n
}

func sealBytes(c *controller) []byte {
	b, err := json.Marshal(c.ctl.Seal())
	if err != nil {
		panic(err) // a snapshot of plain numbers and strings always marshals
	}
	return b
}

// finishAdmit turns the accumulated statistics into the outcome's samples
// and, in a traced run, the admission layer's metrics.
func finishAdmit(out *outcome, st *admitStats, cfg config, last *controller) {
	out.rate, out.lat = st.thrRate, st.callUS
	out.failed += st.verdicts[untyped]
	out.check(st.verdicts[untyped] == 0, "%d Admit errors were not typed refusals", st.verdicts[untyped])
	n := float64(st.admits())
	share := func(v verdict) float64 { return float64(st.verdicts[v]) / n }
	out.note("accept share %.4f (%d of %d Admit calls); admitted_channels %.1f mean over %d rounds",
		share(accepted), st.verdicts[accepted], st.admits(), mean(st.admitted), len(st.admitted))
	out.layer["admission.accept_share"] = share(accepted)
	if cfg.tr == nil {
		return
	}
	l := out.layer
	p := func(xs []float64, q float64) float64 { v, _ := percentile(sorted(xs), q); return v }
	l["admission.accept_us_p50"], l["admission.accept_us_p99"] = p(st.acceptUS, 50), p(st.acceptUS, 99)
	l["admission.reject_us_p50"], l["admission.reject_us_p99"] = p(st.rejectUS, 50), p(st.rejectUS, 99)
	l["admission.teardown_us_p50"] = p(st.teardownUS, 50)
	l["admission.reject_link_share"] = share(rejectLink)
	l["admission.reject_buffer_share"] = share(rejectBuffer)
	l["admission.reject_id_share"] = share(rejectID)
	l["admission.admitted_channels"] = mean(st.admitted)
	if st.ops > 0 {
		l["admission.allocs_per_op"] = float64(st.mallocs) / float64(st.ops)
	}
	l["host.gc_pause_ms"] = float64(st.gcPauseNS) / 1e6
	l["obs.trace_overhead_share"] = 1 - median(st.latRate)/median(st.thrRate)

	t := time.Now()
	snap := last.ctl.Seal()
	l["admission.seal_ms"] = time.Since(t).Seconds() * 1e3
	t = time.Now()
	err := last.ctl.VerifyLedger()
	l["admission.verify_ledger_ms"] = time.Since(t).Seconds() * 1e3
	out.check(err == nil, "VerifyLedger: %v", err)
	var util float64
	for _, lk := range snap.Links {
		util += lk.Utilization
	}
	if len(snap.Links) > 0 {
		l["admission.link_util_mean"] = util / float64(len(snap.Links))
	}
	l["admission.link_util_max"] = snap.WorstUtilization

	b := fixtureBudget(cfg)
	l["mesh.new_s_16"] = fixMeshNew(b, admitMesh)
	l["mesh.xyroute_ns"] = fixXYRoute(b)
}

// timedRounds calls round(r) for r = 0, 1, … until the time budget is
// spent, but at least twice so both round kinds run.
func timedRounds(seconds float64, round func(r int) error) error {
	start := time.Now()
	for r := 0; r < 2 || time.Since(start).Seconds() < seconds; r++ {
		if err := round(r); err != nil {
			return err
		}
	}
	return nil
}

// roundSeed is the stream of round r: seed·1000 + r. Set-up repetitions
// use the rounds just below the next seed's.
func roundSeed(seed uint64, r int) uint64 { return seed*1000 + uint64(r) }

func runAdmitFill(cfg config) (*outcome, error) {
	size, reqs := admitMesh, fillRequests
	if cfg.smoke {
		size, reqs, cfg.seconds = 4, 60, 0
	}
	out := &outcome{layer: map[string]float64{}}
	root := cfg.tr.begin("admit_fill", 0)
	defer cfg.tr.end(root)
	build := func() (*controller, error) { return newController(size, false) }
	gen := func(r int) []op { return admitOps(roundSeed(cfg.seed, r), 0, reqs, size) }

	// Set-up is one untimed round: it fills the allocator's size classes
	// and is what a user pays before the first timed decision.
	for rep := 0; rep < fillSetups; rep++ {
		speed := cfg.host.begin()
		t := time.Now()
		c, err := build()
		if err != nil {
			return nil, err
		}
		for i, o := range gen(999 - rep) {
			c.apply(o)
			if i%pollOps == pollOps-1 {
				cfg.host.poll()
			}
		}
		wall := time.Since(t)
		slow, probing := cfg.host.end(speed)
		out.setup = append(out.setup, (wall-probing).Seconds()/slow)
	}

	st := &admitStats{}
	var round0, last *controller
	var first []verdict
	err := timedRounds(cfg.seconds, func(r int) error {
		c, verdicts, err := runRound(r, gen(r), nil, build, st, cfg)
		if err != nil {
			return err
		}
		out.attempted += int64(reqs)
		if err := c.ctl.VerifyLedger(); err != nil {
			out.failed += int64(reqs)
			out.check(false, "round %d: VerifyLedger: %v", r, err)
		}
		if r == 0 {
			round0, first = c, verdicts
			out.heapMB = heapMB()
		}
		last = c
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Oracle: round 0 again on the Reference controller must give the
	// same verdict per request and the same sealed ledger, byte for byte.
	ref, want, refS, err := replay(size, gen(0))
	if err != nil {
		return nil, err
	}
	bad := mismatches(first, want)
	out.failed += bad
	out.check(bad == 0, "round 0: %d verdicts differ from the Reference controller", bad)
	out.check(bytes.Equal(sealBytes(round0), sealBytes(ref)), "round 0: sealed ledger differs from the Reference controller")

	finishAdmit(out, st, cfg, last)
	if !cfg.smoke {
		out.check(out.layer["admission.accept_share"] >= 0.5,
			"admission.accept_share %.3f < 0.5: admit_fill is no longer the accepting phase", out.layer["admission.accept_share"])
	}
	if cfg.tr != nil {
		out.layer["admission.reference_ops_per_s"] = float64(reqs) / refS
		if err := batchLayers(out, size, gen(0)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// batchLayers times AdmitBatch on one round's stream at 1 and 2 workers.
func batchLayers(out *outcome, size int, ops []op) error {
	reqs := make([]admission.Request, len(ops))
	for i, o := range ops {
		reqs[i] = admission.Request{Src: coord(o.req.SX, o.req.SY), Dsts: []mesh.Coord{coord(o.req.DX, o.req.DY)}, Spec: specOf(o.req)}
	}
	for _, workers := range []int{1, 2} {
		var rates []float64
		for rep := 0; rep < 5; rep++ {
			c, err := newController(size, false)
			if err != nil {
				return err
			}
			t := time.Now()
			res := c.ctl.AdmitBatch(reqs, workers)
			rates = append(rates, float64(len(reqs))/time.Since(t).Seconds())
			out.layer["admission.batch_replans"] = float64(res.Replans)
		}
		out.layer[fmt.Sprintf("admission.batch_ops_per_s_w%d", workers)] = median(rates)
	}
	return nil
}

// runSaturated is admit_storm and admit_churn: controllers filled in
// set-up, then rounds of roundOps against them.
//
// Set-up runs setups times, each from its own stream (seed·1000 + k),
// and every controller it builds is kept: rounds rotate over them, so a
// run averages over several fills where one fill's luck (which links it
// happened to saturate) would otherwise be most of the seed-to-seed
// spread. With restore set, the channels a round admitted are torn down
// after it (untimed), so a controller's every round starts from the
// ledger its fill left: a saturating mesh has no steady state of its own —
// each accept changes what the next request meets, rounds would get
// cheaper as they went, and the median would depend on how many fit in
// --seconds.
func runSaturated(name string, cfg config, fill, setups int, restore bool, roundOps func(stream uint64, round, size int) []op, maxAccept float64) (*outcome, error) {
	size := admitMesh
	if cfg.smoke {
		size, fill, cfg.seconds = 4, 200, 0
	}
	out := &outcome{layer: map[string]float64{}}
	root := cfg.tr.begin(name, 0)
	defer cfg.tr.end(root)
	cfg.host.cold = true

	type filled struct {
		*controller
		stream uint64
		fill   []op
		live   int // channels the fill admitted
		rounds int // rounds run against this controller so far
	}
	var ctls []*filled
	for k := 0; k < setups; k++ {
		f := &filled{stream: roundSeed(cfg.seed, k)}
		f.fill = admitOps(f.stream, 0, fill, size)
		speed := cfg.host.begin()
		sp := cfg.tr.begin("setup", k)
		t := time.Now()
		var err error
		if f.controller, err = newController(size, false); err != nil {
			return nil, err
		}
		for i, o := range f.fill {
			f.apply(o)
			if i%pollOps == pollOps-1 {
				cfg.host.poll()
			}
		}
		wall := time.Since(t)
		cfg.tr.end(sp)
		slow, probing := cfg.host.end(speed)
		out.setup = append(out.setup, (wall-probing).Seconds()/slow)
		f.live = len(f.controller.live)
		ctls = append(ctls, f)
	}

	st := &admitStats{}
	var ops0 []op
	var first []verdict
	err := timedRounds(cfg.seconds, func(r int) error {
		// Both round kinds visit every controller: r/2 advances once per
		// throughput/latency pair.
		f := ctls[r/2%len(ctls)]
		ops := roundOps(f.stream, f.rounds, size)
		f.rounds++
		_, verdicts, err := runRound(r, ops, f.controller, nil, st, cfg)
		if err != nil {
			return err
		}
		out.attempted += int64(len(ops))
		if r == 0 {
			out.heapMB = heapMB()
			n := min(oracleOps, len(ops))
			ops0, first = ops[:n], verdicts[:n]
		}
		if restore {
			for len(f.controller.live) > f.live {
				if err := f.teardown(uint64(len(f.controller.live) - 1)); err != nil {
					return err
				}
			}
		}
		if err := f.ctl.VerifyLedger(); err != nil {
			out.failed += int64(len(ops))
			out.check(false, "round %d: VerifyLedger: %v", r, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Oracle: the first controller's fill and its first operations,
	// replayed on the Reference controller, must give the same verdicts.
	_, want, _, err := replay(size, append(ctls[0].fill, ops0...))
	if err != nil {
		return nil, err
	}
	bad := mismatches(first, want[fill:])
	out.failed += bad
	out.check(bad == 0, "%d of the first %d verdicts differ from the Reference controller", bad, len(first))

	out.note("%s: %d of %d fill requests admitted in the first of %d set-ups", name, ctls[0].live, fill, setups)
	finishAdmit(out, st, cfg, ctls[0].controller)
	if !cfg.smoke {
		out.check(out.layer["admission.accept_share"] <= maxAccept,
			"admission.accept_share %.4f > %g: %s is no longer saturated", out.layer["admission.accept_share"], maxAccept, name)
	}
	return out, nil
}

func runAdmitStorm(cfg config) (*outcome, error) {
	n := stormRound
	if cfg.smoke {
		n = 500
	}
	return runSaturated("admit_storm", cfg, stormFill, stormSetups, true, func(stream uint64, round, size int) []op {
		return admitOps(stream, stormFill+round*n, n, size)
	}, 0.02)
}

func runAdmitChurn(cfg config) (*outcome, error) {
	n := churnRound
	if cfg.smoke {
		n = 100
	}
	// Every teardown frees capacity, so a share of the admits succeed;
	// the bound only catches a mesh that never saturated. The churn keeps
	// its own equilibrium, which the fill is sized to start near.
	return runSaturated("admit_churn", cfg, churnFill, churnSetups, false, func(stream uint64, round, size int) []op {
		return churnOps(stream, churnFill, round*n, n, size)
	}, 0.5)
}

func runLayoutSynth(cfg config) (*outcome, error) {
	size, reqs := admitMesh, layoutReqs
	if cfg.smoke {
		size, reqs, cfg.seconds = 4, 40, 0
	}
	out := &outcome{layer: map[string]float64{}}
	root := cfg.tr.begin("layout_synth", 0)
	defer cfg.tr.end(root)
	gen := func(r int) []layout.Request {
		lr := make([]layout.Request, reqs)
		for i := range lr {
			q := genRequest(roundSeed(cfg.seed, r), i, size, size, layoutHotPct)
			lr[i] = layout.Request{Src: coord(q.SX, q.SY), Dst: coord(q.DX, q.DY), Spec: specOf(q)}
		}
		return lr
	}
	for rep := 0; rep < fillSetups; rep++ {
		speed := cfg.host.begin()
		t := time.Now()
		c, err := newController(size, false)
		if err != nil {
			return nil, err
		}
		layout.Synthesize(c.net, c.ctl, gen(999-rep), layout.Options{})
		wall := time.Since(t).Seconds()
		slow, _ := cfg.host.end(speed)
		out.setup = append(out.setup, wall/slow)
	}

	var admitted, greedyCount []float64
	var stats layout.Stats
	var gcPause uint64
	var last *controller
	err := timedRounds(cfg.seconds, func(r int) error {
		lr := gen(r)
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		speed, first := cfg.host.begin(), len(out.lat)
		sp := cfg.tr.begin("round", r)
		t0 := time.Now()
		c, err := newController(size, false)
		if err != nil {
			return err
		}
		cfg.tr.add("mesh.New + admission.New", r, t0, time.Since(t0))
		var placed int
		tally := func(res *layout.Result) {
			placed += len(res.Admitted)
			stats.Probes += res.Stats.Probes
			stats.Repairs += res.Stats.Repairs
			stats.Rerouted += res.Stats.Rerouted
			stats.Nonuniform += res.Stats.Nonuniform
			for _, rej := range res.Rejected {
				if _, typed := admission.Explain(rej.Err); !typed {
					out.failed++
				}
			}
		}
		// One Synthesize call per request, each timed: at tens of µs a
		// call the clock reads are noise, so every round yields both a
		// throughput sample and latency samples. The search keeps no state
		// between requests, so the layouts are those of a single call.
		for i := range lr {
			t := time.Now()
			res := layout.Synthesize(c.net, c.ctl, lr[i:i+1], layout.Options{})
			d := time.Since(t)
			cfg.tr.add("layout.Synthesize", r, t, d)
			out.lat = append(out.lat, float64(d.Nanoseconds())/1e3)
			tally(res)
			cfg.host.poll()
		}
		wall := time.Since(t0)
		cfg.tr.end(sp)
		slow, probing := cfg.host.end(speed)
		out.rate = append(out.rate, float64(reqs)/(wall-probing).Seconds()*slow)
		for i := first; i < len(out.lat); i++ {
			out.lat[i] /= slow
		}
		runtime.ReadMemStats(&ms1)
		gcPause += ms1.PauseTotalNs - ms0.PauseTotalNs
		out.attempted += int64(reqs)

		// Greedy baseline: the same requests through plain Admit.
		g, err := newController(size, false)
		if err != nil {
			return err
		}
		for _, q := range lr {
			if ch, err := g.ctl.Admit(q.Src, []mesh.Coord{q.Dst}, q.Spec); err == nil {
				g.live = append(g.live, ch)
			}
		}
		out.check(placed >= len(g.live), "round %d: synthesized %d channels, greedy %d", r, placed, len(g.live))
		if err := c.ctl.VerifyLedger(); err != nil {
			out.failed += int64(reqs)
			out.check(false, "round %d: VerifyLedger: %v", r, err)
		}
		admitted, greedyCount = append(admitted, float64(placed)), append(greedyCount, float64(len(g.live)))
		if r == 0 {
			out.heapMB = heapMB()
		}
		last = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.check(out.failed == 0, "%d requests were refused with an untyped error", out.failed)
	rounds := len(admitted)
	out.note("layout_synth: admitted_channels %.1f synthesized, %.1f greedy, mean over %d rounds", mean(admitted), mean(greedyCount), rounds)
	if cfg.tr == nil {
		return out, nil
	}

	l, total := out.layer, float64(rounds*reqs)
	l["layout.ms_per_request"] = 1e3 / median(out.rate)
	l["layout.probes_per_request"] = float64(stats.Probes) / total
	l["layout.repairs_per_request"] = float64(stats.Repairs) / total
	l["layout.gain_over_greedy"] = mean(admitted) - mean(greedyCount)
	l["layout.rerouted"] = float64(stats.Rerouted) / float64(rounds)
	l["layout.nonuniform"] = float64(stats.Nonuniform) / float64(rounds)
	l["admission.admitted_channels"] = mean(admitted)
	l["admission.accept_share"] = mean(admitted) / float64(reqs)
	l["host.gc_pause_ms"] = float64(gcPause) / 1e6

	// The search's unit of work: one read-only probe of the default
	// planner's own layout, against the last round's filled controller.
	var probeUS []float64
	for _, q := range gen(rounds - 1) {
		route := mesh.XYRoute(q.Src, q.Dst)
		ds := make([]int64, len(route))
		for j := range ds {
			ds[j] = q.Spec.D / int64(len(route))
		}
		ps := admission.PlanSpec{Src: q.Src, Dst: q.Dst, Spec: q.Spec, Route: route, DSplit: ds}
		t := time.Now()
		_, _ = last.ctl.PlanLayout(ps) // a refusal is as good a sample as a grant
		probeUS = append(probeUS, float64(time.Since(t).Nanoseconds())/1e3)
	}
	l["admission.plan_layout_us_p50"] = median(probeUS)
	return out, nil
}
