package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// meshParams sizes one dataplane workload.
type meshParams struct {
	name     string
	w, h     int
	requests int // generated channel requests offered to OpenChannel, at most
	// load, when set, ends the offering early: once the admitted channels'
	// reserved link time (Σ hops·C/Imin, in links) reaches it. A count of
	// forty random channels varies by a quarter in how much of the mesh
	// it keeps busy; a load does not.
	load   float64
	beRate float64 // best-effort bytes per cycle per node; 0 = none
	warmup int64   // cycles run before ResetStats
	// window is the number of timed cycles whose simulated statistics,
	// failures and digest are reported. It is a cycle count, not a time,
	// so those numbers repeat exactly for a seed on any host; timing
	// continues past it until --seconds is up.
	window int64
	// chunk is the cycles per timed Run call (one latency sample each),
	// segChunks the chunks per throughput segment.
	chunk     int64
	segChunks int
	// idleMin and idleMax bound router.idle_tick_share: outside them the
	// workload has drifted out of the regime it exists to measure.
	idleMin, idleMax float64
	// parallelLeg adds an untimed leg: an identically built system on two
	// kernel workers, run to the end of the window, must reach the state
	// the measured one-worker system did, bit for bit.
	parallelLeg bool
	// faultyScenario makes the traced run also time scenarios/faulty.json.
	faultyScenario bool
}

var (
	meshLoaded = meshParams{name: "mesh_loaded", w: 16, h: 16, requests: 3000, beRate: 0.3,
		warmup: 5000, window: 16384, chunk: 16, segChunks: 64, idleMax: 0.01, parallelLeg: true}
	meshSparse = meshParams{name: "mesh_sparse", w: 32, h: 32, requests: 200, load: 40,
		warmup: 2000, window: 8192, chunk: 8, segChunks: 128, idleMin: 0.6, idleMax: 1, faultyScenario: true}
)

// setupReps is how many times a mesh workload sets up; setup_s is the
// median.
const setupReps = 3

// warmupChunk is the cycles the warm-up runs between two looks at whether
// a reading of the host-speed reference is due.
const warmupChunk = 64

// genSampleEvery is the stride at which a traced run times generator
// ticks: a clock read costs about what a tick does, so timing every tick
// would measure the clock.
const genSampleEvery = 16

// timedGen wraps a traffic generator for the traced run, timing a sample
// of its ticks. It forwards the Skipper methods so whole-system skipping
// behaves as in the untraced run. Each instance ticks on one worker at a
// time, so the counters need no synchronisation.
type timedGen struct {
	inner          sim.Skipper
	ticks, sampled int64
	ns             int64
}

func (g *timedGen) Name() string { return g.inner.Name() }

func (g *timedGen) Tick(now sim.Cycle) {
	g.ticks++
	if g.ticks%genSampleEvery != 0 {
		g.inner.Tick(now)
		return
	}
	t := time.Now()
	g.inner.Tick(now)
	g.ns += time.Since(t).Nanoseconds()
	g.sampled++
}

func (g *timedGen) NextWork(now sim.Cycle) sim.Cycle { return g.inner.NextWork(now) }
func (g *timedGen) Skip(now, target sim.Cycle)       { g.inner.Skip(now, target) }

// meshSys is one built, filled and warmed system.
type meshSys struct {
	sys      *core.System
	tc       []*traffic.TCApp
	tcPkts   []int64 // packets per message, parallel to tc
	be       []*traffic.BEApp
	tcGens   []*timedGen // traced run only
	beGens   []*timedGen
	offered  int // requests put to OpenChannel
	admitted int
	untyped  int // OpenChannel errors that are not typed refusals
	// tcBound and beBound cap the packets and frames that may be in
	// flight (queued at a regulator, or inside the network) at any time.
	tcBound, beBound int64
	// Totals of the warm-up, which ResetStats wipes from the routers.
	warm core.Summary
	// Set-up attribution.
	newMeshS float64
	openUS   []float64
}

func coord(x, y int) mesh.Coord { return mesh.Coord{X: x, Y: y} }

func specOf(r request) rtc.Spec { return rtc.Spec{Imin: r.Imin, Smax: r.Smax, D: r.D} }

// buildMesh builds the system, offers it the generated requests, attaches
// one periodic source per admitted channel and (if asked) a best-effort
// source per node, runs the warm-up and resets the statistics.
func buildMesh(p meshParams, cfg config, opts core.Options, tr *tracer, rep int) (*meshSys, error) {
	sp := tr.begin("setup", rep)
	defer tr.end(sp)
	m := &meshSys{}
	t0 := time.Now()
	sys, err := core.NewMesh(p.w, p.h, opts)
	if err != nil {
		return nil, err
	}
	d := time.Since(t0)
	tr.add("core.NewMesh", rep, t0, d)
	m.sys, m.newMeshS = sys, d.Seconds()

	register := func(c mesh.Coord, g sim.Skipper, gens *[]*timedGen) {
		if tr != nil {
			tg := &timedGen{inner: g}
			*gens = append(*gens, tg)
			g = tg
		}
		sys.RegisterNode(c, g)
	}
	var load float64
	for i := 0; i < p.requests && (p.load == 0 || load < p.load); i++ {
		r := genRequest(cfg.seed, i, p.w, p.h, defaultHotPct)
		spec, src := specOf(r), coord(r.SX, r.SY)
		m.offered++
		t := time.Now()
		ch, err := sys.OpenChannel(src, []mesh.Coord{coord(r.DX, r.DY)}, spec)
		d := time.Since(t)
		tr.add("core.OpenChannel", rep, t, d)
		m.openUS = append(m.openUS, float64(d.Nanoseconds())/1e3)
		if err != nil {
			if _, typed := admission.Explain(err); !typed {
				m.untyped++
			}
			continue
		}
		m.admitted++
		app, err := traffic.NewTCApp(fmt.Sprintf("tc%d", i), ch, spec, traffic.Periodic, spec.Smax)
		if err != nil {
			return nil, err
		}
		pkts := int64(spec.PacketsPerMessage())
		m.tc, m.tcPkts = append(m.tc, app), append(m.tcPkts, pkts)
		m.tcBound += pkts * (spec.D/spec.Imin + 3)
		load += float64(ch.Admitted().Hops()) * spec.Utilization()
		register(src, app, &m.tcGens)
		cfg.host.poll()
	}
	if p.beRate > 0 {
		seeds := newStream(cfg.seed^0x6265, 0)
		for i, c := range sys.Net.Coords() {
			app, err := traffic.NewBEApp(fmt.Sprintf("be%d", i), sys.Net, c,
				traffic.UniformDst(sys.Net, c), traffic.UniformSize(16, 128), p.beRate, int64(seeds.next()>>1))
			if err != nil {
				return nil, err
			}
			m.be = append(m.be, app)
			register(c, app, &m.beGens)
		}
		// Per node: the source's bounded backlog plus a frame per input.
		m.beBound = 16 * int64(p.w*p.h)
	}
	ws := tr.begin("sim.Run warm-up", rep)
	for c := int64(0); c < p.warmup; c += warmupChunk {
		sys.Run(min(warmupChunk, p.warmup-c))
		cfg.host.poll()
	}
	tr.end(ws)
	m.warm = sys.Summarize()
	sys.ResetStats()
	for _, g := range append(m.tcGens, m.beGens...) {
		*g = timedGen{inner: g.inner}
	}
	return m, nil
}

// meshSnap is the simulated state at the end of the statistics window.
type meshSnap struct {
	sum                 core.Summary
	selects, idleTicks  int64
	bePayloadBytes      int64 // delivered to local ports, headers excluded
	digest              uint64
	summarizeMS         float64
	tcInFlight, beInFly int64
	heapMB              float64
}

func idleTicks(sys *core.System) int64 {
	var n int64
	for _, c := range sys.Net.Coords() {
		n += sys.Router(c).IdleTicks()
	}
	return n
}

// snapshot reads the window's simulated statistics. idle0 is the idle-tick
// total at the window's start (ResetStats does not clear that counter).
func (m *meshSys) snapshot(idle0 int64) *meshSnap {
	s := &meshSnap{}
	t := time.Now()
	s.sum = m.sys.Summarize()
	s.summarizeMS = time.Since(t).Seconds() * 1e3
	s.idleTicks = idleTicks(m.sys) - idle0
	h := fnv.New64a()
	for _, c := range m.sys.Net.Coords() {
		r, snk := m.sys.Router(c), m.sys.Sink(c)
		if t, ok := r.Scheduler().(*sched.EDFTree); ok {
			s.selects += t.Selects
		}
		s.bePayloadBytes += r.Stats.BEBytes[router.PortLocal] - r.Stats.BEDelivered*packet.BEHeaderBytes
		fmt.Fprintf(h, "%v %+v %d %d %s %s\n", c, r.Stats, snk.TCCount, snk.BECount, snk.TCLatency.String(), snk.BELatency.String())
	}
	s.digest = h.Sum64()
	var tcSent, beSent int64
	for i, a := range m.tc {
		tcSent += a.Submitted * m.tcPkts[i]
	}
	for _, a := range m.be {
		beSent += a.Injected
	}
	s.tcInFlight = tcSent - m.warm.TCDelivered - s.sum.TCDelivered - m.warm.TCDrops - s.sum.TCDrops
	s.beInFly = beSent - m.warm.BEDelivered - s.sum.BEDelivered - m.warm.BEAborts - s.sum.BEAborts
	s.heapMB = heapMB()
	return s
}

// meshTiming is the host-time side of one measurement.
type meshTiming struct {
	// Both at reference host speed (hostspeed.go).
	rate   []float64 // simulated cycles per host second, per segment
	lat    []float64 // host µs per simulated cycle, per chunk
	cycles int64
	wall   time.Duration
	snap   *meshSnap
	// Heap activity over the whole timed part.
	mallocs   uint64
	gcPauseNS uint64
}

// measure runs the timed part: chunks of p.chunk cycles, each its own
// clock pair, grouped into segments, until both the statistics window and
// the time budget are done. The host-speed reference is read between
// chunks and a segment's host times divided by the slowdown it showed.
// Collections are forced between segments so they land outside the timed
// chunks as far as possible; after the window the statistics are reset per
// segment so sink histograms stay bounded.
func (m *meshSys) measure(p meshParams, seconds float64, host *speedometer, tr *tracer) *meshTiming {
	mt := &meshTiming{}
	idle0 := idleTicks(m.sys)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	budget := time.Duration(seconds * float64(time.Second))
	for seg := 0; mt.wall < budget || mt.cycles < p.window; seg++ {
		speed := host.begin()
		sp := tr.begin("sim.Run segment", seg)
		var segWall time.Duration
		var segCycles int64
		first := len(mt.lat)
		for i := 0; i < p.segChunks && (mt.snap != nil || mt.cycles+segCycles < p.window); i++ {
			t := time.Now()
			m.sys.Run(p.chunk)
			d := time.Since(t)
			segWall += d
			segCycles += p.chunk
			mt.lat = append(mt.lat, float64(d.Nanoseconds())/1e3/float64(p.chunk))
			host.poll()
		}
		tr.end(sp)
		slow, _ := host.end(speed)
		for i := first; i < len(mt.lat); i++ {
			mt.lat[i] /= slow
		}
		mt.wall += segWall
		mt.cycles += segCycles
		mt.rate = append(mt.rate, float64(segCycles)/segWall.Seconds()*slow)
		if mt.snap == nil && mt.cycles >= p.window {
			mt.snap = m.snapshot(idle0)
		}
		if mt.snap != nil {
			m.sys.ResetStats()
		}
		runtime.GC()
	}
	runtime.ReadMemStats(&ms1)
	mt.mallocs = ms1.Mallocs - ms0.Mallocs
	mt.gcPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
	return mt
}

func runMesh(p meshParams, cfg config) (*outcome, error) {
	if cfg.smoke {
		p.w, p.h = 4, 4
		p.requests = min(p.requests, 40)
		p.warmup, p.window, p.segChunks = 500, p.chunk*64, 64
		p.idleMin, p.idleMax = 0, 1
		cfg.seconds = 0
	}
	out := &outcome{layer: map[string]float64{}}
	root := cfg.tr.begin(p.name, 0)
	defer cfg.tr.end(root)

	// Set up setupReps times; the last system is the one measured. A
	// traced run keeps its generators unwrapped on all but that one, and
	// times the one before it untraced, for the tracing overhead.
	var m *meshSys
	var plainRate float64
	for rep := 0; rep < setupReps; rep++ {
		last := rep == setupReps-1
		tr := cfg.tr
		if !last {
			tr = nil
		}
		speed := cfg.host.begin()
		t0 := time.Now()
		next, err := buildMesh(p, cfg, core.Options{}, tr, rep)
		if err != nil {
			return nil, err
		}
		wall := time.Since(t0)
		slow, probing := cfg.host.end(speed)
		out.setup = append(out.setup, (wall-probing).Seconds()/slow)
		if last && cfg.tr != nil {
			plainRate = median(m.measure(shortLeg(p), cfg.seconds/4, cfg.host, nil).rate)
		}
		if m != nil {
			m.sys.Close()
		}
		m = next
	}
	defer m.sys.Close()

	mt := m.measure(p, cfg.seconds, cfg.host, cfg.tr)
	out.rate, out.lat, out.heapMB = mt.rate, mt.lat, mt.snap.heapMB
	snap := mt.snap

	// Operations are the window's deliveries; a failure is a deadline
	// miss, a dropped packet or an abandoned frame.
	sum := snap.sum
	out.attempted = sum.TCDelivered + sum.TCDrops + sum.BEDelivered + sum.BEAborts
	out.failed = sum.TCMisses + sum.TCDrops + sum.BEAborts + int64(m.untyped)
	out.note("%s: %d of %d requests admitted; window %d cycles: tc %d delivered %d missed %d dropped, be %d delivered %d aborted",
		p.name, m.admitted, m.offered, p.window, sum.TCDelivered, sum.TCMisses, sum.TCDrops, sum.BEDelivered, sum.BEAborts)
	out.note("tc_latency_p99_cycles %.0f; be_latency_p50_cycles %.0f; admitted_channels %d",
		sum.TCLatency.Quantile(0.99), sum.BELatency.Quantile(0.5), m.admitted)

	nodes := int64(p.w * p.h)
	idleShare := float64(snap.idleTicks) / float64(p.window*nodes)
	out.check(idleShare >= p.idleMin && idleShare <= p.idleMax,
		"router.idle_tick_share %.4f outside [%g, %g]: the workload left its regime", idleShare, p.idleMin, p.idleMax)
	out.check(m.untyped == 0, "%d OpenChannel errors were not typed refusals", m.untyped)
	out.check(snap.tcInFlight >= 0 && snap.tcInFlight <= m.tcBound,
		"tc conservation: submitted − delivered − dropped = %d packets in flight, bound %d", snap.tcInFlight, m.tcBound)
	out.check(snap.beInFly >= 0 && snap.beInFly <= m.beBound,
		"be conservation: injected − delivered − aborted = %d frames in flight, bound %d", snap.beInFly, m.beBound)

	// The kernel's parallel path (barrier, tiling, dirty-latch commit)
	// beside the inline path that was measured.
	var parRate float64
	if p.parallelLeg {
		par, err := buildMesh(p, cfg, core.Options{Workers: 2}, nil, setupReps)
		if err != nil {
			return nil, err
		}
		w := p
		w.segChunks = int(p.window / p.chunk)
		pt := par.measure(w, 0, cfg.host, nil)
		par.sys.Close()
		parRate = median(pt.rate)
		out.check(pt.snap.digest == snap.digest, "digest %016x at 2 workers differs from %016x at 1", pt.snap.digest, snap.digest)
		out.note("digest %016x at 1 worker, %016x at 2", snap.digest, pt.snap.digest)
	}

	if cfg.tr != nil {
		if err := meshLayers(out, p, cfg, m, mt, plainRate, parRate, idleShare); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// shortLeg is p for a comparison leg that needs a rate only: the
// statistics window shrinks to one chunk so the leg ends on time.
func shortLeg(p meshParams) meshParams {
	p.window = p.chunk
	return p
}
