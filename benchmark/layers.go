package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/timing"
)

// perLayer is every per-layer metric, <module>.<name>. A traced run prints
// all of them; a workload that does not exercise a layer reports 0 for it.
// README.md says which end-to-end metric each should move, and where.
var perLayer = []metricDef{
	{"timing.sortkey_ns", "ns"},
	{"sched.select_ns_occ16", "ns"},
	{"sched.select_ns_occ256", "ns"},
	{"sched.install_clear_ns", "ns"},
	{"sched.selects_per_cycle", "1/cycle"},
	{"sched.occupancy_peak", "count"},
	{"router.tick_idle_ns", "ns"},
	{"router.tick_tc_forward_ns", "ns"},
	{"router.tick_be_contention_ns", "ns"},
	{"router.ns_per_router_cycle", "ns"},
	{"router.idle_tick_share", "share"},
	{"router.bus_grants_per_cycle", "1/cycle"},
	{"router.tc_cut_throughs", "count"},
	{"router.est_share", "share"},
	{"sim.step_ns_per_component", "ns"},
	{"sim.step_parallel_ns_per_cycle_w2", "ns"},
	{"sim.skip_cycles_per_s", "1/s"},
	{"sim.parallel_speedup_w2", "ratio"},
	{"sim.residual_share", "share"},
	{"mesh.new_s_16", "s"},
	{"mesh.new_s_32", "s"},
	{"mesh.xyroute_ns", "ns"},
	{"core.new_mesh_s", "s"},
	{"core.open_channel_us_p50", "us"},
	{"core.summarize_ms", "ms"},
	{"rtc.submit_ns", "ns"},
	{"traffic.tc_tick_ns", "ns"},
	{"traffic.be_tick_ns", "ns"},
	{"traffic.tick_share", "share"},
	{"dataplane.tc_latency_p99_cycles", "cycles"},
	{"dataplane.be_latency_p50_cycles", "cycles"},
	{"dataplane.be_goodput_bytes_per_kcycle", "B/kcycle"},
	{"dataplane.tc_deadline_misses", "count"},
	{"dataplane.admitted_channels", "count"},
	{"admission.accept_us_p50", "us"},
	{"admission.accept_us_p99", "us"},
	{"admission.reject_us_p50", "us"},
	{"admission.reject_us_p99", "us"},
	{"admission.teardown_us_p50", "us"},
	{"admission.plan_layout_us_p50", "us"},
	{"admission.accept_share", "share"},
	{"admission.reject_link_share", "share"},
	{"admission.reject_buffer_share", "share"},
	{"admission.reject_id_share", "share"},
	{"admission.admitted_channels", "count"},
	{"admission.batch_ops_per_s_w1", "1/s"},
	{"admission.batch_ops_per_s_w2", "1/s"},
	{"admission.batch_replans", "count"},
	{"admission.reference_ops_per_s", "1/s"},
	{"admission.seal_ms", "ms"},
	{"admission.verify_ledger_ms", "ms"},
	{"admission.link_util_mean", "share"},
	{"admission.link_util_max", "share"},
	{"admission.allocs_per_op", "count"},
	{"layout.ms_per_request", "ms"},
	{"layout.probes_per_request", "count"},
	{"layout.repairs_per_request", "count"},
	{"layout.gain_over_greedy", "count"},
	{"layout.rerouted", "count"},
	{"layout.nonuniform", "count"},
	{"obs.telemetry_overhead_share", "share"},
	{"obs.trace_overhead_share", "share"},
	{"scenario.faulty_run_s", "s"},
	{"host.cpus", "count"},
	{"host.gomaxprocs", "count"},
	{"host.slowdown", "ratio"},
	{"host.allocs_per_kcycle", "count"},
	{"host.gc_pause_ms", "ms"},
	{"host.op_p99_us", "us"},
}

// fixtureBudget is how long each calibration fixture runs. The fixtures
// are tiny set-ups built from exported constructors; a traced run has a
// dozen of them, so each gets a fraction of a second.
func fixtureBudget(cfg config) time.Duration {
	if cfg.smoke {
		return 5 * time.Millisecond
	}
	return 300 * time.Millisecond
}

// nsPerOp calls op in batches until the budget is spent and returns the
// mean host nanoseconds per call.
func nsPerOp(budget time.Duration, batch int, op func()) float64 {
	var n int64
	start := time.Now()
	for time.Since(start) < budget {
		for i := 0; i < batch; i++ {
			op()
		}
		n += int64(batch)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// sink keeps fixture results alive so the compiler cannot drop the calls.
var sink uint64

func fixSortKey(b time.Duration) float64 {
	w := timing.MustWheel(8)
	var t timing.Stamp
	return nsPerOp(b, 4096, func() {
		k, _, _ := w.SortKey(t, w.Add(t, 9), w.Add(t, 3))
		sink += uint64(k)
		t = w.Add(t, 1)
	})
}

// edfTree returns the default 256-leaf tree with occ leaves in use, all
// eligible on port 0.
func edfTree(occ int) *sched.EDFTree {
	w := timing.MustWheel(8)
	t := sched.NewEDFTree(router.DefaultConfig().Slots, w)
	for i := 0; i < occ; i++ {
		l := w.Wrap(timing.Slot(i % 64))
		if err := t.Install(i, sched.Leaf{L: l, Dl: w.Add(l, 8), Mask: 1}); err != nil {
			panic(err)
		}
	}
	return t
}

func fixSelect(b time.Duration, occ int) float64 {
	t := edfTree(occ)
	var now timing.Stamp
	return nsPerOp(b, 256, func() {
		sink += uint64(t.Select(0, now, 0).Slot)
		now = t.Wheel().Add(now, 1)
	})
}

func fixInstallClear(b time.Duration) float64 {
	t := edfTree(16)
	return nsPerOp(b, 1024, func() {
		if err := t.Install(200, sched.Leaf{L: 1, Dl: 9, Mask: 1}); err != nil {
			panic(err)
		}
		if _, err := t.ClearPort(200, 0); err != nil {
			panic(err)
		}
	})
}

// routerPair wires two routers A↔B over one bidirectional channel, the
// fixture of BenchmarkRouterTick.
func routerPair() (*sim.Kernel, *router.Router, *router.Router) {
	k := sim.NewKernel()
	ra := router.MustNew("A", router.DefaultConfig())
	rb := router.MustNew("B", router.DefaultConfig())
	k.Register(ra)
	k.Register(rb)
	ab := router.NewChannel(k)
	ra.ConnectOut(router.PortXPlus, ab.Out())
	rb.ConnectIn(router.PortXMinus, ab.In())
	ba := router.NewChannel(k)
	rb.ConnectOut(router.PortXMinus, ba.Out())
	ra.ConnectIn(router.PortXPlus, ba.In())
	return k, ra, rb
}

// The three router fixtures report host ns per router-cycle.

func fixTickIdle(b time.Duration) float64 {
	k := sim.NewKernel()
	k.Register(router.MustNew("A", router.DefaultConfig()))
	k.Run(16) // settle into the quiescent fast path
	return nsPerOp(b, 1024, k.Step)
}

func fixTickTCForward(b time.Duration) float64 {
	k, ra, rb := routerPair()
	if err := ra.SetConnection(1, 2, 5, 1<<router.PortXPlus); err != nil {
		panic(err)
	}
	if err := rb.SetConnection(2, 7, 5, 1<<router.PortLocal); err != nil {
		panic(err)
	}
	pkt := packet.TCPacket{Conn: 1}
	cycle := 0
	step := func() {
		// One packet per slot keeps scheduler, memory and transmit
		// engines busy every cycle.
		if cycle%packet.TCBytes == 0 && ra.FreeSlots() > 0 {
			ra.InjectTC(pkt)
		}
		cycle++
		k.Step()
		rb.DrainTC()
	}
	for c := 0; c < 32*packet.TCBytes; c++ {
		step() // outlast the connection's scheduling delay
	}
	return nsPerOp(b, 1024, step) / 2
}

func fixTickBEContention(b time.Duration) float64 {
	k, ra, rb := routerPair()
	payload := make([]byte, 64)
	topUp := func(r *router.Router, xoff int) {
		if r.BEInjectBacklog() >= 4 {
			return
		}
		frame, err := packet.AppendBE(r.BEFrameBuf(), xoff, 0, payload)
		if err != nil {
			panic(err)
		}
		r.InjectBE(frame)
	}
	step := func() {
		topUp(ra, 1)
		topUp(rb, -1)
		k.Step()
		ra.DrainBE()
		rb.DrainBE()
	}
	for c := 0; c < 512; c++ {
		step() // fill the wormholes and warm the frame pools
	}
	return nsPerOp(b, 1024, step) / 2
}

// regComp is a no-op sharded component: it copies its register forward.
type regComp struct{ r *sim.Reg[uint32] }

func (c regComp) Name() string       { return "reg" }
func (c regComp) Tick(now sim.Cycle) { c.r.Write(c.r.Read() + 1) }

// bareKernel is 1024 no-op components, one register each, one per shard.
func bareKernel(workers int) *sim.Kernel {
	k := sim.NewKernel()
	for i := 0; i < 1024; i++ {
		r := sim.NewReg[uint32]()
		k.AddLatch(r)
		k.RegisterShard(i, regComp{r})
	}
	k.SetTiling(func(shard int) int { return shard / 64 })
	if workers > 1 {
		k.SetWorkers(workers)
	}
	return k
}

// fixStep returns the host ns per cycle of the bare kernel: step + commit.
func fixStep(b time.Duration, workers int) float64 {
	k := bareKernel(workers)
	defer k.Close()
	k.Run(16)
	return nsPerOp(b, 64, k.Step)
}

// fixSkip returns cycles per second on a traffic-free 16×16 mesh, where
// every Run is one whole-system skip.
func fixSkip(b time.Duration) float64 {
	sys := core.MustNewMesh(16, 16, core.Options{})
	sys.Run(64)
	const span = 1 << 20
	return span * 1e9 / nsPerOp(b, 1, func() { sys.Run(span) })
}

func fixMeshNew(b time.Duration, n int) float64 {
	return nsPerOp(b, 1, func() { mesh.MustNew(n, n, router.DefaultConfig()) }) / 1e9
}

func fixXYRoute(b time.Duration) float64 {
	i := 0
	return nsPerOp(b, 1024, func() {
		r := genRequest(1, i&1023, 16, 16, defaultHotPct)
		sink += uint64(len(mesh.XYRoute(coord(r.SX, r.SY), coord(r.DX, r.DY))))
		i++
	})
}

// fixSubmit times Channel.Submit on an admitted channel in steady state:
// batches of submissions are timed, and the network runs (untimed) between
// batches so the regulator drains and its packet pool stays warm.
func fixSubmit(b time.Duration) float64 {
	sys := core.MustNewMesh(2, 2, core.Options{})
	spec := rtc.Spec{Imin: 2, Smax: 18, D: 40}
	ch, err := sys.OpenChannel(coord(0, 0), []mesh.Coord{coord(1, 1)}, spec)
	if err != nil {
		panic(err)
	}
	const batch = 32
	payload := make([]byte, spec.Smax)
	var n int64
	var spent time.Duration
	for start := time.Now(); time.Since(start) < b; {
		slot := timing.CyclesToSlot(sys.Now(), packet.TCBytes)
		t := time.Now()
		for i := 0; i < batch; i++ {
			if err := ch.Submit(slot, payload); err != nil {
				panic(err)
			}
		}
		spent += time.Since(t)
		n += batch
		sys.Run((batch + 4) * spec.Imin * packet.TCBytes)
	}
	return float64(spent.Nanoseconds()) / float64(n)
}

func fixFaultyScenario() (float64, error) {
	sc, err := scenario.Load("scenarios/faulty.json")
	if err != nil {
		return 0, err
	}
	t := time.Now()
	_, sys, err := sc.RunWith(scenario.RunOpts{})
	if err != nil {
		return 0, err
	}
	sys.Close()
	return time.Since(t).Seconds(), nil
}

// clockNS is what a time.Now/time.Since pair reports around nothing: the
// part of every sampled generator tick that is the clock, not the tick.
func clockNS() float64 {
	const n = 1 << 14
	var ns int64
	for i := 0; i < n; i++ {
		ns += time.Since(time.Now()).Nanoseconds()
	}
	return float64(ns) / n
}

// genNS folds a set of sampled generators into mean ns per tick, net of
// the clock, and the estimated total ns they consumed.
func genNS(gens []*timedGen) (perTick, total float64) {
	var ns, sampled, ticks int64
	for _, g := range gens {
		ns, sampled, ticks = ns+g.ns, sampled+g.sampled, ticks+g.ticks
	}
	if sampled == 0 {
		return 0, 0
	}
	perTick = max(0, float64(ns)/float64(sampled)-clockNS())
	return perTick, perTick * float64(ticks)
}

// meshLayers fills the per-layer metrics of a traced mesh_* run: the
// workload's own counters, the calibration fixtures of the layers a mesh
// cycle passes through, and the shares that attribute the wall time.
func meshLayers(out *outcome, p meshParams, cfg config, m *meshSys, mt *meshTiming, plainRate, parRate, idleShare float64) error {
	l, b := out.layer, fixtureBudget(cfg)
	snap, nodes := mt.snap, float64(p.w*p.h)
	routerCycles := float64(p.window) * nodes

	l["dataplane.tc_latency_p99_cycles"] = snap.sum.TCLatency.Quantile(0.99)
	l["dataplane.be_latency_p50_cycles"] = snap.sum.BELatency.Quantile(0.5)
	l["dataplane.be_goodput_bytes_per_kcycle"] = float64(snap.bePayloadBytes) / float64(p.window) * 1000
	l["dataplane.tc_deadline_misses"] = float64(snap.sum.TCMisses)
	l["dataplane.admitted_channels"] = float64(m.admitted)

	l["sched.selects_per_cycle"] = float64(snap.selects) / routerCycles
	l["sched.occupancy_peak"] = float64(snap.sum.SchedulerPeak)
	l["router.idle_tick_share"] = idleShare
	l["router.bus_grants_per_cycle"] = snap.sum.BusUtilization
	l["router.tc_cut_throughs"] = float64(snap.sum.CutThroughs)
	l["core.new_mesh_s"] = m.newMeshS
	l["core.open_channel_us_p50"] = median(m.openUS)
	l["core.summarize_ms"] = snap.summarizeMS

	l["timing.sortkey_ns"] = fixSortKey(b)
	l["sched.select_ns_occ16"] = fixSelect(b, 16)
	l["sched.select_ns_occ256"] = fixSelect(b, 256)
	l["sched.install_clear_ns"] = fixInstallClear(b)
	l["router.tick_idle_ns"] = fixTickIdle(b)
	l["router.tick_tc_forward_ns"] = fixTickTCForward(b)
	l["router.tick_be_contention_ns"] = fixTickBEContention(b)
	l["sim.step_ns_per_component"] = fixStep(b, 1) / 1024
	l["sim.step_parallel_ns_per_cycle_w2"] = fixStep(b, 2)
	l["sim.skip_cycles_per_s"] = fixSkip(b)
	l["mesh.new_s_16"] = fixMeshNew(b, 16)
	l["mesh.new_s_32"] = fixMeshNew(b, 32)
	l["mesh.xyroute_ns"] = fixXYRoute(b)
	l["rtc.submit_ns"] = fixSubmit(b)
	if p.faultyScenario {
		// mesh_sparse is the cheapest traced run, so it carries the one
		// timing of the fault-injection and reroute path.
		s, err := fixFaultyScenario()
		if err != nil {
			return err
		}
		l["scenario.faulty_run_s"] = s
	}

	// Attribution of the timed part's CPU time.
	cpuNS := float64(mt.wall.Nanoseconds())
	perRouterCycle := cpuNS / (float64(mt.cycles) * nodes)
	l["router.ns_per_router_cycle"] = perRouterCycle
	loaded := (l["router.tick_tc_forward_ns"] + l["router.tick_be_contention_ns"]) / 2
	l["router.est_share"] = (idleShare*l["router.tick_idle_ns"] + (1-idleShare)*loaded) / perRouterCycle
	tcTick, tcTotal := genNS(m.tcGens)
	beTick, beTotal := genNS(m.beGens)
	l["traffic.tc_tick_ns"], l["traffic.be_tick_ns"] = tcTick, beTick
	l["traffic.tick_share"] = (tcTotal + beTotal) / cpuNS
	l["sim.residual_share"] = 1 - l["router.est_share"] - l["traffic.tick_share"]
	if parRate > 0 {
		l["sim.parallel_speedup_w2"] = parRate / plainRate
	}

	l["host.allocs_per_kcycle"] = float64(mt.mallocs) / float64(mt.cycles) * 1000
	l["host.gc_pause_ms"] = float64(mt.gcPauseNS) / 1e6
	l["obs.trace_overhead_share"] = 1 - median(mt.rate)/plainRate

	// Telemetry budget: the same workload with a metrics registry and
	// per-channel SLO accounting attached, against the plain one.
	tel, err := buildMesh(p, cfg, core.Options{Metrics: metrics.NewRegistry(), ChannelSLO: obs.NewSLO()}, nil, setupReps+1)
	if err != nil {
		return err
	}
	defer tel.sys.Close()
	l["obs.telemetry_overhead_share"] = 1 - median(tel.measure(shortLeg(p), cfg.seconds/4, cfg.host, nil).rate)/plainRate
	return nil
}
