// Package core is the top-level facade of the real-time router library:
// it assembles a mesh of router chips, the per-node protocol software
// (source regulators and delivery sinks), and the admission controller
// into one System that applications drive with a few calls:
//
//	sys, _ := core.NewMesh(4, 4, core.Options{})
//	ch, _ := sys.OpenChannel(src, []mesh.Coord{dst}, rtc.Spec{
//	    Imin: 8, Smax: 18, D: 64,
//	})
//	ch.Send([]byte("periodic command"))
//	sys.Run(10_000)
//
// Everything underneath is the cycle-accurate model: OpenChannel runs
// the admission tests and programs the chips through their control
// interfaces; Send hands the message to the source's rate regulator;
// delivery statistics come back through per-node sinks.
package core

import (
	"fmt"

	"repro/internal/admission"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timing"
	"repro/internal/traffic"
)

// Options configures a System.
type Options struct {
	// Router overrides the chip configuration; zero value means the
	// paper's DefaultConfig.
	Router router.Config
	// Admission overrides the controller configuration; zero value
	// means admission.DefaultConfig.
	Admission admission.Config
	// admissionSet marks Admission as explicitly provided.
	admissionSet bool
	// Metrics attaches a telemetry registry: every router gets a
	// counter block named after its coordinate. Nil falls back to
	// DefaultMetrics; when that is nil too, the system runs without
	// telemetry (the hot paths pay only a nil check).
	Metrics *metrics.Registry
	// MetricsSampleEvery, when positive, registers a periodic sampler
	// snapshotting registry totals into System.Sampler.TS every N
	// cycles. Ignored without a registry.
	MetricsSampleEvery int64
	// Collector attaches a sharded lifecycle collector: every router
	// writes its events into a private per-node buffer, merged into one
	// deterministic timeline on demand (obs.Sharded). Nil falls back to
	// DefaultCollector; when that is nil too, lifecycle tracing is off.
	Collector *obs.Sharded
	// ChannelSLO attaches per-channel SLO accounting: latency and slack
	// histograms, miss and horizon-early counters for every channel
	// opened on the system (obs.SLO). Nil falls back to
	// DefaultChannelSLO. When a metrics registry is attached too, the
	// SLO snapshots ride its JSON/Prometheus/HTTP exports.
	ChannelSLO *obs.SLO
	// Forensics attaches the slack-attribution engine: every router
	// collects per-cycle blame counters, merged post-run into the blame
	// matrix and cause totals (obs.Forensics). Nil falls back to
	// DefaultForensics; when that is nil too, attribution is off and the
	// routers pay only a nil check per arbitration.
	Forensics *obs.Forensics
	// Recorder attaches the flight recorder: deadline misses, fault
	// drops and fault-attributed stalls trigger bounded per-node logs
	// with occupancy snapshots, dumpable post-run as the last K cycles
	// of the merged timeline (obs.Recorder). Nil falls back to
	// DefaultRecorder. A recorder without a Collector still counts and
	// logs triggers; only the timeline dump needs the collector.
	Recorder *obs.Recorder
	// Audit attaches an admission audit log: every Admit, Teardown and
	// Reroute decision the controller makes is recorded with its
	// contract, route, margin, and (on rejection) the typed explanation
	// (obs.AuditLog). Nil falls back to DefaultAudit; when that is nil
	// too, auditing is off.
	Audit *obs.AuditLog
	// Workers selects the kernel execution mode: 0 or 1 runs the
	// simulation sequentially (the default); n > 1 ticks the per-node
	// shards on n workers with bit-identical results; negative picks
	// GOMAXPROCS. Parallel systems should be Closed when done. The
	// workers rendezvous once per Router.LinkLatency cycles: the kernel
	// derives that epoch from the wiring (sim.Kernel.EffectiveEpoch).
	//
	// Observability is parallel-safe under any worker count: each router
	// writes lifecycle events only into its own node's collector shard
	// during the compute phase, metrics and SLO accounting use
	// commutative atomics, and the collector merges shards into the
	// deterministic (cycle, node, seq) order at snapshot time — so
	// traces, counters, and histograms are identical across worker
	// counts. What remains unsafe is custom cross-node mutable state:
	// components touching more than one node must be registered through
	// Kernel.Register (see RegisterNode), which schedules them as
	// barriers, and a hand-installed router.OnLifecycle hook that writes
	// shared state must synchronize itself (prefer obs.Sharded).
	Workers int
}

// DefaultMetrics, when set, is attached by NewMesh to systems built
// without an explicit Options.Metrics — the hook the command-line
// tools use to observe experiments that construct Systems internally.
var DefaultMetrics *metrics.Registry

// DefaultCollector and DefaultChannelSLO are the same hook for the
// sharded lifecycle collector and the per-channel SLO tracker: set
// before building systems (rtbench's trace mode), and every System
// constructed without explicit options attaches to them. A collector
// shared across several systems keeps distinct shard indices per
// attached router.
var (
	DefaultCollector  *obs.Sharded
	DefaultChannelSLO *obs.SLO
	DefaultForensics  *obs.Forensics
	DefaultRecorder   *obs.Recorder
	DefaultAudit      *obs.AuditLog
)

// WithAdmission returns o with the admission configuration set.
func (o Options) WithAdmission(a admission.Config) Options {
	o.Admission = a
	o.admissionSet = true
	return o
}

// System is a running real-time network: mesh, per-node protocol
// software, and the admission controller.
type System struct {
	Net  *mesh.Network
	Adm  *admission.Controller
	cfg  router.Config
	pcrs map[mesh.Coord]*rtc.Pacer
	snks map[mesh.Coord]*traffic.Sink

	// Metrics is the attached telemetry registry, or nil.
	Metrics *metrics.Registry
	// Sampler is the periodic registry sampler, or nil; its TS field
	// holds the per-quantity time series after a run.
	Sampler *metrics.Sampler
	// Collector is the attached sharded lifecycle collector, or nil.
	Collector *obs.Sharded
	// SLO is the attached per-channel SLO tracker, or nil.
	SLO *obs.SLO
	// Forensics is the attached slack-attribution engine, or nil.
	Forensics *obs.Forensics
	// Recorder is the attached flight recorder, or nil.
	Recorder *obs.Recorder
	// Audit is the attached admission audit log, or nil.
	Audit *obs.AuditLog
}

// NewMesh builds a W×H system.
func NewMesh(w, h int, opts Options) (*System, error) {
	rcfg := opts.Router
	if rcfg.Slots == 0 { // zero value: use the paper's configuration
		rcfg = router.DefaultConfig()
	}
	acfg := opts.Admission
	if !opts.admissionSet && acfg == (admission.Config{}) {
		acfg = admission.DefaultConfig()
	}
	net, err := mesh.New(w, h, rcfg)
	if err != nil {
		return nil, err
	}
	sys := &System{
		Net:  net,
		cfg:  rcfg,
		pcrs: make(map[mesh.Coord]*rtc.Pacer),
		snks: make(map[mesh.Coord]*traffic.Sink),
	}
	// Pacers must tick before their routers so releases land the same
	// cycle; the mesh registered routers already, and the kernel runs
	// components in registration order, so pacer injections become
	// visible at the next cycle — one cycle of processor-interface
	// latency, which is fine. Sinks drain after the routers.
	reg := opts.Metrics
	if reg == nil {
		reg = DefaultMetrics
	}
	col := opts.Collector
	if col == nil {
		col = DefaultCollector
	}
	slo := opts.ChannelSLO
	if slo == nil {
		slo = DefaultChannelSLO
	}
	fns := opts.Forensics
	if fns == nil {
		fns = DefaultForensics
	}
	rec := opts.Recorder
	if rec == nil {
		rec = DefaultRecorder
	}
	for _, c := range net.Coords() {
		p, err := rtc.NewPacer(fmt.Sprintf("pacer%s", c), net.Router(c), acfg.SourceWindow)
		if err != nil {
			return nil, err
		}
		net.RegisterAt(c, p)
		sys.pcrs[c] = p
		s := traffic.NewSink(fmt.Sprintf("sink%s", c), net.Router(c))
		net.RegisterAt(c, s)
		sys.snks[c] = s
		if reg != nil {
			net.Router(c).AttachMetrics(reg.Router(c.String()))
		}
		// Shard indices follow Coords order (row-major), so merged
		// traces interleave nodes the same way in any execution mode.
		if col != nil {
			col.Attach(net.Router(c))
		}
		if slo != nil {
			slo.Attach(net.Router(c))
			name := c.String()
			s.OnTCLatency = func(conn uint8, latency int64) {
				slo.RecordLatency(name, conn, latency)
			}
		}
		// Forensics enables blame collection; the recorder chains after
		// everything else so triggers see the router's own counters only.
		if fns != nil {
			fns.Attach(net.Router(c))
		}
		if rec != nil {
			rec.Attach(net.Router(c))
		}
	}
	sys.Collector = col
	sys.SLO = slo
	sys.Forensics = fns
	sys.Recorder = rec
	if fns != nil && slo != nil {
		fns.UseSLO(slo)
	}
	if reg != nil {
		sys.Metrics = reg
		if slo != nil {
			reg.SetChannelSource(slo.Export)
		}
		if fns != nil {
			reg.SetBlameSource(fns.ExportBlame)
			fnsrc, recsrc := fns, rec
			reg.SetForensicsSource(func() *metrics.ForensicsSnapshot {
				fs := fnsrc.ExportStats()
				if fs != nil && recsrc != nil {
					fs.Triggers = recsrc.Count()
				}
				return fs
			})
		}
		if opts.MetricsSampleEvery > 0 {
			sys.Sampler = metrics.NewSampler("metrics-sampler", reg, opts.MetricsSampleEvery)
			net.Kernel.Register(sys.Sampler)
		}
	}
	adm, err := admission.New(net, acfg)
	if err != nil {
		return nil, err
	}
	sys.Adm = adm
	aud := opts.Audit
	if aud == nil {
		aud = DefaultAudit
	}
	if aud != nil {
		adm.AttachAudit(aud)
	}
	sys.Audit = aud
	if reg != nil {
		// The capacity ledger rides the same exports; Sealed returns nil
		// until the first Seal, so scrapes before any admission see no
		// capacity section rather than a half-built one. Decision counters
		// live in their own section because they move on rejections while
		// the sealed ledger must not.
		reg.SetCapacitySource(adm.Sealed)
		reg.SetAdmissionSource(adm.Stats)
	}
	if opts.Workers != 0 && opts.Workers != 1 {
		net.SetWorkers(opts.Workers)
	}
	return sys, nil
}

// MustNewMesh is NewMesh for known-good parameters.
func MustNewMesh(w, h int, opts Options) *System {
	s, err := NewMesh(w, h, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Channel is an open real-time channel bound to its source regulator.
type Channel struct {
	sys   *System
	adm   *admission.Channel
	paced *rtc.PacedChannel
	slo   *obs.ChannelStats
}

// sloHops converts an admission record's route into the SLO layer's
// router-name keyed hop and delivery endpoints.
func sloHops(ac *admission.Channel) (hops []obs.Hop, deliver []obs.Endpoint) {
	for _, h := range ac.HopIDs() {
		hops = append(hops, obs.Hop{Router: h.Node.String(), In: h.In, Out: h.Out})
	}
	for i, d := range ac.Dsts {
		deliver = append(deliver, obs.Endpoint{Router: d.String(), Conn: ac.DstConn[i]})
	}
	return hops, deliver
}

// sloInfo builds the SLO registration record for an admitted channel.
func sloInfo(ac *admission.Channel) obs.ChannelInfo {
	dst := ""
	for i, d := range ac.Dsts {
		if i > 0 {
			dst += "+"
		}
		dst += d.String()
	}
	hops, deliver := sloHops(ac)
	return obs.ChannelInfo{
		ID:         ac.ID,
		Name:       fmt.Sprintf("ch%d:%s->%s", ac.ID, ac.Src, dst),
		Src:        ac.Src.String(),
		Dst:        dst,
		BoundSlots: ac.Bound(),
		Hops:       hops,
		Deliver:    deliver,
	}
}

// OpenChannel admits and programs a real-time channel from src to the
// destinations (one for unicast, several for multicast).
func (s *System) OpenChannel(src mesh.Coord, dsts []mesh.Coord, spec rtc.Spec) (*Channel, error) {
	ac, err := s.Adm.Admit(src, dsts, spec)
	if err != nil {
		return nil, err
	}
	paced, err := s.pcrs[src].Channel(ac.SrcConn, spec, ac.SourceD())
	if err != nil {
		// Admission succeeded but the regulator rejected the spec: roll
		// back so resources are not leaked.
		_ = s.Adm.Teardown(ac)
		return nil, err
	}
	ch := &Channel{sys: s, adm: ac, paced: paced}
	if s.SLO != nil {
		ch.slo = s.SLO.Register(sloInfo(ac))
	}
	return ch, nil
}

// Send submits one message on the channel at the current time.
func (c *Channel) Send(payload []byte) error {
	nowSlot := timing.CyclesToSlot(c.sys.Net.Now(), packet.TCBytes)
	return c.paced.Submit(nowSlot, payload)
}

// Submit implements traffic.Sender against the channel's *current*
// regulator handle, so generators keep working across Reroute.
func (c *Channel) Submit(now timing.Slot, payload []byte) error {
	return c.paced.Submit(now, payload)
}

// Pending implements traffic.Sender.
func (c *Channel) Pending() int { return c.paced.Pending() }

// Paced exposes the source regulator handle (for traffic generators).
func (c *Channel) Paced() *rtc.PacedChannel { return c.paced }

// Admitted exposes the admission record (ids, per-hop delay).
func (c *Channel) Admitted() *admission.Channel { return c.adm }

// Spec returns the channel's traffic contract.
func (c *Channel) Spec() rtc.Spec { return c.adm.Spec }

// SLOStats exposes the channel's SLO accounting, or nil when the
// system runs without a ChannelSLO tracker.
func (c *Channel) SLOStats() *obs.ChannelStats { return c.slo }

// Close tears the channel down and releases its reservations; queued
// but uninjected messages are dropped.
func (c *Channel) Close() error {
	c.sys.pcrs[c.adm.Src].Remove(c.paced)
	if c.slo != nil {
		// Endpoints unbind so a later channel reusing the ids is not
		// misattributed; accumulated statistics stay exported.
		c.sys.SLO.Detach(c.slo)
	}
	return c.sys.Adm.Teardown(c.adm)
}

// FailLink severs a bidirectional mesh link and records the failure
// with the admission controller, so new channels route around it.
// Channels currently crossing the link keep flowing into the dead port
// (their packets drain and count as drops) until Reroute moves them.
func (s *System) FailLink(from mesh.Coord, port int) error {
	if err := s.Net.FailLink(from, port); err != nil {
		return err
	}
	return s.Adm.MarkFailed(from, port)
}

// RepairLink restores a previously failed link and clears the failure
// record with the admission controller. Channels that were rerouted
// around the outage keep their detour until Reroute is called again,
// which re-admits them on the primary path (failback).
func (s *System) RepairLink(from mesh.Coord, port int) error {
	if err := s.Net.RepairLink(from, port); err != nil {
		return err
	}
	return s.Adm.MarkRepaired(from, port)
}

// SealCapacity publishes the admission controller's current reservation
// ledger as an immutable capacity snapshot and returns it. Sealed
// snapshots ride the metrics exports (rt_capacity_*); call after any
// batch of control-plane changes so live scrapes see the new state.
func (s *System) SealCapacity() *metrics.CapacitySnapshot {
	return s.Adm.Seal()
}

// Reroute re-establishes the channel around failures and congestion:
// reservations are released and re-admitted (the disjoint YX order
// serves as fallback), and the source regulator is re-bound to the new
// connection id. After a repair the same call fails the channel back:
// admission tries the primary XY order first, so the channel returns to
// its original path. Messages already queued in the old regulator are
// dropped, as after any connection re-establishment. A failed reroute
// leaves the channel exactly as it was — reservations and source
// regulator intact — so traffic keeps flowing on the old route.
func (c *Channel) Reroute() error {
	nadm, err := c.sys.Adm.Reroute(c.adm)
	if err != nil {
		return err
	}
	paced, err := c.sys.pcrs[nadm.Src].Channel(nadm.SrcConn, nadm.Spec, nadm.SourceD())
	if err != nil {
		_ = c.sys.Adm.Teardown(nadm)
		return err
	}
	// Only now that the new admission and regulator both exist does the
	// old regulator binding go away; an error above leaves it untouched.
	c.sys.pcrs[c.adm.Src].Remove(c.paced)
	c.adm = nadm
	c.paced = paced
	if c.slo != nil {
		hops, deliver := sloHops(nadm)
		c.sys.SLO.Rebind(c.slo, hops, deliver)
	}
	return nil
}

// SendBestEffort injects one best-effort packet from src to dst.
func (s *System) SendBestEffort(src, dst mesh.Coord, payload []byte) error {
	r := s.Net.Router(src)
	if r == nil {
		return fmt.Errorf("core: source %s outside mesh", src)
	}
	if !s.Net.Contains(dst) {
		return fmt.Errorf("core: destination %s outside mesh", dst)
	}
	xo, yo := mesh.BEOffsets(src, dst)
	frame, err := packet.NewBE(xo, yo, payload)
	if err != nil {
		return err
	}
	r.InjectBE(frame)
	return nil
}

// RegisterNode registers per-node software (traffic generators,
// observers) into the kernel shard of the node at c, keeping the
// system parallelizable. Components that touch more than one node's
// state must use s.Net.Kernel.Register instead, which makes them
// scheduling barriers.
func (s *System) RegisterNode(c mesh.Coord, comp sim.Component) { s.Net.RegisterAt(c, comp) }

// Close releases the kernel's resident worker goroutines, if any. A
// closed system keeps working sequentially.
func (s *System) Close() { s.Net.Close() }

// Run advances the network by the given number of cycles.
func (s *System) Run(cycles int64) { s.Net.Run(cycles) }

// RunUntil steps until pred holds or the cycle budget runs out.
func (s *System) RunUntil(pred func() bool, budget int64) bool {
	return s.Net.Kernel.RunUntil(pred, budget)
}

// Now returns the current cycle.
func (s *System) Now() int64 { return s.Net.Now() }

// Sink returns the delivery sink of a node (latency statistics and
// delivery observers).
func (s *System) Sink(c mesh.Coord) *traffic.Sink { return s.snks[c] }

// Pacer returns the source regulator of a node.
func (s *System) Pacer(c mesh.Coord) *rtc.Pacer { return s.pcrs[c] }

// Router returns the chip at a node.
func (s *System) Router(c mesh.Coord) *router.Router { return s.Net.Router(c) }

// Summary aggregates network-wide counters.
type Summary struct {
	TCDelivered    int64
	TCMisses       int64
	TCDrops        int64
	TCCorrupt      int64 // checksum + framing drops at inputs (Integrity)
	BEDelivered    int64
	BENacks        int64 // corrupted best-effort flits nacked upstream
	BERetransmits  int64 // best-effort flits resent after a nack
	BEAborts       int64 // best-effort frames abandoned (retry budget or dead link)
	TCLatency      stats.Hist
	BELatency      stats.Hist
	SchedulerPeak  int
	CutThroughs    int64
	StageReplaced  int64
	BusUtilization float64 // granted chunks per cycle, network-wide mean
}

// ResetStats zeroes every router's hardware counters and every sink's
// latency statistics, the warmup idiom: run the network to steady
// state, reset, then measure.
func (s *System) ResetStats() {
	for _, c := range s.Net.Coords() {
		s.Net.Router(c).ResetStats()
		s.snks[c].Reset()
	}
	// The collector resets through each router's OnReset chain above;
	// the SLO tracker has no per-router hook and resets here.
	if s.SLO != nil {
		s.SLO.Reset()
	}
}

// Summarize collects a network-wide summary.
func (s *System) Summarize() Summary {
	var sum Summary
	cycles := s.Net.Now()
	var grants int64
	for _, c := range s.Net.Coords() {
		r := s.Net.Router(c)
		st := r.Stats
		sum.TCDelivered += st.TCDelivered
		sum.TCMisses += st.TCDeadlineMisses
		sum.TCDrops += st.TCDropsNoSlot + st.TCDropsNoRoute + st.TCDropsStaging + st.TCDeadPortDrops +
			st.TCCorruptDrops + st.TCFramingDrops
		sum.TCCorrupt += st.TCCorruptDrops + st.TCFramingDrops
		sum.BEDelivered += st.BEDelivered
		sum.BENacks += st.BEFlitNacks
		sum.BERetransmits += st.BEFlitRetransmits
		sum.BEAborts += st.BEFrameAborts + st.BETruncated
		sum.CutThroughs += st.TCCutThroughs
		sum.StageReplaced += st.TCStageReplaced
		grants += st.BusGrants
		if occ := r.Scheduler().Occupancy(); occ > sum.SchedulerPeak {
			sum.SchedulerPeak = occ
		}
		snk := s.snks[c]
		snk.TCLatency.CopyInto(&sum.TCLatency)
		snk.BELatency.CopyInto(&sum.BELatency)
	}
	if cycles > 0 && len(s.Net.Coords()) > 0 {
		sum.BusUtilization = float64(grants) / float64(cycles) / float64(len(s.Net.Coords()))
	}
	return sum
}
