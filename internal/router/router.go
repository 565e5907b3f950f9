package router

import (
	"fmt"
	"math/bits"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/timing"
)

// DeliveredTC is a time-constrained packet handed to the local processor
// by the reception port.
type DeliveredTC struct {
	Conn    uint8 // connection identifier programmed for local delivery
	Stamp   uint8 // local deadline stamp carried in the header
	Payload [packet.TCPayloadBytes]byte
	Cycle   int64
}

// DeliveredBE is a best-effort packet handed to the local processor.
type DeliveredBE struct {
	Payload []byte
	Cycle   int64
}

// TCTransmitEvent describes one time-constrained packet transmission,
// reported through Router.OnTCTransmit for per-connection accounting
// (Figure 7 style service curves).
type TCTransmitEvent struct {
	Router  string
	Port    int
	InConn  uint8
	OutConn uint8
	Class   sched.Class
	Cycle   int64
	Missed  bool
	Wait    int64 // cycles from leaf install to transmission start
}

// Stats aggregates the router's hardware counters.
type Stats struct {
	TCArrived        int64 // packets written into the shared memory
	TCTransmitted    [NumPorts]int64
	TCDelivered      int64
	TCDeadlineMisses int64
	TCCutThroughs    int64
	TCStageReplaced  int64
	TCDropsNoSlot    int64 // idle-address FIFO empty (reservation violated)
	TCDropsNoRoute   int64 // no valid connection-table entry
	TCDropsStaging   int64 // input staging overrun
	TCDeadPortDrops  int64 // packet routed to an unwired link

	TCCorruptDrops int64 // frame-checksum failures at an input (Integrity)
	TCFramingDrops int64 // assemblies that lost framing (missing or stray phit)

	BEBytes          [NumPorts]int64
	BEPacketsSent    [NumPorts]int64
	BEDelivered      int64
	BEMisroutes      int64
	BEMalformed      int64
	BEBufferOverruns int64
	BETruncated      int64 // frames abandoned at the router feeding a failed link

	BEFlitNacks       int64 // corrupted flits nacked upstream (Integrity)
	BEFlitRetransmits int64 // flits resent after a nack (Integrity)
	BEFrameAborts     int64 // frames abandoned after retry-budget exhaustion

	BusGrants int64
}

// Router is one real-time router chip. It implements sim.Component; wire
// its mesh links with ConnectIn/ConnectOut (or the mesh package) before
// running the kernel.
type Router struct {
	// What a router at rest touches every cycle — its own short Tick and
	// the node's sink asking HasDeliveries — comes first and together:
	// a sparse mesh ticks a thousand resting routers a cycle, and each
	// cache line they are spread over is a miss apiece.

	// rest is the rest state the last full Tick left the router in (see
	// restState); while it is not busy and the link wires stay clear,
	// Tick leaves out what provably cannot change state. Cleared by
	// injections, rewiring and EnableBlame.
	rest restState
	// prevSlot/slotSeen detect slot-clock rollovers.
	slotSeen bool
	// stampBuf backs stamps (below) while every attached link is one
	// cycle long. It sits among the words every Tick of this router
	// touches, so a neighbour's Pipe.Write storing into it lands on a
	// line that is in cache anyway.
	stampBuf [numWires * 2]uint16
	prevSlot timing.Stamp

	nowCycle       int64
	schedCountdown int
	schedRR        int

	// stamps mirrors the arrival stamps (their low 16 bits) of the eight
	// inbound wires — the phit wire of each input link, then the ack wire
	// of each output link — one ring of stampMask+1 cycles per wire, lent
	// to the wires' pipes (lendStamps). inputsClear reads these words of
	// the router's own memory instead of chasing link → channel → pipe →
	// slot eight times a cycle.
	stamps    []uint16
	stampMask int64

	// idleTicks and parkedTicks count the cycles spent in the two rest
	// states.
	idleTicks   int64
	parkedTicks int64

	// met is the attached telemetry block (nil = telemetry off); see
	// AttachMetrics.
	met   *metrics.RouterMetrics
	wheel timing.Wheel

	// schedSkip caches the scheduler's IdleSkipper view; non-nil is a
	// precondition for the quiescence fast-forward (Skip).
	schedSkip sched.IdleSkipper

	// Delivery queues are double-buffered: Drain returns the filled
	// buffer and installs the spare, so steady-state delivery never
	// allocates once both buffers have grown to the working set.
	tcDelivered  []DeliveredTC
	beDelivered  []DeliveredBE
	tcDrainSpare []DeliveredTC
	beDrainSpare []DeliveredBE

	cfg  Config
	name string

	in  [NumLinks]*InLink
	out [NumLinks]*OutLink

	table    []ConnEntry
	ctl      controlIface
	horizons [NumPorts]uint32

	mem    *packetMemory
	schedq sched.Scheduler
	bus    memBus

	tcIn  [NumPorts]*tcInput
	tcOut [NumPorts]*tcOutput
	beIn  [NumPorts]*beInput
	beOut [NumPorts]*beOutput
	// beWaiting[q] has bit i set exactly while beIn[i] holds a parsed
	// header routed to output q and is neither bound nor dropping — the
	// inputs beOut[q].bind chooses among.
	beWaiting [NumPorts]uint8
	// The port masks below let a busy Tick visit only the ports that hold
	// work: bit p stands for port p's engine, each loop walks its mask in
	// ascending port order, and checkIndexes (index_test.go) compares every
	// mask with the engine flags after every cycle of the index tests.
	//
	// tcStaged has bit p set exactly while tcIn[p].nPending > 0, tcCand
	// exactly while tcOut[p].candValid: together the ports the launch
	// loop visits.
	tcStaged, tcCand uint8
	// beDropping has bit p set exactly while beIn[p].dropping: the inputs
	// arbitrate drains a discarded frame from.
	beDropping uint8
	// beOwed covers the link inputs that owe a credit or a nack upstream
	// (consumed > 0 || nackPending). One-sided: the flag implies the bit,
	// and the acknowledge loop clears a bit once it finds nothing owed.
	beOwed uint8
	// beUnparsed covers the inputs whose buffer may hold an unparsed
	// header (!parsed && occ() ≥ BEHeaderBytes). One-sided: set by a byte
	// pushed while no header is parsed and by a frame's tail pop, cleared
	// by the parse loop's visit.
	beUnparsed uint8

	// tcInjectQ is a head-indexed queue: popped entries advance tcInjHead
	// instead of reslicing, so the backing array is reused rather than
	// regrown in the injection hot path.
	tcInjectQ [][packet.TCBytes]byte
	tcInjHead int

	// beFree recycles fully injected best-effort frames back to local
	// sources (BEFrameBuf), bounding frame allocation per packet.
	beFree [][]byte

	// blame is the slack-attribution bank (nil = forensics off); see
	// blame.go and EnableBlame.
	blame *blameBank

	// Stats exposes the hardware counters; read-only for callers.
	Stats Stats
	// OnTCTransmit, if set, is invoked at the start of every
	// time-constrained packet transmission.
	OnTCTransmit func(TCTransmitEvent)
	// OnBETransmit, if set, is invoked for every best-effort flit sent.
	OnBETransmit func(port int, cycle int64)
	// OnLifecycle, if set, observes every packet-level lifecycle event
	// (inject, enqueue, arbitration win, transmit, cut-through, block,
	// drop, deliver); obs.Sharded.Attach installs the standard recorder.
	OnLifecycle func(LifecycleEvent)
	// OnReset, if set, is invoked by ResetStats so externally attached
	// state (collector shards) rotates together with the counters.
	OnReset func()
	// LinkFault, if set, intercepts every valid phit sampled from a mesh
	// input wire before the receive engines see it. The hook returns the
	// (possibly corrupted) phit to deliver, or ok=false to erase it
	// entirely (loss). Abort flits are never offered to the hook: they
	// are the recovery protocol itself. The hook runs inside this
	// router's tick, so per-link injector state needs no locking under
	// the parallel kernel. Value in, value out keeps the sampling loop
	// allocation-free. See internal/fault.
	LinkFault func(port int, ph packet.Phit) (out packet.Phit, ok bool)

	// beArena backs the payloads of delivered best-effort packets:
	// chunked bump allocation instead of one heap allocation per
	// delivery. Double-buffered in step with the beDelivered queues, so
	// payloads stay valid until the DrainBE call after next.
	beArena      beArena
	beArenaSpare beArena
}

// New constructs a router with the given configuration. The name appears
// in traces and panics (conventionally the mesh coordinate).
func New(name string, cfg Config) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Router{
		cfg:      cfg,
		name:     name,
		wheel:    mustWheel(cfg.ClockBits),
		table:    make([]ConnEntry, cfg.Conns),
		mem:      newPacketMemory(cfg.Slots),
		schedq:   cfg.newScheduler(),
		horizons: cfg.Horizons,
		beFree:   make([][]byte, 0, beFreeCap),
	}
	r.stamps, r.stampMask = r.stampBuf[:], 1
	// The nack window scales with the link round trip: a corrupted flit
	// left 2·latency cycles before its nack reaches the sender, and at
	// one flit per cycle the history must cover that window plus slack.
	nackWin := 2 * cfg.linkLatency()
	for i := 0; i < NumPorts; i++ {
		r.tcIn[i] = &tcInput{r: r, id: i}
		r.tcOut[i] = &tcOutput{r: r, port: i}
		r.beIn[i] = &beInput{r: r, id: i, buf: make([]byte, 0, cfg.FlitBufBytes)}
		r.beOut[i] = &beOutput{
			r: r, port: i, curIn: -1, credits: cfg.FlitBufBytes,
			nackWin: nackWin, hist: make([]beHist, nackWin+2),
		}
	}
	r.schedSkip, _ = r.schedq.(sched.IdleSkipper)
	// Bus polling order mirrors the chip's ten port engines: five
	// receive engines then five transmit engines.
	for i := 0; i < NumPorts; i++ {
		r.tcIn[i].busLine = r.bus.attach(r.tcIn[i])
	}
	for i := 0; i < NumPorts; i++ {
		r.tcOut[i].busLine = r.bus.attach(r.tcOut[i])
	}
	return r, nil
}

func mustWheel(bits uint) timing.Wheel {
	w, err := timing.NewWheel(bits)
	if err != nil {
		panic(err)
	}
	return w
}

// MustNew is New for known-good configurations.
func MustNew(name string, cfg Config) *Router {
	r, err := New(name, cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Name implements sim.Component.
func (r *Router) Name() string { return r.name }

// Config returns the router's configuration.
func (r *Router) Config() Config { return r.cfg }

// Wheel returns the router's slot-clock wheel.
func (r *Router) Wheel() timing.Wheel { return r.wheel }

// Scheduler exposes the link scheduler for inspection in tests.
func (r *Router) Scheduler() sched.Scheduler { return r.schedq }

// FreeSlots returns the current idle-address FIFO depth.
func (r *Router) FreeSlots() int { return r.mem.freeSlots() }

// PortState summarizes one output port's pipeline for diagnostics.
type PortState struct {
	TxActive  bool
	Staged    bool
	Fetching  bool
	CandValid bool
	Cutting   bool
	CutIdx    int
}

// OutputState reports the transmit pipeline state of a port.
func (r *Router) OutputState(p int) PortState {
	o := r.tcOut[p]
	return PortState{
		TxActive:  o.txActive,
		Staged:    o.staged,
		Fetching:  o.fetching,
		CandValid: o.candValid,
		Cutting:   o.cutIn != nil,
		CutIdx:    o.cutIdx,
	}
}

// ResetStats zeroes the hardware counters — the standard simulator
// warmup idiom: run to steady state, reset, then measure. Attached
// telemetry resets with them (the metrics block, any scheduler
// counters, and — via OnReset — externally attached recorders such as
// collector shards), so warmup exclusion is consistent across every
// observation channel.
func (r *Router) ResetStats() {
	r.Stats = Stats{}
	r.bus.grants = 0
	r.resetBlame()
	r.met.Reset()
	if sr, ok := r.schedq.(interface{ ResetTelemetry() }); ok {
		sr.ResetTelemetry()
	}
	if r.OnReset != nil {
		r.OnReset()
	}
}

// ConnectIn attaches the receive side of a mesh link to input port p.
func (r *Router) ConnectIn(p int, l *InLink) {
	if p < 0 || p >= NumLinks {
		panic(fmt.Sprintf("router %s: ConnectIn(%d) out of link range", r.name, p))
	}
	if old := r.in[p]; old != nil {
		old.ch.data.MirrorStamps(nil)
	}
	r.in[p] = l
	r.rest = restBusy
	r.lendStamps()
}

// ConnectOut attaches the transmit side of a mesh link to output port p.
func (r *Router) ConnectOut(p int, l *OutLink) {
	if p < 0 || p >= NumLinks {
		panic(fmt.Sprintf("router %s: ConnectOut(%d) out of link range", r.name, p))
	}
	if old := r.out[p]; old != nil {
		old.ch.ack.MirrorStamps(nil)
	}
	r.out[p] = l
	r.rest = restBusy
	r.lendStamps()
}

// numWires counts a router's inbound wires: a phit wire per input link
// and an ack wire per output link.
const numWires = 2 * NumLinks

// inbound returns the delay line of inbound wire w, or nil while that
// link is unattached.
func (r *Router) inbound(w int) inbound {
	if w < NumLinks {
		if l := r.in[w]; l != nil {
			return l.ch.data
		}
	} else if l := r.out[w-NumLinks]; l != nil {
		return l.ch.ack
	}
	return nil
}

// lendStamps hands every attached inbound wire its row of the stamp
// block, first growing the rows to the deepest attached ring.
func (r *Router) lendStamps() {
	size := int(r.stampMask) + 1
	for w := 0; w < numWires; w++ {
		if p := r.inbound(w); p != nil && p.Ring() > size {
			size = p.Ring()
		}
	}
	if size*numWires > len(r.stamps) {
		r.stamps, r.stampMask = make([]uint16, size*numWires), int64(size-1)
	}
	clear(r.stamps)
	for w := 0; w < numWires; w++ {
		if p := r.inbound(w); p != nil {
			p.MirrorStamps(r.stamps[w*size : (w+1)*size])
		}
	}
}

// InjectTC queues one time-constrained packet at the injection port. The
// header stamp must carry the connection's logical arrival time ℓ0(m) on
// the network slot clock.
func (r *Router) InjectTC(p packet.TCPacket) {
	r.rest = restBusy
	if r.tcInjHead > 0 && len(r.tcInjectQ) == cap(r.tcInjectQ) {
		// Reclaim the consumed head space instead of growing.
		n := copy(r.tcInjectQ, r.tcInjectQ[r.tcInjHead:])
		r.tcInjectQ = r.tcInjectQ[:n]
		r.tcInjHead = 0
	}
	r.tcInjectQ = append(r.tcInjectQ, packet.EncodeTC(p))
	if r.met != nil {
		r.met.TCInjected.Inc()
	}
	if r.OnLifecycle != nil {
		l := r.wheel.Wrap(timing.Slot(p.Stamp))
		r.lifecycle(LifecycleEvent{
			Kind: EvInject, Port: -1, InConn: p.Conn,
			Stamp: l, Slack: r.wheel.SignedDiff(l, r.slotNow(r.nowCycle)),
		})
	}
}

// InjectBE queues one encoded best-effort packet (see packet.NewBE) at
// the injection port.
func (r *Router) InjectBE(frame []byte) {
	if len(frame) < packet.BEHeaderBytes {
		panic(fmt.Sprintf("router %s: InjectBE frame of %d bytes", r.name, len(frame)))
	}
	r.rest = restBusy
	r.beIn[PortLocal].inject(frame)
}

// BEFrameBuf returns a zero-length recycled frame buffer (or nil when
// none is pooled) for use with packet.AppendBE. The router takes frames
// back after they fully cross the injection port, so a steady-state
// source alternates between a handful of buffers instead of allocating
// one per packet.
func (r *Router) BEFrameBuf() []byte {
	if n := len(r.beFree); n > 0 {
		b := r.beFree[n-1]
		r.beFree[n-1] = nil
		r.beFree = r.beFree[:n-1]
		return b[:0]
	}
	return nil
}

// beFreeCap bounds the recycled-frame pool; sources queue at most a few
// frames ahead of the injection port.
const beFreeCap = 8

func (r *Router) recycleBEFrame(frame []byte) {
	if len(r.beFree) < beFreeCap {
		r.beFree = append(r.beFree, frame)
	}
}

// BEInjectBacklog returns the number of best-effort frames queued
// behind the injection port, including the frame currently streaming
// across it. Sources use it to hold injection when the port is
// congested, which keeps the set of frame buffers in circulation
// bounded (and the BEFrameBuf pool warm).
func (r *Router) BEInjectBacklog() int {
	u := r.beIn[PortLocal]
	return len(u.injQ) - u.injHead
}

// TCInjectBacklog returns the number of packets queued at the
// time-constrained injection port.
func (r *Router) TCInjectBacklog() int {
	n := len(r.tcInjectQ) - r.tcInjHead
	if r.tcIn[PortLocal].injCount > 0 {
		n++
	}
	return n
}

// DrainTC returns and clears the packets delivered to the local
// processor since the last call. The returned slice is reused by the
// call after next — iterate or copy it before draining again.
func (r *Router) DrainTC() []DeliveredTC {
	d := r.tcDelivered
	r.tcDelivered = r.tcDrainSpare[:0]
	r.tcDrainSpare = d
	return d
}

// DrainBE returns and clears the best-effort deliveries. The returned
// slice — including the per-delivery Payload buffers, which live in a
// recycled arena — is reused by the call after next; iterate or copy
// before draining again.
func (r *Router) DrainBE() []DeliveredBE {
	d := r.beDelivered
	r.beDelivered = r.beDrainSpare[:0]
	r.beDrainSpare = d
	// The spare arena holds payloads from two drains ago (out of
	// contract); recycle it for the deliveries now starting to accrue.
	r.beArenaSpare.reset()
	r.beArena, r.beArenaSpare = r.beArenaSpare, r.beArena
	return d
}

// slotNow maps a cycle to this router's wrapped slot clock — global
// time plus the configured skew. The clock ticks once per packet
// transmission time (Section 4.2).
func (r *Router) slotNow(now int64) timing.Stamp {
	local := now + r.cfg.SkewCycles
	if local < 0 {
		local = 0
	}
	return r.wheel.Wrap(timing.CyclesToSlot(local, packet.TCBytes))
}

// SlotNow exposes the current slot stamp for traffic sources, which need
// the same clock the routers use (the bounded-skew assumption of
// Section 4.1: here skew is exactly zero).
func (r *Router) SlotNow(now int64) timing.Stamp { return r.slotNow(now) }

// restState summarizes what a router holds between two cycles, which
// decides how much of the next Tick can be left out while the link wires
// stay clear. The end of every full Tick records it.
type restState uint8

const (
	// restBusy: some engine holds work (or the state is unknown — after
	// an injection or a rewiring). The next Tick runs in full.
	restBusy restState = iota
	// restParked: every engine is idle (enginesIdle), forensics is off
	// and the tick took nothing off a wire, but packets sit in the packet
	// memory as scheduler leaves, held until their logical arrival time
	// (atRest). Output arbitration has
	// nothing to move, so the next Tick runs the countdown and the real
	// comparator-tree beat alone, and the rest of the cycle only if that
	// beat produced a candidate to fetch.
	restParked
	// restIdle: every engine idle, the packet memory free, no leaf
	// installed. The next Tick is the countdown and an empty-tree beat,
	// and the kernel may skip the router altogether (NextWork, Skip).
	restIdle
)

// Tick implements sim.Component. Phase order inside the chip:
//
//  1. output arbitration drives this cycle's phits from last cycle's
//     state (giving each hop its pipeline latency),
//  2. a comparator-tree beat refreshes one port's candidate,
//  3. fetch/write launches and one memory-bus chunk transfer,
//  4. inputs sample the link wires, and
//  5. acknowledgements return flit credits upstream.
//
// A router at rest whose wires are clear leaves out the phases that
// provably change nothing: phase 1 when parked, and phases 3–5 too unless
// the parked beat made a candidate; all but the countdown and an
// empty-tree beat when idle (see restState). A busy tick visits only the
// ports that hold work: the launch, acknowledge and parse loops walk port
// masks (tcStaged|tcCand, beOwed, beUnparsed) in ascending port order,
// arbitrate drains a dropped frame only where beDropping marks one, and
// sampleInputs reads a wire only when its stamp row matches the cycle.
func (r *Router) Tick(now sim.Cycle) {
	nowSlot := r.slotNow(int64(now))
	rest := r.rest
	if rest != restBusy && !r.inputsClear(int64(now)) {
		rest = restBusy
	}
	r.nowCycle = int64(now)

	// The wrapped slot clock only moves forward, so a numerically
	// smaller stamp than last cycle's means the register rolled over.
	if nowSlot < r.prevSlot && r.slotSeen && r.met != nil {
		r.met.SlotRollovers.Inc()
	}
	r.prevSlot, r.slotSeen = nowSlot, true

	if rest == restBusy {
		for p := 0; p < NumPorts; p++ {
			r.arbitrate(p, nowSlot)
		}
	}

	candidate := false
	r.schedCountdown--
	if r.schedCountdown <= 0 {
		// Leaf sharing (§5.1) serializes each module's packets through
		// one comparator: selections come LeafSharing times slower.
		r.schedCountdown = r.cfg.SchedPeriod * r.cfg.LeafSharing
		if rest == restIdle && r.schedSkip != nil {
			r.idleBeats(1)
		} else {
			candidate = r.schedBeat(nowSlot)
		}
	}

	switch {
	case rest == restIdle:
		r.idleTicks++
		return
	case rest == restParked && !candidate:
		r.parkedTicks++
		return
	}

	// Neither launch changes what the other reads, so one pass over the
	// ports with a staged packet or a candidate, write before fetch at
	// each, is the order a pass over all five would take.
	staged, cand := r.tcStaged, r.tcCand
	for m := staged | cand; m != 0; m &= m - 1 {
		p := bits.TrailingZeros8(m)
		if staged&(1<<p) != 0 {
			r.tcIn[p].launchWrite()
		}
		if cand&(1<<p) != 0 {
			r.tcOut[p].launchFetch()
		}
	}
	r.bus.tick()
	r.Stats.BusGrants = r.bus.grants

	arrived := r.sampleInputs()

	for m := r.beOwed; m != 0; m &= m - 1 {
		p := bits.TrailingZeros8(m)
		if r.in[p] == nil {
			continue // the debt stands until the link is back
		}
		u := r.beIn[p]
		var a packet.Ack
		if u.consumed > 0 {
			a.BECredit = true
			u.consumed--
			if r.met != nil {
				r.met.BEFlitAcks.Inc()
			}
		}
		if u.nackPending {
			a.BENack = true
			u.nackPending = false
		}
		if a.BECredit || a.BENack {
			r.in[p].DriveAck(r.nowCycle, a)
		}
		if u.consumed == 0 {
			r.beOwed &^= 1 << p
		}
	}

	r.rest = r.atRest(arrived)
}

// inputsClear reports that nothing arrived on the link wires this
// cycle: no valid phit to sample and no returning best-effort credit.
// Together with the recorded rest state this licenses the short ticks.
// The stamp block answers for a quiet wire; a stamp that matches the
// cycle — an arrival, or sixteen stale or never-written bits that happen
// to agree with it — is settled by the precise read.
func (r *Router) inputsClear(now int64) bool {
	i, size := now&r.stampMask, r.stampMask+1
	for w := 0; w < numWires; w, i = w+1, i+size {
		if r.stamps[i] != uint16(now) {
			continue
		}
		if w < NumLinks {
			if l := r.in[w]; l != nil && l.Phit(now).Valid {
				return false
			}
		} else if l := r.out[w-NumLinks]; l != nil {
			if a := l.Ack(now); a.BECredit || a.BENack {
				return false
			}
		}
	}
	return true
}

// atRest computes the rest state after a full Tick; arrived says the
// tick took something off a wire. Going idle is judged exactly — IdleTicks
// is a count other runs are compared by — but parking a tick late costs
// nothing, so a router that holds packets skips the engine scan on the
// cheap signs that it cannot pass: an arrival this very cycle, which on a
// loaded mesh is nearly every cycle. Forensics runs never park: blameIdle
// attributes a horizon hold to every port-cycle a held packet waits,
// which the parked tick would leave out.
func (r *Router) atRest(arrived bool) restState {
	held := r.mem.freeSlots() != r.cfg.Slots || r.schedq.Occupancy() != 0
	if held && (arrived || r.blame != nil) || !r.enginesIdle() {
		return restBusy
	}
	if held {
		return restParked
	}
	return restIdle
}

// enginesIdle reports that every receive and transmit engine is empty
// and both injection queues are drained: nothing is being assembled,
// written, fetched, staged, transmitted or cut through, and no
// best-effort byte, credit, nack or recovery flit is owed. Packets may
// still sit in the packet memory behind scheduler leaves.
func (r *Router) enginesIdle() bool {
	if r.tcInjHead != len(r.tcInjectQ) {
		return false
	}
	for p := 0; p < NumPorts; p++ {
		ti := r.tcIn[p]
		if ti.nAsm != 0 || ti.nPending != 0 || ti.wActive || ti.injCount != 0 ||
			ti.cutting || ti.cutHead != len(ti.cutFIFO) {
			return false
		}
		to := r.tcOut[p]
		if to.txActive || to.staged || to.fetching || to.candValid || to.cutIn != nil {
			return false
		}
		bi := r.beIn[p]
		if bi.parsed || bi.occ() != 0 || bi.consumed != 0 || bi.injHead != len(bi.injQ) ||
			bi.discard || bi.nackPending {
			return false
		}
		bo := r.beOut[p]
		if bo.curIn >= 0 || bo.wasStalled || bo.abortPending || bo.replayHead != len(bo.replay) {
			return false
		}
	}
	return true
}

// IdleTicks reports how many cycles this router has spent idle — no
// packet anywhere in it, the tick (or the kernel's skip) reduced to the
// countdown — a diagnostic for tests and benchmarks, not a hardware
// counter.
func (r *Router) IdleTicks() int64 { return r.idleTicks }

// ParkedTicks reports how many cycles this router has spent parked:
// holding packets until their logical arrival time with every engine
// idle, the tick reduced to the comparator-tree beat. A diagnostic like
// IdleTicks.
func (r *Router) ParkedTicks() int64 { return r.parkedTicks }

// NextWork implements sim.Skipper. While the router is idle and
// its scheduler supports closed-form idle accounting, every future idle
// cycle's observable effects can be replayed in O(1), so the kernel may
// fast-forward arbitrarily far — arriving wire traffic is tracked
// separately, by the link pipes' stamps. A busy or parked router, or one
// whose scheduler lacks SkipIdleSelects, must tick every cycle.
func (r *Router) NextWork(now sim.Cycle) sim.Cycle {
	if r.rest != restIdle || r.schedSkip == nil {
		return now
	}
	return sim.Never
}

// Skip implements sim.Skipper: replay the idle ticks for cycles
// [now, target) in closed form, bit-identical to running the idle Tick
// target−now times. The replayed effects are exactly that tick's: slot
// rollover telemetry, the scheduler countdown with its empty-tree
// selection beats (idleBeats), and the idle-cycle counter.
func (r *Router) Skip(now, target sim.Cycle) {
	n := int64(target - now)
	if n <= 0 {
		return
	}
	last := int64(target) - 1

	// Slot-clock rollovers: the wrapped stamp decreases exactly when the
	// monotone slot count crosses a multiple of the wheel range. Idleness
	// implies a prior full Tick, so slotSeen holds and prevSlot covers
	// cycle now−1.
	if r.met != nil {
		rng := int64(r.wheel.Range())
		if roll := r.unwrappedSlot(last)/rng - r.unwrappedSlot(int64(now)-1)/rng; roll > 0 {
			r.met.SlotRollovers.Add(roll)
		}
	}
	r.prevSlot, r.slotSeen = r.slotNow(last), true

	// Scheduler beats: the countdown decrements every cycle and fires a
	// beat at zero. A prior Tick guarantees schedCountdown ∈ [1, period].
	period := int64(r.cfg.SchedPeriod * r.cfg.LeafSharing)
	if c0 := int64(r.schedCountdown); n >= c0 {
		beats := 1 + (n-c0)/period
		rem := n - (c0 + (beats-1)*period)
		r.schedCountdown = int(period - rem)
		r.idleBeats(beats)
	} else {
		r.schedCountdown = int(c0 - n)
	}

	r.idleTicks += n
	r.nowCycle = last
}

// idleBeats replays n ≥ 1 comparator-tree beats of an idle router in
// closed form: each advances the round-robin pointer by one port, runs
// one empty-tree selection (SkipIdleSelects is bit-identical to it) and
// refreshes the occupancy gauge, idempotent at zero occupancy. Requires
// schedSkip.
func (r *Router) idleBeats(n int64) {
	r.schedRR = (r.schedRR%NumPorts+int((n-1)%int64(NumPorts)))%NumPorts + 1
	r.schedSkip.SkipIdleSelects(n)
	if r.met != nil {
		r.met.SchedSelects.Add(n)
		r.noteSchedOccupancy()
	}
}

// unwrappedSlot is slotNow before wrapping: the monotone slot count
// used to tally rollovers across a skipped span.
func (r *Router) unwrappedSlot(now int64) int64 {
	local := now + r.cfg.SkewCycles
	if local < 0 {
		local = 0
	}
	return int64(timing.CyclesToSlot(local, packet.TCBytes))
}

// HasDeliveries reports whether any delivered packets await DrainTC or
// DrainBE, letting sinks skip the drain entirely on idle cycles.
func (r *Router) HasDeliveries() bool {
	return len(r.tcDelivered) > 0 || len(r.beDelivered) > 0
}

// schedBeat runs one comparator-tree selection for the next port in
// round-robin order, modelling the shared, pipelined tree's throughput
// of one result per SchedPeriod cycles. It reports whether the port it
// served holds a candidate afterwards — on a parked router, whether this
// beat woke it.
func (r *Router) schedBeat(nowSlot timing.Stamp) bool {
	for i := 0; i < NumPorts; i++ {
		p := (r.schedRR + i) % NumPorts
		o := r.tcOut[p]
		if o.cutIn != nil || o.fetching || (o.txActive && o.staged) {
			continue
		}
		r.schedRR = p + 1
		o.schedule(nowSlot)
		if r.met != nil {
			r.met.SchedSelects.Inc()
			r.noteSchedOccupancy()
		}
		return o.candValid
	}
	return false
}

// arbitrate resolves one output port for one cycle: continue an active
// time-constrained burst; else start an on-time packet; else send a
// best-effort flit; else start an early packet within the horizon
// (Table 1 service order with byte-level preemption of best-effort
// traffic).
func (r *Router) arbitrate(p int, nowSlot timing.Stamp) {
	o := r.tcOut[p]
	if p != PortLocal && r.out[p] == nil {
		r.drainDeadPort(o)
		r.beOut[p].drainDeadBE()
		if r.beDropping&(1<<p) != 0 {
			r.beIn[p].drainDropped()
		}
		if r.blame != nil {
			r.blameClose(p)
		}
		return
	}
	if r.beDropping&(1<<p) != 0 {
		r.beIn[p].drainDropped()
	}

	if o.txActive {
		r.emitTC(o)
		if r.blame != nil {
			r.blameArbWin(p, nowSlot, o.txConn)
		}
		return
	}
	if o.cutIn != nil && o.cutIdx > 0 {
		cutConn := o.cutLeaf.InConn
		if r.emitCut(o) {
			if r.blame != nil {
				r.blameArbWin(p, nowSlot, cutConn)
			}
		} else if r.blame != nil {
			// Cut-through bubble: the arrival stream has not caught up
			// with the rewritten header, so the wire itself is the
			// bottleneck.
			r.blameNoteTC(p, cutConn, CauseLinkBusy, 0)
		}
		return
	}

	class := sched.ClassNone
	if o.staged {
		class = o.stagedClass(nowSlot)
	}
	cutClass := sched.ClassNone
	if o.cutIn != nil {
		cutClass = o.cutClass
		if cutClass == sched.ClassEarly && r.wheel.OnTime(o.cutLeaf.L, nowSlot) {
			cutClass = sched.ClassOnTime
			o.cutClass = cutClass
		}
	}
	be := r.beOut[p]

	switch {
	case class == sched.ClassOnTime:
		o.startTx(nowSlot, class)
		r.emitTC(o)
		if r.blame != nil {
			r.blameArbWin(p, nowSlot, o.txConn)
		}
	case cutClass == sched.ClassOnTime:
		cutConn := o.cutLeaf.InConn
		r.emitCut(o)
		if r.blame != nil {
			r.blameArbWin(p, nowSlot, cutConn)
		}
	case be.hasFaultWork():
		be.sendFaultFlit()
		be.wasStalled = false
		if r.blame != nil {
			r.blameIdle(p, nowSlot, beSentFault)
		}
	case be.canSend():
		be.sendByte()
		be.wasStalled = false
		if r.blame != nil {
			r.blameIdle(p, nowSlot, beSentData)
		}
	case class == sched.ClassEarly:
		o.startTx(nowSlot, class)
		r.emitTC(o)
		if r.blame != nil {
			r.blameArbWin(p, nowSlot, o.txConn)
		}
	case cutClass == sched.ClassEarly:
		cutConn := o.cutLeaf.InConn
		r.emitCut(o)
		if r.blame != nil {
			r.blameArbWin(p, nowSlot, cutConn)
		}
	default:
		// The port idles this cycle. If a best-effort flit is waiting
		// but the downstream buffer owes no credit, that is a
		// backpressure stall worth counting (and tracing once per
		// episode): the link is free, the flit is not.
		if stalled := be.stalled(); stalled {
			if r.met != nil {
				r.met.BEStallCycles[p].Inc()
			}
			if !be.wasStalled && r.OnLifecycle != nil {
				r.lifecycle(LifecycleEvent{Kind: EvBlock, Port: p, BE: true})
			}
			be.wasStalled = true
			if r.blame != nil {
				r.blameNoteBE(p)
			}
		} else {
			be.wasStalled = false
		}
		if r.blame != nil {
			r.blameIdle(p, nowSlot, beSentNone)
		}
	}
}

// drainDeadPort discards time-constrained packets scheduled to a port
// with no attached link (a misconfiguration admission prevents).
func (r *Router) drainDeadPort(o *tcOutput) {
	if !o.staged {
		return
	}
	empty, err := r.schedq.ClearPort(o.sSlot, o.port)
	if err == nil && empty {
		r.mem.free(o.sSlot)
		r.noteMemOccupancy()
	}
	o.staged = false
	r.Stats.TCDeadPortDrops++
	r.dropTC(metrics.DropTCDeadPort, o.sLeaf.InConn, o.port)
}

// emitTC sends the next byte of the active transmission.
func (r *Router) emitTC(o *tcOutput) {
	b, head, tail := o.emitByte()
	if o.port == PortLocal {
		o.rxBuf[o.txIdx-1] = b
		if tail {
			r.deliverLocalTC(o.rxBuf)
		}
		return
	}
	ph := packet.Phit{Valid: true, VC: packet.VCTime, Data: b, Head: head, Tail: tail}
	if tail && r.cfg.Integrity {
		// The frame checksum rides the tail phit's sideband.
		ph.SideValid = true
		ph.Side = o.txCRC
	}
	r.out[o.port].Drive(r.nowCycle, ph)
}

// emitCut sends the next byte of a virtual cut-through stream; header
// bytes come rewritten, payload bytes from the input's skew FIFO. It
// reports whether a byte actually went out (false on a skew bubble).
func (r *Router) emitCut(o *tcOutput) bool {
	var b byte
	if o.cutIdx < packet.TCHeaderBytes {
		b = o.cutHdr[o.cutIdx]
	} else {
		u := o.cutIn
		if u.cutHead == len(u.cutFIFO) {
			return false // bubble: arrival stream has not caught up
		}
		b = u.cutFIFO[u.cutHead]
		u.cutHead++
		if u.cutHead == len(u.cutFIFO) {
			u.cutFIFO = u.cutFIFO[:0]
			u.cutHead = 0
		}
	}
	head := o.cutIdx == 0
	if head {
		r.Stats.TCTransmitted[o.port]++
		if r.met != nil {
			r.met.ArbWins[o.port][arbClass(o.cutClass)].Inc()
		}
		if r.OnTCTransmit != nil {
			r.OnTCTransmit(TCTransmitEvent{
				Router: r.name, Port: o.port,
				InConn: o.cutLeaf.InConn, OutConn: o.cutLeaf.OutConn,
				Class: o.cutClass, Cycle: r.nowCycle,
			})
		}
		if r.OnLifecycle != nil {
			ev := LifecycleEvent{
				Port: o.port, InConn: o.cutLeaf.InConn, OutConn: o.cutLeaf.OutConn,
				Class: o.cutClass,
				Stamp: o.cutLeaf.Dl,
				Slack: r.wheel.SignedDiff(o.cutLeaf.Dl, r.slotNow(r.nowCycle)),
			}
			ev.Kind = EvArbWin
			r.lifecycle(ev)
			ev.Kind = EvTransmit
			r.lifecycle(ev)
		}
	}
	tail := o.cutIdx == packet.TCBytes-1
	if o.port == PortLocal {
		o.rxBuf[o.cutIdx] = b
		o.cutIdx++
		if tail {
			r.deliverLocalTC(o.rxBuf)
			o.cutIn = nil
		}
		return true
	}
	o.cutIdx++
	r.out[o.port].Drive(r.nowCycle, packet.Phit{Valid: true, VC: packet.VCTime, Data: b, Head: head, Tail: tail})
	if tail {
		o.cutIn = nil
	}
	return true
}

func (r *Router) deliverLocalTC(buf [packet.TCBytes]byte) {
	p := packet.DecodeTC(buf)
	r.tcDelivered = append(r.tcDelivered, DeliveredTC{
		Conn: p.Conn, Stamp: p.Stamp, Payload: p.Payload, Cycle: r.nowCycle,
	})
	r.Stats.TCDelivered++
	if r.met != nil {
		r.met.TCDelivered.Inc()
	}
	if r.OnLifecycle != nil {
		// The last hop rewrote the header stamp to the delivery deadline
		// (busGrant writes StampOf(Dl)), so the slack here is the packet's
		// end-to-end margin against its reserved bound.
		dl := r.wheel.Wrap(timing.Slot(p.Stamp))
		r.lifecycle(LifecycleEvent{
			Kind: EvDeliver, Port: -1, InConn: p.Conn,
			Stamp: dl, Slack: r.wheel.SignedDiff(dl, r.slotNow(r.nowCycle)),
		})
	}
}

// sampleInputs reads the link wires and injection queues. It reports
// whether a wire carried anything this cycle: a valid phit (even one a
// fault then erased) or an acknowledgement. A wire is read only when its
// row of the stamp block matches the cycle — a quiet wire yields the zero
// Phit or Ack without the link → channel → pipe → slot chase — and a
// match, true or stale, is settled by the precise read, as in inputsClear.
func (r *Router) sampleInputs() (arrived bool) {
	now := r.nowCycle
	i, size := now&r.stampMask, r.stampMask+1
	for p := 0; p < NumLinks; p, i = p+1, i+size {
		if r.in[p] == nil {
			// A failed upstream link can never complete an in-progress
			// packet: flush the fragment so it releases its output.
			if u := r.beIn[p]; u.parsed || u.occ() > 0 || u.discard {
				u.truncate()
			}
			if tu := r.tcIn[p]; r.cfg.Integrity && tu.nAsm > 0 {
				tu.framingDrop()
				tu.resync = true
			}
		}
		if r.in[p] != nil {
			var ph packet.Phit
			if r.stamps[i] == uint16(now) {
				ph = r.in[p].Phit(now)
			}
			arrived = arrived || ph.Valid
			if ph.Valid && r.LinkFault != nil && !ph.Abort {
				var ok bool
				if ph, ok = r.LinkFault(p, ph); !ok {
					ph = packet.Phit{}
				}
			}
			if tu := r.tcIn[p]; r.cfg.Integrity && tu.nAsm > 0 &&
				(!ph.Valid || ph.VC != packet.VCTime) {
				// Time-constrained frames are contiguous on the wire
				// (cut-through is off under Integrity), so any gap
				// mid-assembly means a phit was lost.
				tu.framingDrop()
				tu.resync = true
			}
			if ph.Valid {
				switch ph.VC {
				case packet.VCTime:
					r.tcIn[p].acceptWire(ph, now)
				case packet.VCBest:
					u := r.beIn[p]
					switch {
					case ph.Abort:
						u.abortRecv()
					case r.cfg.Integrity:
						u.acceptWireBE(ph)
					default:
						u.acceptByte(ph.Data)
					}
				}
			}
		}
		if r.out[p] != nil && r.stamps[i+NumLinks*size] == uint16(now) {
			a := r.out[p].Ack(now)
			arrived = arrived || a.BECredit || a.BENack
			if a.BECredit {
				be := r.beOut[p]
				if be.credits < r.cfg.FlitBufBytes {
					be.credits++
				}
			}
			if a.BENack {
				r.beOut[p].handleNack(now)
			}
		}
	}
	r.feedTCInjection()
	r.beIn[PortLocal].feedInjection()
	for m := r.beUnparsed; m != 0; m &= m - 1 {
		r.beIn[bits.TrailingZeros8(m)].parse()
	}
	// A visited input is parsed now or short of a whole header: the next
	// push or tail pop raises its bit again.
	r.beUnparsed = 0
	return arrived
}

// feedTCInjection streams queued time-constrained packets across the
// injection port at one byte per cycle.
func (r *Router) feedTCInjection() {
	u := r.tcIn[PortLocal]
	if u.injCount == 0 {
		if r.tcInjHead == len(r.tcInjectQ) {
			return
		}
		u.injPkt = r.tcInjectQ[r.tcInjHead]
		r.tcInjHead++
		if r.tcInjHead == len(r.tcInjectQ) {
			r.tcInjectQ = r.tcInjectQ[:0]
			r.tcInjHead = 0
		}
		u.injCount = packet.TCBytes
	}
	idx := packet.TCBytes - u.injCount
	u.acceptByte(u.injPkt[idx], r.nowCycle)
	u.injCount--
	if r.blame != nil && r.tcInjHead < len(r.tcInjectQ) {
		// A queued packet waits behind the one streaming across the
		// injection port: the local link is the bottleneck. Byte 0 of an
		// encoded packet is its connection id.
		r.blameNoteAt(-1, r.tcInjectQ[r.tcInjHead][0], false, CauseLinkBusy, u.injPkt[0])
	}
}
