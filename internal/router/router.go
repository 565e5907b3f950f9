package router

import (
	"encoding/binary"
	"fmt"
	"math"
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
	// What an awake router at rest touches every cycle — its Tick that
	// is a Skip of one cycle and the kernel's NextWork — comes first and
	// together: each cache line it is spread over is a miss apiece.

	// rest is the rest state the last full Tick left the router in (see
	// restState); while it is not busy and the link wires stay clear, a
	// Tick with a closed-form beat is a Skip of the cycle, and the wake
	// lists may leave out the Tick. Cleared by wake: injections,
	// rewiring, horizon writes and EnableBlame.
	rest restState
	// stampBuf backs stamps (below) while every attached link is one
	// cycle long: two rows. It sits among the words every Tick of this
	// router touches, so a neighbour's Pipe.Write storing into it lands on
	// a line that is in cache anyway.
	stampBuf [2 * stampRow]byte

	nowCycle       int64
	schedCountdown int
	schedRR        int

	// alarm is the router's place on its wake list (SetAlarm),
	// lent to every inbound wire; delivered is the alarm of the sink that
	// drains the delivery queues (WakeOnDelivery). Both nil until a
	// kernel binds them. maxLat is the longest inbound wire's latency:
	// the cycles ahead in which a value may already be in flight.
	alarm, delivered *sim.Alarm
	maxLat           int64

	// stamps mirrors the arrival stamps (their low 16 bits) of the eight
	// inbound wires — the phit wire of each input link, then the ack wire
	// of each output link — in stampMask+1 rows, one per cycle modulo the
	// row count: cycle c's row is the stampRow bytes at (c&stampMask) ·
	// stampRow, and wire w's stamp the little-endian uint16 at byte 2w of
	// it. The wires' pipes write their lanes (lendStamps). inputsClear
	// reads one row of the router's own memory, two words, instead of
	// chasing link → channel → pipe → slot eight times a cycle.
	stamps    []byte
	stampMask int64

	// idleTicks and parkedTicks count the cycles spent in the two rest
	// states.
	idleTicks   int64
	parkedTicks int64

	// beats counts comparator-tree beats and schedLevel is the leaf level
	// the last one sampled. Every beat writes them, an idle router's too,
	// so they sit with the countdown.
	beats, schedLevel int64
	// quiet[p] is the absolute slot (absSlot) at which output port p's
	// quiet span ends — the slot the last Select found it quiet at plus
	// the selection's Quiet, quietForever for an endless span. Until then
	// a beat on the port is closed-form (schedBeat) and reads no engine.
	// An Install owing the port a leaf or a write of its horizon resets
	// it to 0 (forgetQuiet); a ClearPort only removes owed leaves, so it
	// cannot end a span early.
	quiet [NumPorts]int64

	wheel timing.Wheel

	// Delivery queues are double-buffered: Drain returns the filled
	// buffer and installs the spare, so steady-state delivery never
	// allocates once both buffers have grown to the working set.
	tcDelivered  []DeliveredTC
	beDelivered  []DeliveredBE
	tcDrainSpare []DeliveredTC
	beDrainSpare []DeliveredBE

	name string

	in  [NumLinks]*InLink
	out [NumLinks]*OutLink

	table    []ConnEntry
	ctl      controlIface
	horizons [NumPorts]uint32

	mem    *packetMemory
	schedq *sched.EDFTree
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
	// tcAsm has bit p set exactly while tcIn[p].nAsm > 0, tcTx exactly
	// while tcOut[p].txActive, tcOutStaged exactly while tcOut[p].staged
	// and tcCut exactly while tcOut[p].cutIn != nil. Each bit flips on the
	// transition only. atRest reads them (with the masks beside them)
	// before it scans the engines, and schedBeat's pass-over set is built
	// from them.
	tcAsm, tcTx, tcOutStaged, tcCut uint8
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
	// portWork covers the output ports whose arbitration can do anything:
	// a packet on the wire, staged or cutting through, a bound or waiting
	// best-effort input, a recovery flit owed, or a credit stall in
	// progress. One-sided: raised where a port gains such work from
	// outside its own arbitration, cleared only by arbitrate after a visit
	// that leaves the port with none — or with only a credit stall, which
	// it then sleeps through (stallSleep).
	portWork uint8
	// stallSleep has bit p set while port p sleeps through a credit stall:
	// its last visit left it with nothing but a bound input whose next
	// flit waits for a downstream credit, so every visit skipped since
	// would have counted one BEStallCycles cycle and changed nothing else.
	// stallFrom[p] is the first cycle not yet counted. A returning credit
	// or the bound input's frame being discarded raises the port's
	// portWork bit; the next visit adds the skipped cycles and clears the
	// bit (arbitrate), and counts adds the open episodes.
	stallSleep uint8
	stallFrom  [NumPorts]int64
	// portDead has bit p set exactly while link port p has no output
	// attached. ConnectOut raises the port's portWork bit as it dies, and
	// the visit drains it.
	portDead uint8

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
	// OnLifecycle, if set, observes every packet-level lifecycle event
	// (inject, enqueue, arbitration win, transmit, cut-through, block,
	// drop, deliver); obs.Sharded.Attach installs the standard recorder.
	// It is the router's one per-packet tap: EvTransmit reports every
	// time-constrained transmission start, from the packet memory and
	// cut-through alike. Observers chain: each one attached keeps and
	// calls the hook it found.
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

	// tally counts what Stats has no field for (see counts): injections,
	// early wins and memory-path starts per port, best-effort stalls and
	// acks, link-fault hits, the drops no Stats field counts, and the
	// packet-memory high-water. schedPeak is the largest leaf level a beat
	// sampled, and turnBase the slot clock's turn count (turns) at the last
	// ResetStats. memMoved records that a memory allocation or free
	// changed the occupancy level since the last FoldMetrics.
	tally     metrics.RouterCounts
	schedPeak int64
	turnBase  int64
	memMoved  bool

	// met is the attached telemetry (nil = telemetry off); see
	// AttachMetrics.
	met *metricsFold

	// cfg sits last: the hot fields above keep their offsets whatever
	// the configuration holds.
	cfg Config
}

// New constructs a router with the given configuration. The name appears
// in traces and panics (conventionally the mesh coordinate).
func New(name string, cfg Config) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	wheel := mustWheel(cfg.ClockBits)
	tree, err := sched.NewTree(cfg.Slots, wheel, cfg.Scheduler, cfg.ApproxShift)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:      cfg,
		name:     name,
		wheel:    wheel,
		table:    make([]ConnEntry, cfg.Conns),
		mem:      newPacketMemory(cfg.Slots),
		schedq:   tree,
		beFree:   make([][]byte, 0, beFreeCap),
		portDead: 1<<NumLinks - 1,
	}
	r.stamps, r.stampMask = r.stampBuf[:], 1
	// The nack window scales with the link round trip: a corrupted flit
	// left 2·latency cycles before its nack reaches the sender, and at
	// one flit per cycle the history must cover that window plus slack.
	nackWin := 2 * cfg.linkLatency()
	for i := 0; i < NumPorts; i++ {
		r.tcIn[i] = &tcInput{r: r, id: i}
		r.tcOut[i] = &tcOutput{r: r, port: i}
		r.beIn[i] = &beInput{r: r, id: i, buf: make([]byte, 0, FlitBufBytes)}
		r.beOut[i] = &beOutput{
			r: r, port: i, curIn: -1, credits: FlitBufBytes,
			nackWin: nackWin, hist: make([]beHist, nackWin+2),
		}
	}
	// Bus polling order mirrors the chip's ten port engines: five
	// receive engines then five transmit engines, whose fetch lines
	// schedBeat reads as bus.want >> NumPorts.
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

// Scheduler exposes the comparator tree's leaves for inspection.
func (r *Router) Scheduler() sched.Scheduler {
	r.alarm.Settle()
	return r.schedq
}

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
// telemetry resets with them (the tally, the fold base and the metrics
// block, any scheduler counters, and — via OnReset — externally
// attached recorders such as collector shards), so warmup exclusion is
// consistent across every observation channel.
func (r *Router) ResetStats() {
	r.alarm.Settle()
	r.Stats = Stats{}
	r.bus.grants = 0
	r.tally.Zero()
	r.beats, r.schedPeak, r.turnBase = 0, 0, r.turns(r.nowCycle)
	for m := r.stallSleep; m != 0; m &= m - 1 {
		r.stallFrom[bits.TrailingZeros8(m)] = r.nowCycle + 1
	}
	if r.met != nil {
		r.met.base = metrics.RouterCounts{}
		r.met.block.Reset()
	}
	r.resetBlame()
	r.schedq.ResetTelemetry()
	if r.OnReset != nil {
		r.OnReset()
	}
}

// ConnectIn attaches the receive side of a mesh link to input port p.
// Replacing or detaching (nil) a link cuts the old one: the
// time-constrained packets it destroys are counted (tcInput.cutOff).
func (r *Router) ConnectIn(p int, l *InLink) {
	if p < 0 || p >= NumLinks {
		panic(fmt.Sprintf("router %s: ConnectIn(%d) out of link range", r.name, p))
	}
	r.wake()
	if old := r.in[p]; old != nil {
		old.ch.data.MirrorStamps(nil, 0, 0, 0)
		old.ch.data.SetReader(nil)
		r.tcIn[p].cutOff(old)
	}
	r.in[p] = l
	r.lendStamps()
}

// ConnectOut attaches the transmit side of a mesh link to output port p.
// Replacing or detaching (nil) a link abandons the time-constrained
// packet on the old one (tcOutput.abandon).
func (r *Router) ConnectOut(p int, l *OutLink) {
	if p < 0 || p >= NumLinks {
		panic(fmt.Sprintf("router %s: ConnectOut(%d) out of link range", r.name, p))
	}
	r.wake()
	if old := r.out[p]; old != nil {
		old.ch.ack.MirrorStamps(nil, 0, 0, 0)
		old.ch.ack.SetReader(nil)
		r.tcOut[p].abandon()
	}
	r.out[p] = l
	if l == nil {
		r.portDead |= 1 << p
		r.portWork |= 1 << p
	} else {
		r.portDead &^= 1 << p
	}
	r.lendStamps()
}

// numWires counts a router's inbound wires: a phit wire per input link
// and an ack wire per output link.
const numWires = 2 * NumLinks

// stampRow is the bytes of one row of the stamp block: a 16-bit stamp
// per inbound wire.
const stampRow = 2 * numWires

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

// lendStamps hands every attached inbound wire its lane of the stamp
// rows and, once a kernel has bound it, the router's alarm, first
// growing the block to as many rows as the deepest attached ring has
// slots.
func (r *Router) lendStamps() {
	size := int(r.stampMask) + 1
	r.maxLat = 0
	for w := 0; w < numWires; w++ {
		if p := r.inbound(w); p != nil {
			size = max(size, p.Ring())
			r.maxLat = max(r.maxLat, p.Latency())
		}
	}
	if size*stampRow > len(r.stamps) {
		r.stamps, r.stampMask = make([]byte, size*stampRow), int64(size-1)
	}
	clear(r.stamps)
	for w := 0; w < numWires; w++ {
		if p := r.inbound(w); p != nil {
			p.MirrorStamps(r.stamps, w, size, stampRow)
			if r.alarm != nil {
				p.SetReader(r.alarm)
			}
		}
	}
}

// stampsAt returns the stamp row of cycle now.
func (r *Router) stampsAt(now int64) *[stampRow]byte {
	return (*[stampRow]byte)(r.stamps[(now&r.stampMask)*stampRow:])
}

// laneStamp is wire w's stamp in a row.
func laneStamp(row *[stampRow]byte, w int) uint16 {
	return binary.LittleEndian.Uint16(row[2*w:])
}

// lanes16 repeats a 16-bit 1 in each lane of a word.
const lanes16 = 0x0001_0001_0001_0001

// rowHit reports whether any wire's stamp in row equals the low 16 bits
// of now: each half of the row, XORed with the cycle repeated in its four
// lanes, has a lane of zero exactly where a stamp matches, and
// (x − 1…1) &^ x & 8…0 is non-zero exactly when some lane of x is zero —
// a lane borrows only from a zero lane below it, and a lane that borrows
// into its sign bit had that bit clear.
func rowHit(row *[stampRow]byte, now int64) bool {
	rep := uint64(uint16(now)) * lanes16
	lo := binary.LittleEndian.Uint64(row[:8]) ^ rep
	hi := binary.LittleEndian.Uint64(row[8:]) ^ rep
	return ((lo-lanes16)&^lo|(hi-lanes16)&^hi)&(lanes16<<15) != 0
}

// InjectTC queues one time-constrained packet at the injection port. The
// header stamp must carry the connection's logical arrival time ℓ0(m) on
// the network slot clock.
func (r *Router) InjectTC(p packet.TCPacket) {
	r.wake()
	if r.tcInjHead > 0 && len(r.tcInjectQ) == cap(r.tcInjectQ) {
		// Reclaim the consumed head space instead of growing.
		n := copy(r.tcInjectQ, r.tcInjectQ[r.tcInjHead:])
		r.tcInjectQ = r.tcInjectQ[:n]
		r.tcInjHead = 0
	}
	r.tcInjectQ = append(r.tcInjectQ, packet.EncodeTC(p))
	r.tally.TCInjected++
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
	r.wake()
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
	return r.wheel.Wrap(timing.Slot(r.absSlot(now)))
}

// absSlot is the unwrapped slot count behind slotNow: the slot clock as a
// monotone count, which quiet spans are kept in so that no rollover can
// alias a stale span into a current one.
func (r *Router) absSlot(now int64) int64 {
	return int64(timing.CyclesToSlot(max(now+r.cfg.SkewCycles, 0), packet.TCBytes))
}

// quietForever is the quiet span end of a port quiet until the tree
// changes.
const quietForever = math.MaxInt64

// forgetQuiet forgets the quiet spans of the ports in mask, so each
// one's next beat runs a real Select: the ports an installed leaf is owed
// to, or those whose horizon a control write set.
func (r *Router) forgetQuiet(mask sched.PortMask) {
	for m := uint8(mask); m != 0; m &= m - 1 {
		r.quiet[bits.TrailingZeros8(m)] = 0
	}
}

// SlotNow exposes the current slot stamp for traffic sources, which need
// the same clock the routers use (the bounded-skew assumption of
// Section 4.1: here skew is exactly zero).
func (r *Router) SlotNow(now int64) timing.Stamp { return r.slotNow(now) }

// restState summarizes what a router holds between two cycles, which
// decides whether the next Tick is a Skip of one cycle while the link
// wires stay clear. The end of every full Tick records it.
type restState uint8

const (
	// restBusy: some engine holds work (or the state is unknown — after
	// an injection or a rewiring). The next Tick runs in full.
	restBusy restState = iota
	// restParked: every engine is idle (enginesIdle), forensics is off
	// and the tick took nothing off a wire, but packets sit in the packet
	// memory as scheduler leaves, held until their logical arrival time
	// (atRest). Output arbitration has nothing to move, so a cycle whose
	// beat is closed-form (the beat's port inside its quiet span, or no
	// beat) only counts down, which Skip replays; a live beat runs a real
	// Select, and the rest of the tick only if it made a candidate to
	// fetch. The wake lists leave the router out until its first live beat
	// (NextWork, liveBeat).
	restParked
	// restIdle: every engine idle, the packet memory free, no leaf
	// installed: every port quiet forever. Every cycle with clear wires
	// is a Skip, and the wake lists leave the router out until a wire or
	// a push wakes it.
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
// A tick of a router at rest whose wires are clear and whose beat, if
// one falls in the cycle, is closed-form changes nothing a Skip of the
// cycle would not (see restState), so it is one: on the wake lists most
// such ticks do not happen at all. Every other tick is a full one,
// which on a parked router with clear wires ends after a live beat that
// made no candidate. A full tick visits only the ports that hold work:
// arbitrate runs where portWork or beDropping marks a port (every port
// while attribution is on), the launch, acknowledge and parse loops
// walk port masks (tcStaged|tcCand, beOwed, beUnparsed) in ascending
// port order, and sampleInputs reads a wire only when its lane of the
// stamp row matches the cycle. On any router a beat on a port inside
// its quiet span is closed-form (schedBeat).
func (r *Router) Tick(now sim.Cycle) {
	// At rest no port is passed over (schedBeat), so a beat in this cycle
	// serves port schedRR; on an idle router every port is quiet.
	still := r.rest != restBusy && r.inputsClear(int64(now))
	if still && (r.schedCountdown > 1 || r.rest == restIdle || r.quiet[r.schedRR%NumPorts] > r.absSlot(int64(now))) {
		r.Skip(now, now+1)
		return
	}
	r.nowCycle = int64(now)

	abs := r.absSlot(int64(now))
	nowSlot := r.wheel.Wrap(timing.Slot(abs))
	for p := 0; p < NumPorts; p++ {
		// Attribution charges idle port-cycles too. The masks are read
		// afresh at every port: arbitrate(q) can raise a later port's
		// bit (drainDeadBE → setDropping).
		if r.blame != nil || (r.portWork|r.beDropping)&(1<<p) != 0 {
			r.arbitrate(p, nowSlot)
		}
	}

	candidate := false
	r.schedCountdown--
	if r.schedCountdown <= 0 {
		// Leaf sharing (§5.1) serializes each module's packets through
		// one comparator: selections come LeafSharing times slower.
		r.schedCountdown = SchedPeriod * r.cfg.LeafSharing
		candidate = r.schedBeat(abs)
	}
	if still && !candidate {
		// A parked router's live beat found nothing to fetch: the rest of
		// the tick has nothing to move, and the router stays parked.
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
			r.tally.BEFlitAcks++
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
// Together with the recorded rest state this licenses a Tick's Skip.
// The cycle's stamp row answers for all eight wires at once (rowHit); a
// lane that matches the cycle — an arrival, or sixteen stale or
// never-written bits that happen to agree with it — is settled by the
// precise read.
func (r *Router) inputsClear(now int64) bool {
	row := r.stampsAt(now)
	if !rowHit(row, now) {
		return true
	}
	for w := 0; w < numWires; w++ {
		if laneStamp(row, w) != uint16(now) {
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
// loaded mesh is nearly every cycle. Forensics runs never park: blameGrant
// attributes a horizon hold to every port-cycle a held packet waits,
// which a parked cycle's Skip would leave out. Every set bit of an exact
// port mask or of the bus's request lines is a flag enginesIdle would
// find, so a busy router is told by a few bytes of its own struct, and
// the engine scan runs only once they are all clear.
func (r *Router) atRest(arrived bool) restState {
	held := r.mem.freeSlots() != r.cfg.Slots || r.schedq.Occupancy() != 0
	if held && (arrived || r.blame != nil) {
		return restBusy
	}
	if r.tcAsm|r.tcStaged|r.tcTx|r.tcOutStaged|r.tcCand|r.tcCut|r.beDropping != 0 ||
		r.bus.want != 0 || !r.enginesIdle() {
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
func (r *Router) IdleTicks() int64 {
	r.alarm.Settle()
	return r.idleTicks
}

// ParkedTicks reports how many cycles this router has spent parked:
// holding packets until their logical arrival time with every engine
// idle, the tick reduced to the comparator-tree beat. A diagnostic like
// IdleTicks.
func (r *Router) ParkedTicks() int64 {
	r.alarm.Settle()
	return r.parkedTicks
}

// SetAlarm implements sim.Sleeper: the router lends its alarm to every
// inbound wire, and wake rings it.
func (r *Router) SetAlarm(a *sim.Alarm) {
	r.alarm = a
	r.lendStamps()
}

// WakeOnDelivery makes every delivery to the local processor wake a:
// the alarm of the sink draining the delivery queues.
func (r *Router) WakeOnDelivery(a *sim.Alarm) { r.delivered = a }

// wake is every push into the router from outside its own Tick — an
// injection, a rewiring, a horizon write, switching attribution on: a
// router asleep on its wake list first settles the cycles it
// slept through, in the rest state it slept in, and the next Tick runs
// in full.
func (r *Router) wake() {
	r.alarm.Wake()
	r.rest = restBusy
}

// NextWork implements sim.Skipper. A router at rest does nothing
// observable until a wire delivers to it or, when parked, until its first
// beat on a port whose quiet span has ended (liveBeat); every tick before
// that is replayed by Skip. Wire values already in flight count here;
// later writes wake the router themselves (sim.Pipe.SetReader), and so do
// injections and control writes (wake). A busy router works every cycle.
func (r *Router) NextWork(now sim.Cycle) sim.Cycle {
	if r.rest == restBusy {
		return now
	}
	next := int64(sim.Never)
	if r.rest == restParked {
		next = r.liveBeat(int64(now))
	}
	for c := int64(now); c < int64(now)+r.maxLat && c < next; c++ {
		if !r.inputsClear(c) {
			return sim.Cycle(c)
		}
	}
	return sim.Cycle(next)
}

// liveBeat is the cycle of a parked router's first comparator beat at or
// after now on a port whose quiet span has ended: the first beat that
// runs a real Select. The next beat falls at now + schedCountdown − 1,
// each later one a period after it, and no port is passed over on a
// parked router (schedBeat), so port p's beats recur every NumPorts
// periods; the slot clock reaches quiet[p] at cycle
// quiet[p]·TCBytes − SkewCycles.
func (r *Router) liveBeat(now int64) int64 {
	period := int64(SchedPeriod * r.cfg.LeafSharing)
	lap := NumPorts * period
	first := now + int64(r.schedCountdown) - 1
	best := int64(sim.Never)
	for k := 0; k < NumPorts; k++ {
		q := r.quiet[(r.schedRR+k)%NumPorts]
		if q == quietForever {
			continue
		}
		c := first + int64(k)*period
		if t := q*packet.TCBytes - r.cfg.SkewCycles; q > 0 && c < t {
			c += (t - c + lap - 1) / lap * lap
		}
		best = min(best, c)
	}
	return best
}

// Skip implements sim.Skipper: replay the ticks of a router at rest for
// cycles [now, target) in closed form, with no wire delivering and, when
// parked, every beat on a quiet port (NextWork). Each such tick only runs
// the scheduler countdown with its closed-form beats and counts an idle
// or parked cycle, and a Tick at rest is a Skip of its one cycle.
func (r *Router) Skip(now, target sim.Cycle) {
	n := int64(target - now)
	if n <= 0 {
		return
	}
	// Scheduler beats: the countdown decrements every cycle and fires a
	// beat at zero. A prior Tick guarantees schedCountdown ∈ [1, period].
	// Each beat is on a port inside its quiet span — on an idle router no
	// leaf is installed, so every port is quiet forever. It advances the
	// round-robin pointer by one port (no port is passed over), runs one
	// selection that returns ClassNone and counts no Overdue
	// (SkipIdleSelects is bit-identical to it) and samples the leaf level,
	// which no beat at rest changes (noteSchedBeat).
	if c0 := int64(r.schedCountdown); n >= c0 {
		period := int64(SchedPeriod * r.cfg.LeafSharing)
		beats := 1 + (n-c0)/period
		r.schedCountdown = int(period - (n - c0 - (beats-1)*period))
		r.schedRR = int((int64(r.schedRR)+beats-1)%NumPorts) + 1
		r.schedq.SkipIdleSelects(beats)
		r.beats += beats
		r.schedLevel = int64(r.schedq.Occupancy())
		r.schedPeak = max(r.schedPeak, r.schedLevel)
	} else {
		r.schedCountdown = int(c0 - n)
	}

	if r.rest == restIdle {
		r.idleTicks += n
	} else {
		r.parkedTicks += n
	}
	r.nowCycle = int64(target) - 1
}

// turns counts the slot clock's wraps from cycle 0 to cycle now: the
// wrapped stamp rolls over exactly when the monotone slot count crosses a
// multiple of the wheel range. The clock is a function of the cycle and
// every cycle of a router is ticked or replayed by Skip (settled before
// any read: counts, ResetStats), so the rollovers since the last
// ResetStats are turns(nowCycle) − turnBase, and no tick counts them.
func (r *Router) turns(now int64) int64 {
	local := max(now+r.cfg.SkewCycles, 0)
	return int64(timing.CyclesToSlot(local, packet.TCBytes)) / int64(r.wheel.Range())
}

// HasDeliveries reports whether any delivered packets await DrainTC or
// DrainBE, letting sinks skip the drain entirely on idle cycles.
func (r *Router) HasDeliveries() bool {
	return len(r.tcDelivered) > 0 || len(r.beDelivered) > 0
}

// schedBeat runs one comparator-tree selection for the next port in
// round-robin order, modelling the shared, pipelined tree's throughput
// of one result per SchedPeriod cycles; abs is the slot clock (absSlot).
// It reports whether the port it served holds a candidate afterwards. The
// round robin passes over ports whose engines cannot take a candidate
// (cutting through, fetching, or transmitting with the next packet
// staged), a set the port masks and the bus's fetch request lines give
// without reading an engine; on a router at rest no engine holds work,
// so none is passed over.
func (r *Router) schedBeat(abs int64) bool {
	pass := r.tcCut | uint8(r.bus.want>>NumPorts) | r.tcTx&r.tcOutStaged
	for i := 0; i < NumPorts; i++ {
		p := (r.schedRR + i) % NumPorts
		if pass&(1<<p) != 0 {
			continue
		}
		r.schedRR = p + 1
		return r.beatPort(p, abs)
	}
	return false
}

// beatPort is one beat on port p. A port inside its quiet span gets the
// closed-form beat, which touches no engine: the selection would return
// ClassNone and count no Overdue, which SkipIdleSelects replays, and
// would leave the port without a candidate, as it already is (a
// candidate ends the span). Only an Install or a horizon write ends a
// span early, so this holds on busy and parked routers alike. Only a
// real Select reads the port's transmit engine.
func (r *Router) beatPort(p int, abs int64) bool {
	if r.quiet[p] > abs {
		r.schedq.SkipIdleSelects(1)
		r.noteSchedBeat()
		return false
	}
	o := r.tcOut[p]
	o.schedule(abs)
	r.noteSchedBeat()
	return o.candValid
}

// grant is what one output port's wire does for one cycle. grantOf
// picks among the first seven — Table 1's service order — on a port
// whose wire is free; the last three are the outcomes arbitrate settles
// before the table is consulted.
type grant uint8

const (
	grantIdle         grant = iota // nothing goes out
	grantOnTimeStaged              // the staged packet, on time, starts
	grantOnTimeCut                 // the pending cut-through, on time, starts
	grantRecovery                  // a best-effort recovery flit goes out
	grantData                      // a fresh best-effort flit goes out
	grantEarlyStaged               // the staged packet, early within the horizon, starts
	grantEarlyCut                  // the pending cut-through, early within the horizon, starts
	grantBusy                      // a time-constrained packet on the wire sends its next byte
	grantBubble                    // a cut-through stream waits for its arrival to catch up
	grantDead                      // the port's link is gone
)

// grantOf is Table 1 for one port-cycle, from the staged packet's class,
// the pending cut-through's class and the best-effort readiness: on-time
// time-constrained traffic first (staged before cut), then best-effort
// flits (recovery before data), then early time-constrained traffic
// within the horizon (staged before cut); otherwise the port idles.
func grantOf(staged, cut sched.Class, be beReady) grant {
	switch {
	case staged == sched.ClassOnTime:
		return grantOnTimeStaged
	case cut == sched.ClassOnTime:
		return grantOnTimeCut
	case be == beRecovery:
		return grantRecovery
	case be == beData:
		return grantData
	case staged == sched.ClassEarly:
		return grantEarlyStaged
	case cut == sched.ClassEarly:
		return grantEarlyCut
	}
	return grantIdle
}

// arbitrate resolves one output port for one cycle: a dead port drains,
// a time-constrained packet already on the wire continues, and a free
// wire goes to whatever serve grants it. Attribution, when on, reads the
// one grant. A visit to a port asleep on a credit stall first counts the
// stall cycles it slept through.
//
// A visit that leaves the port with no work clears its portWork bit: with
// nothing on the wire, staged or cutting through, no bound or waiting
// input, no recovery flit owed and no stall episode open, the next visit
// would grant grantIdle and change nothing. A visit that leaves a live
// port with nothing but a credit stall — an episode open, a bound input
// with a flit ready, no credit — clears the bit too and puts the port to
// sleep: until a credit returns or the bound frame is discarded, each
// visit would grant grantIdle, read beStalled and count one stall cycle,
// nothing else.
func (r *Router) arbitrate(p int, nowSlot timing.Stamp) {
	if r.stallSleep&(1<<p) != 0 {
		r.stallSleep &^= 1 << p
		r.tally.BEStallCycles[p] += r.nowCycle - r.stallFrom[p]
	}
	o, be := r.tcOut[p], r.beOut[p]
	dead := r.portDead&(1<<p) != 0
	if dead {
		r.drainDeadPort(o)
		be.drainDeadBE()
	}
	if r.beDropping&(1<<p) != 0 {
		r.beIn[p].drainDropped()
	}

	var (
		g      grant
		winner uint8 // the time-constrained packet holding the wire
	)
	switch {
	case dead:
		g = grantDead
	case o.txActive:
		g, winner = grantBusy, o.txConn
		r.emitTC(o)
	case o.cutIn != nil && o.cutIdx > 0:
		g, winner = grantBusy, o.cutLeaf.InConn
		if !r.emitCut(o) {
			g = grantBubble
		}
	default:
		g, winner = r.serve(p, nowSlot)
	}
	if r.blame != nil {
		r.blameGrant(p, nowSlot, g, winner)
	}
	if o.txActive || o.staged || o.cutIn != nil || r.beWaiting[p] != 0 ||
		be.abortPending || be.replayHead != len(be.replay) {
		return
	}
	switch {
	case be.curIn < 0 && !be.wasStalled:
		r.portWork &^= 1 << p
	case be.wasStalled && be.curIn >= 0 && be.credits <= 0 && !dead && r.beIn[be.curIn].hasByte():
		r.portWork &^= 1 << p
		r.stallSleep |= 1 << p
		r.stallFrom[p] = r.nowCycle + 1
	}
}

// serve grants a free wire by Table 1 (grantOf) and carries the grant
// out. Best-effort readiness is read once, and only when no on-time
// packet takes the wire. It returns the grant and, for a
// time-constrained one, the packet that started.
func (r *Router) serve(p int, nowSlot timing.Stamp) (grant, uint8) {
	o, be := r.tcOut[p], r.beOut[p]
	staged := sched.ClassNone
	if o.staged {
		staged = o.stagedClass(nowSlot)
	}
	cut := sched.ClassNone
	if o.cutIn != nil {
		if o.cutClass == sched.ClassEarly && r.wheel.OnTime(o.cutLeaf.L, nowSlot) {
			o.cutClass = sched.ClassOnTime
		}
		cut = o.cutClass
	}
	rd := beNone
	if staged != sched.ClassOnTime && cut != sched.ClassOnTime {
		rd = be.ready(staged == sched.ClassEarly || cut == sched.ClassEarly)
	}

	g := grantOf(staged, cut, rd)
	switch g {
	case grantOnTimeStaged, grantEarlyStaged:
		o.startTx(nowSlot, staged)
		r.emitTC(o)
		return g, o.txConn
	case grantOnTimeCut, grantEarlyCut:
		r.emitCut(o)
		return g, o.cutLeaf.InConn
	case grantRecovery:
		be.sendFaultFlit()
	case grantData:
		be.sendByte()
	}
	// The best-effort side had the wire. If a flit is waiting but the
	// downstream buffer owes no credit, that is a backpressure stall worth
	// counting (and tracing once per episode): the link is free, the flit
	// is not.
	if rd == beStalled {
		r.tally.BEStallCycles[p]++
		if !be.wasStalled && r.OnLifecycle != nil {
			r.lifecycle(LifecycleEvent{Kind: EvBlock, Port: p, BE: true})
		}
	}
	be.wasStalled = rd == beStalled
	return g, 0
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
	o.setStaged(false)
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
	if o.cutShort {
		o.endCut()
		o.cutShort = false
		r.out[o.port].Drive(r.nowCycle, packet.Phit{Valid: true, VC: packet.VCTime, Tail: true, Abort: true})
		return true
	}
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
		r.noteTransmit(o.port, &o.cutLeaf, o.cutClass, r.slotNow(r.nowCycle), false, 0)
	}
	tail := o.cutIdx == packet.TCBytes-1
	if o.port == PortLocal {
		o.rxBuf[o.cutIdx] = b
		o.cutIdx++
		if tail {
			r.deliverLocalTC(o.rxBuf)
			o.endCut()
		}
		return true
	}
	o.cutIdx++
	r.out[o.port].Drive(r.nowCycle, packet.Phit{Valid: true, VC: packet.VCTime, Data: b, Head: head, Tail: tail})
	if tail {
		o.endCut()
	}
	return true
}

func (r *Router) deliverLocalTC(buf [packet.TCBytes]byte) {
	p := packet.DecodeTC(buf)
	r.delivered.Wake()
	r.tcDelivered = append(r.tcDelivered, DeliveredTC{
		Conn: p.Conn, Stamp: p.Stamp, Payload: p.Payload, Cycle: r.nowCycle,
	})
	r.Stats.TCDelivered++
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
// lane of the cycle's stamp row matches the cycle — a quiet wire yields
// the zero Phit or Ack without the link → channel → pipe → slot chase —
// and a match, true or stale, is settled by the precise read, as in
// inputsClear. A returning credit wakes a port asleep on a credit stall.
func (r *Router) sampleInputs() (arrived bool) {
	now := r.nowCycle
	row := r.stampsAt(now)
	for p := 0; p < NumLinks; p++ {
		if r.in[p] == nil {
			// A failed upstream link can never complete an in-progress
			// packet: flush the fragment so it releases its output.
			if u := r.beIn[p]; u.parsed || u.occ() > 0 || u.discard {
				u.truncate()
			}
		}
		if r.in[p] != nil {
			var ph packet.Phit
			if laneStamp(row, p) == uint16(now) {
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
		if r.out[p] != nil && laneStamp(row, NumLinks+p) == uint16(now) {
			a := r.out[p].Ack(now)
			arrived = arrived || a.BECredit || a.BENack
			if a.BECredit {
				be := r.beOut[p]
				if be.credits < FlitBufBytes {
					be.credits++
				}
				r.portWork |= r.stallSleep & (1 << p)
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
