// Package metrics is the router telemetry layer: a zero-allocation
// counter/gauge registry the router core updates on every hot-path
// event, with JSON and Prometheus-text export and an HTTP handler for
// watching a long simulation live.
//
// The label space is fixed at construction — router name, output port
// (0..4) and arbitration class — so every hot-path update is a single
// atomic add into a preallocated array; nothing on the tick path
// allocates, hashes or locks. Counters are safe for concurrent readers
// (the -listen endpoint) while the simulation is running.
//
// The software plays the role of the chip-level event counters and
// Verilog waveforms the paper's authors watched (Figures 4–7): each
// counter answers a "why did this happen" question — arbitration wins
// by class per port, packet-memory occupancy high-water, slot-clock
// rollovers, best-effort credit stalls, deadline misses and drops by
// reason.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// NumPorts mirrors the router's port count (four mesh links plus the
// local port). Kept as a local constant so the router package can
// depend on metrics without a cycle.
const NumPorts = 5

// portName mirrors router.PortName for export labels.
func portName(p int) string {
	switch p {
	case 0:
		return "+x"
	case 1:
		return "-x"
	case 2:
		return "+y"
	case 3:
		return "-y"
	case 4:
		return "local"
	default:
		return fmt.Sprintf("port(%d)", p)
	}
}

// ArbClass labels an output-port arbitration decision (Table 1 service
// order): an on-time time-constrained packet, an early time-constrained
// packet sent within the horizon, or a best-effort flit.
type ArbClass uint8

const (
	// ArbOnTime is a Queue-1 win: a time-constrained packet at or past
	// its logical arrival time started transmission.
	ArbOnTime ArbClass = iota
	// ArbEarly is a Queue-3 win: a time-constrained packet ahead of its
	// logical arrival time was sent within the port's horizon.
	ArbEarly
	// ArbBE is a best-effort win: one wormhole flit crossed the port.
	// Counted per flit, because the chip re-arbitrates best-effort
	// traffic every byte (byte-level preemption).
	ArbBE
	// NumArbClasses sizes per-class arrays.
	NumArbClasses = 3
)

func (c ArbClass) String() string {
	switch c {
	case ArbOnTime:
		return "on_time"
	case ArbEarly:
		return "early"
	case ArbBE:
		return "best_effort"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// DropReason labels a discarded packet by the mechanism that dropped it.
type DropReason uint8

const (
	// DropTCNoSlot: the idle-address FIFO was empty (a reservation
	// violation; admitted traffic cannot exhaust the packet memory).
	DropTCNoSlot DropReason = iota
	// DropTCNoRoute: no valid connection-table entry for the header id.
	DropTCNoRoute
	// DropTCStaging: the input's nominal staging space overran.
	DropTCStaging
	// DropTCDeadPort: the packet was scheduled to an unwired link.
	DropTCDeadPort
	// DropBEMisroute: dimension-ordered routing pointed off the mesh.
	DropBEMisroute
	// DropBETruncated: a wormhole fragment was abandoned after its
	// upstream link failed mid-packet.
	DropBETruncated
	// DropBEOverrun: a best-effort flit arrived with no buffer space (a
	// credit-protocol violation).
	DropBEOverrun
	// DropTCCorrupt: a time-constrained packet failed its frame checksum
	// at the input (integrity checking on).
	DropTCCorrupt
	// DropTCFraming: a time-constrained assembly lost framing — a head
	// arrived mid-packet or a phit went missing mid-frame.
	DropTCFraming
	// DropBEAborted: a partial best-effort frame was discarded on an
	// Abort flit from upstream (link death or retry exhaustion mid-worm).
	DropBEAborted
	// NumDropReasons sizes per-reason arrays.
	NumDropReasons = 10
)

func (d DropReason) String() string {
	switch d {
	case DropTCNoSlot:
		return "tc_no_slot"
	case DropTCNoRoute:
		return "tc_no_route"
	case DropTCStaging:
		return "tc_staging"
	case DropTCDeadPort:
		return "tc_dead_port"
	case DropBEMisroute:
		return "be_misroute"
	case DropBETruncated:
		return "be_truncated"
	case DropBEOverrun:
		return "be_overrun"
	case DropTCCorrupt:
		return "tc_corrupt"
	case DropTCFraming:
		return "tc_framing"
	case DropBEAborted:
		return "be_aborted"
	default:
		return fmt.Sprintf("reason(%d)", int(d))
	}
}

// Counter is a monotonically increasing event count, safe for one
// writer and many concurrent readers (and for several writers, though
// the simulator is single-threaded).
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is an instantaneous level, also usable as a running maximum via
// SetMax (high-water marks).
type Gauge struct{ v atomic.Int64 }

// Set stores the current level.
func (g *Gauge) Set(x int64) { g.v.Store(x) }

// SetMax raises the gauge to x if x exceeds the stored value.
func (g *Gauge) SetMax(x int64) {
	for {
		cur := g.v.Load()
		if x <= cur || g.v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

func (g *Gauge) reset() { g.v.Store(0) }

// RouterMetrics is the fixed-cardinality counter block of one router
// chip. The router core holds a pointer (nil when telemetry is off) and
// updates fields directly on its hot path; all updates are atomic adds
// or stores into preallocated storage.
type RouterMetrics struct {
	name string

	// TCInjected counts packets handed to the time-constrained
	// injection port by the local processor.
	TCInjected Counter
	// TCEnqueued counts scheduling-leaf installs: a packet became live
	// in the shared memory and visible to the comparator tree.
	TCEnqueued Counter
	// TCDequeued counts transmission starts per output port for packets
	// leaving through the memory path (cut-throughs are separate).
	TCDequeued [NumPorts]Counter
	// TCDelivered counts packets handed to the local processor.
	TCDelivered Counter
	// BEDelivered counts best-effort deliveries.
	BEDelivered Counter

	// ArbWins counts output-port arbitration decisions by class:
	// time-constrained wins per packet, best-effort wins per flit.
	ArbWins [NumPorts][NumArbClasses]Counter

	// CutThroughs counts established virtual cut-through paths (§7).
	CutThroughs Counter

	// MemOccupancy is the current number of occupied packet-memory
	// slots; MemHighWater is its maximum since the last reset.
	MemOccupancy Gauge
	MemHighWater Gauge

	// SchedSelects counts comparator-tree selection beats issued;
	// SchedOccupancy/SchedOccPeak track in-use scheduling leaves.
	SchedSelects   Counter
	SchedOccupancy Gauge
	SchedOccPeak   Gauge

	// SlotRollovers counts wraps of the bounded slot clock (§4.3).
	SlotRollovers Counter

	// DeadlineMisses counts transmissions that started past their local
	// deadline.
	DeadlineMisses Counter

	// BEStallCycles counts cycles an output port idled with a
	// best-effort flit waiting but no downstream credit.
	BEStallCycles [NumPorts]Counter
	// BEFlitAcks counts flit credits returned upstream.
	BEFlitAcks Counter

	// FaultCorruptPhits and FaultLostPhits count link-fault injections on
	// this router's input wires: phits garbled in place and phits erased
	// entirely. Incremented by the attached fault injector, not the
	// router core.
	FaultCorruptPhits Counter
	FaultLostPhits    Counter
	// BEFlitNacks counts corrupted best-effort flits nacked upstream;
	// BEFlitRetransmits counts flits resent after a nack; BEFrameAborts
	// counts frames abandoned after the retry budget ran out.
	BEFlitNacks       Counter
	BEFlitRetransmits Counter
	BEFrameAborts     Counter

	// Drops counts discarded packets by reason.
	Drops [NumDropReasons]Counter
}

// Name returns the router label the block was registered under.
func (m *RouterMetrics) Name() string {
	if m == nil {
		return ""
	}
	return m.name
}

// Reset zeroes every counter and gauge. Nil-safe, so the router's
// warmup reset needs no telemetry guard.
func (m *RouterMetrics) Reset() {
	if m == nil {
		return
	}
	m.TCInjected.reset()
	m.TCEnqueued.reset()
	m.TCDelivered.reset()
	m.BEDelivered.reset()
	m.CutThroughs.reset()
	m.SchedSelects.reset()
	m.SlotRollovers.reset()
	m.DeadlineMisses.reset()
	m.BEFlitAcks.reset()
	m.FaultCorruptPhits.reset()
	m.FaultLostPhits.reset()
	m.BEFlitNacks.reset()
	m.BEFlitRetransmits.reset()
	m.BEFrameAborts.reset()
	m.MemHighWater.reset()
	m.SchedOccPeak.reset()
	// Occupancy gauges keep their level: the memory does not empty on a
	// stats reset, and the next update overwrites them anyway.
	for p := 0; p < NumPorts; p++ {
		m.TCDequeued[p].reset()
		m.BEStallCycles[p].reset()
		for c := 0; c < NumArbClasses; c++ {
			m.ArbWins[p][c].reset()
		}
	}
	for d := 0; d < NumDropReasons; d++ {
		m.Drops[d].reset()
	}
}

// Registry holds the telemetry of a whole network, one RouterMetrics
// block per router plus run-level bookkeeping. Router() is the only
// locking operation and runs once per router at attach time; everything
// on the simulation hot path goes through the preallocated blocks.
type Registry struct {
	mu      sync.RWMutex
	routers map[string]*RouterMetrics
	order   []string

	// channels, when set, supplies per-channel SLO snapshots for export
	// (see SetChannelSource); the obs package is the standard provider.
	channels func() []ChannelSnapshot

	// blame and forensics, when set, supply slack-attribution exports
	// (see SetBlameSource/SetForensicsSource); obs.Forensics is the
	// standard provider.
	blame     func() []BlameSnapshot
	forensics func() *ForensicsSnapshot

	// capacity, when set, supplies the admission-plane reservation
	// ledger (see SetCapacitySource); the admission controller's Sealed
	// method is the standard provider.
	capacity func() *CapacitySnapshot

	// admission, when set, supplies control-plane decision counters
	// (see SetAdmissionSource); the admission controller's Stats method
	// is the standard provider. Kept separate from the capacity ledger
	// because rejected admissions increment these counters while the
	// sealed ledger must stay byte-identical across refusals.
	admission func() *AdmissionStats

	// Cycles, if set by the harness, records the measured cycle span
	// for rate normalization in reports.
	Cycles atomic.Int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{routers: make(map[string]*RouterMetrics)}
}

// Router returns the metrics block registered under name, creating it
// on first use. Safe for concurrent use.
func (g *Registry) Router(name string) *RouterMetrics {
	g.mu.RLock()
	m := g.routers[name]
	g.mu.RUnlock()
	if m != nil {
		return m
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if m = g.routers[name]; m != nil {
		return m
	}
	m = &RouterMetrics{name: name}
	g.routers[name] = m
	g.order = append(g.order, name)
	return m
}

// Routers returns the registered router names in registration order.
func (g *Registry) Routers() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append([]string(nil), g.order...)
}

// Reset zeroes every registered block (warmup exclusion).
func (g *Registry) Reset() {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, m := range g.routers {
		m.Reset()
	}
	g.Cycles.Store(0)
}

// HistogramSnapshot is a point-in-time copy of one log-bucketed
// latency/slack histogram in export-friendly form. Buckets[0] counts
// exact zeros; Buckets[i] for i ≥ 1 counts values in [2^(i−1), 2^i−1].
// Negative values (deadline misses for slack histograms) land in
// MissCount, not in Buckets. Min/Max/P50/P99 are over all recorded
// values including negative ones; they are zero when Count is zero.
type HistogramSnapshot struct {
	Count     int64   `json:"count"`
	MissCount int64   `json:"miss_count"`
	Sum       int64   `json:"sum"`
	Min       int64   `json:"min"`
	Max       int64   `json:"max"`
	P50       int64   `json:"p50"`
	P99       int64   `json:"p99"`
	Buckets   []int64 `json:"buckets,omitempty"`
}

// ChannelSnapshot is a point-in-time copy of one real-time channel's
// SLO accounting: end-to-end delivery latency (cycles), end-to-end
// deadline slack at delivery (slots, ℓ+D−arrival), per-hop slack
// against the local deadline d_j (slots), plus miss and horizon-early
// counters.
type ChannelSnapshot struct {
	ID         int               `json:"id"`
	Name       string            `json:"name"`
	Src        string            `json:"src"`
	Dst        string            `json:"dst"`
	BoundSlots int64             `json:"bound_slots"`
	Delivered  int64             `json:"delivered"`
	Misses     int64             `json:"deadline_misses"`
	HopMisses  int64             `json:"hop_misses"`
	EarlyTx    int64             `json:"early_tx"`
	Latency    HistogramSnapshot `json:"latency_cycles"`
	Slack      HistogramSnapshot `json:"slack_slots"`
	HopSlack   HistogramSnapshot `json:"hop_slack_slots"`
}

// SetChannelSource installs the function Snapshot calls to collect
// per-channel SLO snapshots (nil detaches). The source must be safe to
// call concurrently with the simulation, like the router counters.
func (g *Registry) SetChannelSource(fn func() []ChannelSnapshot) {
	g.mu.Lock()
	g.channels = fn
	g.mu.Unlock()
}

// BlameSnapshot is one aggregated blame-matrix cell: the victim channel
// lost Cycles cycles to the blamed channel (arb_loss) or subsystem
// (every other cause; Blamed is then empty).
type BlameSnapshot struct {
	Victim string `json:"victim"`
	Cause  string `json:"cause"`
	Blamed string `json:"blamed,omitempty"`
	Cycles int64  `json:"cycles"`
}

// ForensicsSnapshot summarizes the slack-attribution engine's totals
// and the flight recorder's trigger count.
type ForensicsSnapshot struct {
	// TCStallCycles is the total of attributed time-constrained stall
	// cycles (all causes except credit_starved, which is best-effort).
	TCStallCycles int64 `json:"tc_stall_cycles"`
	// Unattributed counts stalled cycles the classifier could not
	// explain; the CI gate requires zero.
	Unattributed int64            `json:"unattributed_cycles"`
	ByCause      map[string]int64 `json:"by_cause,omitempty"`
	// Triggers counts flight-recorder trigger events (deadline misses,
	// best-effort aborts, fault drops) observed so far.
	Triggers int64 `json:"triggers"`
}

// SetBlameSource installs the function Snapshot calls to collect
// aggregated blame-matrix cells (nil detaches). Rows must arrive
// pre-sorted; Snapshot passes them through untouched.
func (g *Registry) SetBlameSource(fn func() []BlameSnapshot) {
	g.mu.Lock()
	g.blame = fn
	g.mu.Unlock()
}

// SetForensicsSource installs the function Snapshot calls to collect
// the forensics summary (nil detaches).
func (g *Registry) SetForensicsSource(fn func() *ForensicsSnapshot) {
	g.mu.Lock()
	g.forensics = fn
	g.mu.Unlock()
}

// LinkCapacity is the reservation ledger's view of one directed link:
// how much of the link's EDF budget the admitted channels hold and how
// much slack remains. Links with no reservations are omitted from the
// snapshot.
type LinkCapacity struct {
	// Link is the display name ("(1,0)→+x", "(0,0)→inject"); NodeX,
	// NodeY and Port are the same identity in structured form.
	Link  string `json:"link"`
	NodeX int    `json:"x"`
	NodeY int    `json:"y"`
	Port  string `json:"port"`
	// Channels is the number of channels reserving slots on this link.
	Channels int `json:"channels"`
	// Utilization is ΣC/T over the link's reserved task set.
	Utilization float64 `json:"utilization"`
	// ReservedSlots is ΣC: slots per message reserved across channels.
	ReservedSlots int64 `json:"reserved_slots"`
	// HeadroomSlots is the minimum t−dbf(t) over the EDF analysis step
	// points: slots of extra demand the link could absorb at its
	// tightest deadline.
	HeadroomSlots int64 `json:"edf_headroom_slots"`
	// WorstMarginSlots is the smallest admission-time margin among the
	// channels crossing this link.
	WorstMarginSlots int64 `json:"worst_admitted_margin_slots"`
}

// NodeCapacity is the ledger's view of one router's finite tables:
// packet-memory slots and connection identifiers. Nodes holding no
// reservations are omitted.
type NodeCapacity struct {
	Node string `json:"node"`
	// BuffersUsed of BuffersLimit packet-memory slots are reserved;
	// PortBuffers splits the usage by output-port partition (only
	// meaningful under Partitioned accounting, populated always).
	BuffersUsed  int            `json:"buffers_used"`
	BuffersLimit int            `json:"buffers_limit"`
	PortBuffers  map[string]int `json:"port_buffers,omitempty"`
	// ConnsUsed of ConnsLimit connection-table identifiers are held.
	ConnsUsed  int `json:"conns_used"`
	ConnsLimit int `json:"conns_limit"`
}

// CapacitySnapshot is a sealed point-in-time copy of the admission
// plane's reservation ledger. It is immutable once published: the
// admission controller seals a fresh snapshot after every control-plane
// phase, so a live HTTP scrape never observes a half-updated ledger.
type CapacitySnapshot struct {
	// Channels is the number of admitted channels backing the ledger.
	Channels int            `json:"channels"`
	Links    []LinkCapacity `json:"links,omitempty"`
	Nodes    []NodeCapacity `json:"nodes,omitempty"`
	// WorstLink is the most utilized link and WorstUtilization its
	// load; MinHeadroomSlots is the tightest EDF headroom anywhere.
	WorstLink        string  `json:"worst_link,omitempty"`
	WorstUtilization float64 `json:"worst_utilization"`
	MinHeadroomSlots int64   `json:"min_edf_headroom_slots"`
}

// SetCapacitySource installs the function Snapshot calls to collect the
// admission capacity ledger (nil detaches). The source must tolerate
// concurrent calls during the simulation; returning nil (nothing sealed
// yet) omits the section.
func (g *Registry) SetCapacitySource(fn func() *CapacitySnapshot) {
	g.mu.Lock()
	g.capacity = fn
	g.mu.Unlock()
}

// AdmissionStats counts control-plane decisions since the controller was
// created. Unlike the sealed capacity ledger these counters move on
// rejected requests too, so they live in their own export section.
type AdmissionStats struct {
	Admits        int64 `json:"admits"`
	Rejects       int64 `json:"rejects"`
	Teardowns     int64 `json:"teardowns"`
	Restores      int64 `json:"restores"`
	Reroutes      int64 `json:"reroutes"`
	BatchRequests int64 `json:"batch_requests"`
	BatchChunks   int64 `json:"batch_chunks"`
	BatchReplans  int64 `json:"batch_replans"`
}

// SetAdmissionSource installs the function Snapshot calls to collect
// admission decision counters (nil detaches). The source must tolerate
// concurrent calls; returning nil omits the section.
func (g *Registry) SetAdmissionSource(fn func() *AdmissionStats) {
	g.mu.Lock()
	g.admission = fn
	g.mu.Unlock()
}

// RouterSnapshot is a point-in-time copy of one router's counters in
// export-friendly form.
type RouterSnapshot struct {
	Router         string                      `json:"router"`
	TCInjected     int64                       `json:"tc_injected"`
	TCEnqueued     int64                       `json:"tc_enqueued"`
	TCDequeued     map[string]int64            `json:"tc_dequeued"`
	TCDelivered    int64                       `json:"tc_delivered"`
	BEDelivered    int64                       `json:"be_delivered"`
	ArbWins        map[string]map[string]int64 `json:"arb_wins"`
	CutThroughs    int64                       `json:"cut_throughs"`
	MemOccupancy   int64                       `json:"mem_occupancy"`
	MemHighWater   int64                       `json:"mem_high_water"`
	SchedSelects   int64                       `json:"sched_selects"`
	SchedOccupancy int64                       `json:"sched_occupancy"`
	SchedOccPeak   int64                       `json:"sched_occ_peak"`
	SlotRollovers  int64                       `json:"slot_rollovers"`
	DeadlineMisses int64                       `json:"deadline_misses"`
	BEStallCycles  map[string]int64            `json:"be_stall_cycles"`
	BEFlitAcks     int64                       `json:"be_flit_acks"`
	FaultCorrupt   int64                       `json:"fault_corrupt_phits"`
	FaultLost      int64                       `json:"fault_lost_phits"`
	BEFlitNacks    int64                       `json:"be_flit_nacks"`
	BERetransmits  int64                       `json:"be_flit_retransmits"`
	BEFrameAborts  int64                       `json:"be_frame_aborts"`
	Drops          map[string]int64            `json:"drops"`
}

// Snapshot is a point-in-time copy of the whole registry: per-router
// blocks plus network-wide totals (gauges aggregate by max for
// high-waters and by sum for levels).
type Snapshot struct {
	Cycles    int64              `json:"cycles,omitempty"`
	Totals    RouterSnapshot     `json:"totals"`
	Routers   []RouterSnapshot   `json:"routers"`
	Channels  []ChannelSnapshot  `json:"channels,omitempty"`
	Blame     []BlameSnapshot    `json:"blame,omitempty"`
	Forensics *ForensicsSnapshot `json:"forensics,omitempty"`
	Capacity  *CapacitySnapshot  `json:"capacity,omitempty"`
	Admission *AdmissionStats    `json:"admission,omitempty"`
}

func (m *RouterMetrics) snapshot() RouterSnapshot {
	s := RouterSnapshot{
		Router:         m.name,
		TCInjected:     m.TCInjected.Load(),
		TCEnqueued:     m.TCEnqueued.Load(),
		TCDequeued:     make(map[string]int64, NumPorts),
		TCDelivered:    m.TCDelivered.Load(),
		BEDelivered:    m.BEDelivered.Load(),
		ArbWins:        make(map[string]map[string]int64, NumPorts),
		CutThroughs:    m.CutThroughs.Load(),
		MemOccupancy:   m.MemOccupancy.Load(),
		MemHighWater:   m.MemHighWater.Load(),
		SchedSelects:   m.SchedSelects.Load(),
		SchedOccupancy: m.SchedOccupancy.Load(),
		SchedOccPeak:   m.SchedOccPeak.Load(),
		SlotRollovers:  m.SlotRollovers.Load(),
		DeadlineMisses: m.DeadlineMisses.Load(),
		BEStallCycles:  make(map[string]int64, NumPorts),
		BEFlitAcks:     m.BEFlitAcks.Load(),
		FaultCorrupt:   m.FaultCorruptPhits.Load(),
		FaultLost:      m.FaultLostPhits.Load(),
		BEFlitNacks:    m.BEFlitNacks.Load(),
		BERetransmits:  m.BEFlitRetransmits.Load(),
		BEFrameAborts:  m.BEFrameAborts.Load(),
		Drops:          make(map[string]int64, NumDropReasons),
	}
	for p := 0; p < NumPorts; p++ {
		pn := portName(p)
		s.TCDequeued[pn] = m.TCDequeued[p].Load()
		s.BEStallCycles[pn] = m.BEStallCycles[p].Load()
		wins := make(map[string]int64, NumArbClasses)
		for c := 0; c < NumArbClasses; c++ {
			wins[ArbClass(c).String()] = m.ArbWins[p][c].Load()
		}
		s.ArbWins[pn] = wins
	}
	for d := 0; d < NumDropReasons; d++ {
		s.Drops[DropReason(d).String()] = m.Drops[d].Load()
	}
	return s
}

func (s *RouterSnapshot) accumulate(o RouterSnapshot) {
	s.TCInjected += o.TCInjected
	s.TCEnqueued += o.TCEnqueued
	s.TCDelivered += o.TCDelivered
	s.BEDelivered += o.BEDelivered
	s.CutThroughs += o.CutThroughs
	s.MemOccupancy += o.MemOccupancy
	if o.MemHighWater > s.MemHighWater {
		s.MemHighWater = o.MemHighWater
	}
	s.SchedSelects += o.SchedSelects
	s.SchedOccupancy += o.SchedOccupancy
	if o.SchedOccPeak > s.SchedOccPeak {
		s.SchedOccPeak = o.SchedOccPeak
	}
	s.SlotRollovers += o.SlotRollovers
	s.DeadlineMisses += o.DeadlineMisses
	s.BEFlitAcks += o.BEFlitAcks
	s.FaultCorrupt += o.FaultCorrupt
	s.FaultLost += o.FaultLost
	s.BEFlitNacks += o.BEFlitNacks
	s.BERetransmits += o.BERetransmits
	s.BEFrameAborts += o.BEFrameAborts
	for pn, v := range o.TCDequeued {
		s.TCDequeued[pn] += v
	}
	for pn, v := range o.BEStallCycles {
		s.BEStallCycles[pn] += v
	}
	for pn, wins := range o.ArbWins {
		if s.ArbWins[pn] == nil {
			s.ArbWins[pn] = make(map[string]int64, NumArbClasses)
		}
		for cn, v := range wins {
			s.ArbWins[pn][cn] += v
		}
	}
	for dn, v := range o.Drops {
		s.Drops[dn] += v
	}
}

// Snapshot copies the registry. Counters are read atomically but not as
// one transaction; a snapshot taken mid-cycle can be off by in-flight
// events, which is fine for reporting.
func (g *Registry) Snapshot() Snapshot {
	g.mu.RLock()
	defer g.mu.RUnlock()
	snap := Snapshot{
		Cycles: g.Cycles.Load(),
		Totals: RouterSnapshot{
			Router:        "total",
			TCDequeued:    make(map[string]int64, NumPorts),
			BEStallCycles: make(map[string]int64, NumPorts),
			ArbWins:       make(map[string]map[string]int64, NumPorts),
			Drops:         make(map[string]int64, NumDropReasons),
		},
	}
	for _, name := range g.order {
		rs := g.routers[name].snapshot()
		snap.Routers = append(snap.Routers, rs)
		snap.Totals.accumulate(rs)
	}
	if g.channels != nil {
		snap.Channels = g.channels()
	}
	if g.blame != nil {
		snap.Blame = g.blame()
	}
	if g.forensics != nil {
		snap.Forensics = g.forensics()
	}
	if g.capacity != nil {
		snap.Capacity = g.capacity()
	}
	if g.admission != nil {
		snap.Admission = g.admission()
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON.
func (g *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g.Snapshot())
}

// WriteFile writes the snapshot to path ("-" = stdout); the extension
// picks the format: .prom and .txt are Prometheus text, anything else
// JSON.
func (g *Registry) WriteFile(path string) error {
	write := g.WriteJSON
	if strings.HasSuffix(path, ".prom") || strings.HasSuffix(path, ".txt") {
		write = g.WritePrometheus
	}
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format, one sample per router/label combination under the rt_ prefix.
func (g *Registry) WritePrometheus(w io.Writer) error {
	snap := g.Snapshot()
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("# HELP rt_cycles Simulated cycles covered by this report.\n# TYPE rt_cycles gauge\nrt_cycles %d\n", snap.Cycles)
	counter := func(metric, help string, get func(RouterSnapshot) int64) {
		p("# HELP %s %s\n# TYPE %s counter\n", metric, help, metric)
		for _, rs := range snap.Routers {
			p("%s{router=%q} %d\n", metric, rs.Router, get(rs))
		}
	}
	gauge := func(metric, help string, get func(RouterSnapshot) int64) {
		p("# HELP %s %s\n# TYPE %s gauge\n", metric, help, metric)
		for _, rs := range snap.Routers {
			p("%s{router=%q} %d\n", metric, rs.Router, get(rs))
		}
	}
	counter("rt_tc_injected_total", "Time-constrained packets injected by the local processor.",
		func(r RouterSnapshot) int64 { return r.TCInjected })
	counter("rt_tc_enqueued_total", "Scheduling-leaf installs (packet live in shared memory).",
		func(r RouterSnapshot) int64 { return r.TCEnqueued })
	counter("rt_tc_delivered_total", "Time-constrained deliveries to the local processor.",
		func(r RouterSnapshot) int64 { return r.TCDelivered })
	counter("rt_be_delivered_total", "Best-effort deliveries to the local processor.",
		func(r RouterSnapshot) int64 { return r.BEDelivered })
	counter("rt_cut_throughs_total", "Virtual cut-through paths established.",
		func(r RouterSnapshot) int64 { return r.CutThroughs })
	counter("rt_sched_selects_total", "Comparator-tree selection beats.",
		func(r RouterSnapshot) int64 { return r.SchedSelects })
	counter("rt_slot_rollovers_total", "Bounded slot-clock wraps.",
		func(r RouterSnapshot) int64 { return r.SlotRollovers })
	counter("rt_deadline_misses_total", "Transmissions started past their local deadline.",
		func(r RouterSnapshot) int64 { return r.DeadlineMisses })
	counter("rt_be_flit_acks_total", "Best-effort flit credits returned upstream.",
		func(r RouterSnapshot) int64 { return r.BEFlitAcks })
	counter("rt_fault_corrupt_phits_total", "Phits garbled by the link-fault injector.",
		func(r RouterSnapshot) int64 { return r.FaultCorrupt })
	counter("rt_fault_lost_phits_total", "Phits erased by the link-fault injector.",
		func(r RouterSnapshot) int64 { return r.FaultLost })
	counter("rt_fault_be_nacks_total", "Corrupted best-effort flits nacked upstream.",
		func(r RouterSnapshot) int64 { return r.BEFlitNacks })
	counter("rt_fault_be_retransmits_total", "Best-effort flits resent after a nack.",
		func(r RouterSnapshot) int64 { return r.BERetransmits })
	counter("rt_fault_be_frame_aborts_total", "Best-effort frames abandoned after retry-budget exhaustion.",
		func(r RouterSnapshot) int64 { return r.BEFrameAborts })
	gauge("rt_mem_occupancy", "Occupied packet-memory slots.",
		func(r RouterSnapshot) int64 { return r.MemOccupancy })
	gauge("rt_mem_high_water", "Packet-memory occupancy high-water mark.",
		func(r RouterSnapshot) int64 { return r.MemHighWater })
	gauge("rt_sched_occupancy", "In-use scheduling leaves.",
		func(r RouterSnapshot) int64 { return r.SchedOccupancy })
	gauge("rt_sched_occ_peak", "Scheduling-leaf occupancy high-water mark.",
		func(r RouterSnapshot) int64 { return r.SchedOccPeak })

	p("# HELP rt_arb_wins_total Output-port arbitration wins by class (TC per packet, BE per flit).\n# TYPE rt_arb_wins_total counter\n")
	for _, rs := range snap.Routers {
		for _, pn := range sortedKeys(rs.ArbWins) {
			for _, cn := range sortedKeys(rs.ArbWins[pn]) {
				p("rt_arb_wins_total{router=%q,port=%q,class=%q} %d\n", rs.Router, pn, cn, rs.ArbWins[pn][cn])
			}
		}
	}
	p("# HELP rt_tc_dequeued_total Transmission starts per output port (memory path).\n# TYPE rt_tc_dequeued_total counter\n")
	for _, rs := range snap.Routers {
		for _, pn := range sortedKeys(rs.TCDequeued) {
			p("rt_tc_dequeued_total{router=%q,port=%q} %d\n", rs.Router, pn, rs.TCDequeued[pn])
		}
	}
	p("# HELP rt_be_stall_cycles_total Cycles a port idled on a credit-starved best-effort flit.\n# TYPE rt_be_stall_cycles_total counter\n")
	for _, rs := range snap.Routers {
		for _, pn := range sortedKeys(rs.BEStallCycles) {
			p("rt_be_stall_cycles_total{router=%q,port=%q} %d\n", rs.Router, pn, rs.BEStallCycles[pn])
		}
	}
	p("# HELP rt_drops_total Discarded packets by reason.\n# TYPE rt_drops_total counter\n")
	for _, rs := range snap.Routers {
		for _, dn := range sortedKeys(rs.Drops) {
			p("rt_drops_total{router=%q,reason=%q} %d\n", rs.Router, dn, rs.Drops[dn])
		}
	}

	if len(snap.Channels) > 0 {
		chCounter := func(metric, help string, get func(ChannelSnapshot) int64) {
			p("# HELP %s %s\n# TYPE %s counter\n", metric, help, metric)
			for _, cs := range snap.Channels {
				p("%s{channel=%q} %d\n", metric, cs.Name, get(cs))
			}
		}
		chCounter("rt_channel_delivered_total", "Time-constrained packets delivered on this channel.",
			func(c ChannelSnapshot) int64 { return c.Delivered })
		chCounter("rt_channel_deadline_miss_total", "Deliveries past the channel's end-to-end deadline.",
			func(c ChannelSnapshot) int64 { return c.Misses })
		chCounter("rt_channel_hop_miss_total", "Per-hop transmissions started past the local deadline d_j.",
			func(c ChannelSnapshot) int64 { return c.HopMisses })
		chCounter("rt_channel_early_tx_total", "Horizon-early transmissions on this channel's hops.",
			func(c ChannelSnapshot) int64 { return c.EarlyTx })
		hist := func(metric, help string, get func(ChannelSnapshot) HistogramSnapshot) {
			p("# HELP %s %s\n# TYPE %s summary\n", metric, help, metric)
			for _, cs := range snap.Channels {
				h := get(cs)
				p("%s{channel=%q,quantile=\"0.5\"} %d\n", metric, cs.Name, h.P50)
				p("%s{channel=%q,quantile=\"0.99\"} %d\n", metric, cs.Name, h.P99)
				p("%s_sum{channel=%q} %d\n", metric, cs.Name, h.Sum)
				p("%s_count{channel=%q} %d\n", metric, cs.Name, h.Count)
			}
		}
		hist("rt_channel_latency_cycles", "End-to-end delivery latency per channel in byte cycles.",
			func(c ChannelSnapshot) HistogramSnapshot { return c.Latency })
		hist("rt_channel_slack_slots", "End-to-end deadline slack at delivery per channel in slots (negative = miss).",
			func(c ChannelSnapshot) HistogramSnapshot { return c.Slack })
		hist("rt_channel_hop_slack_slots", "Per-hop slack against the local deadline d_j in slots.",
			func(c ChannelSnapshot) HistogramSnapshot { return c.HopSlack })
		gaugeCh := func(metric, help string, get func(ChannelSnapshot) int64) {
			p("# HELP %s %s\n# TYPE %s gauge\n", metric, help, metric)
			for _, cs := range snap.Channels {
				p("%s{channel=%q} %d\n", metric, cs.Name, get(cs))
			}
		}
		gaugeCh("rt_channel_latency_worst_cycles", "Worst observed end-to-end latency per channel.",
			func(c ChannelSnapshot) int64 { return c.Latency.Max })
		gaugeCh("rt_channel_slack_worst_slots", "Smallest observed end-to-end slack per channel.",
			func(c ChannelSnapshot) int64 { return c.Slack.Min })
	}

	if len(snap.Blame) > 0 {
		p("# HELP rt_blame_cycles_total Stall cycles the victim lost to the blamed channel or subsystem cause.\n# TYPE rt_blame_cycles_total counter\n")
		for _, b := range snap.Blame {
			p("rt_blame_cycles_total{victim=%q,cause=%q,blamed=%q} %d\n",
				b.Victim, b.Cause, b.Blamed, b.Cycles)
		}
	}
	if fs := snap.Forensics; fs != nil {
		p("# HELP rt_forensics_tc_stall_cycles_total Attributed time-constrained stall cycles.\n# TYPE rt_forensics_tc_stall_cycles_total counter\nrt_forensics_tc_stall_cycles_total %d\n", fs.TCStallCycles)
		p("# HELP rt_forensics_unattributed_cycles_total Stalled cycles the classifier could not explain (must be zero).\n# TYPE rt_forensics_unattributed_cycles_total counter\nrt_forensics_unattributed_cycles_total %d\n", fs.Unattributed)
		p("# HELP rt_forensics_cause_cycles_total Stall cycles by attribution cause.\n# TYPE rt_forensics_cause_cycles_total counter\n")
		for _, c := range sortedKeys(fs.ByCause) {
			p("rt_forensics_cause_cycles_total{cause=%q} %d\n", c, fs.ByCause[c])
		}
		p("# HELP rt_forensics_triggers_total Flight-recorder trigger events.\n# TYPE rt_forensics_triggers_total counter\nrt_forensics_triggers_total %d\n", fs.Triggers)
	}
	if cs := snap.Capacity; cs != nil {
		p("# HELP rt_capacity_channels Admitted real-time channels backing the reservation ledger.\n# TYPE rt_capacity_channels gauge\nrt_capacity_channels %d\n", cs.Channels)
		p("# HELP rt_capacity_worst_utilization EDF utilization of the most loaded link.\n# TYPE rt_capacity_worst_utilization gauge\nrt_capacity_worst_utilization %g\n", cs.WorstUtilization)
		p("# HELP rt_capacity_min_headroom_slots Tightest EDF headroom across all reserved links.\n# TYPE rt_capacity_min_headroom_slots gauge\nrt_capacity_min_headroom_slots %d\n", cs.MinHeadroomSlots)
		linkGauge := func(metric, help string, emit func(LinkCapacity) string) {
			p("# HELP %s %s\n# TYPE %s gauge\n", metric, help, metric)
			for _, lc := range cs.Links {
				p("%s{link=%q} %s\n", metric, lc.Link, emit(lc))
			}
		}
		linkGauge("rt_capacity_link_utilization", "EDF utilization reserved on the link.",
			func(l LinkCapacity) string { return fmt.Sprintf("%g", l.Utilization) })
		linkGauge("rt_capacity_link_channels", "Channels holding a reservation on the link.",
			func(l LinkCapacity) string { return fmt.Sprintf("%d", l.Channels) })
		linkGauge("rt_capacity_link_reserved_slots", "Slots per message reserved across the link's channels.",
			func(l LinkCapacity) string { return fmt.Sprintf("%d", l.ReservedSlots) })
		linkGauge("rt_capacity_link_headroom_slots", "Minimum EDF slack t-dbf(t) on the link.",
			func(l LinkCapacity) string { return fmt.Sprintf("%d", l.HeadroomSlots) })
		linkGauge("rt_capacity_link_worst_margin_slots", "Smallest admission-time margin among the link's channels.",
			func(l LinkCapacity) string { return fmt.Sprintf("%d", l.WorstMarginSlots) })
		nodeGauge := func(metric, help string, get func(NodeCapacity) int) {
			p("# HELP %s %s\n# TYPE %s gauge\n", metric, help, metric)
			for _, nc := range cs.Nodes {
				p("%s{node=%q} %d\n", metric, nc.Node, get(nc))
			}
		}
		nodeGauge("rt_capacity_node_buffers_used", "Packet-memory slots reserved at the node.",
			func(n NodeCapacity) int { return n.BuffersUsed })
		nodeGauge("rt_capacity_node_buffers_limit", "Packet-memory slots available at the node.",
			func(n NodeCapacity) int { return n.BuffersLimit })
		nodeGauge("rt_capacity_node_conns_used", "Connection identifiers held at the node.",
			func(n NodeCapacity) int { return n.ConnsUsed })
		nodeGauge("rt_capacity_node_conns_limit", "Connection-table size at the node.",
			func(n NodeCapacity) int { return n.ConnsLimit })
	}
	if as := snap.Admission; as != nil {
		admCounter := func(metric, help string, v int64) {
			p("# HELP %s %s\n# TYPE %s counter\n%s %d\n", metric, help, metric, metric, v)
		}
		admCounter("rt_admission_admits_total", "Admission requests granted.", as.Admits)
		admCounter("rt_admission_rejects_total", "Admission requests refused.", as.Rejects)
		admCounter("rt_admission_teardowns_total", "Channels torn down.", as.Teardowns)
		admCounter("rt_admission_restores_total", "Channels restored after refused reroutes.", as.Restores)
		admCounter("rt_admission_reroutes_total", "Reroute attempts.", as.Reroutes)
		admCounter("rt_admission_batch_requests_total", "Requests processed through AdmitBatch.", as.BatchRequests)
		admCounter("rt_admission_batch_chunks_total", "Speculative evaluation chunks dispatched by AdmitBatch.", as.BatchChunks)
		admCounter("rt_admission_batch_replans_total", "Batched requests re-planned serially after a footprint conflict.", as.BatchReplans)
	}
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// ServeHTTP implements http.Handler: Prometheus text by default, JSON
// with ?format=json (or a .json path suffix), for the -listen endpoint.
func (g *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.URL.Query().Get("format") == "json" || len(req.URL.Path) > 5 && req.URL.Path[len(req.URL.Path)-5:] == ".json" {
		w.Header().Set("Content-Type", "application/json")
		_ = g.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = g.WritePrometheus(w)
}
