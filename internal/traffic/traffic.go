// Package traffic provides deterministic workload generators and
// measurement sinks for the experiment harness: periodic and backlogged
// real-time channel sources, rate-controlled best-effort sources with
// configurable destination and size distributions, and delivery sinks
// that recover end-to-end latency from probe payloads.
package traffic

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/mesh"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timing"
)

// Probe is the instrumentation header generators place at the front of
// payloads so sinks can measure end-to-end latency without any
// simulator back-channel: the bytes travel through the routers like any
// other data.
const ProbeBytes = 12

// EncodeProbe writes the injection cycle and sequence number into the
// first ProbeBytes of dst.
func EncodeProbe(dst []byte, cycle int64, seq uint32) {
	if len(dst) < ProbeBytes {
		panic("traffic: probe destination too short")
	}
	binary.BigEndian.PutUint64(dst[0:8], uint64(cycle))
	binary.BigEndian.PutUint32(dst[8:12], seq)
}

// DecodeProbe recovers the injection cycle and sequence number.
func DecodeProbe(src []byte) (cycle int64, seq uint32) {
	if len(src) < ProbeBytes {
		return 0, 0
	}
	return int64(binary.BigEndian.Uint64(src[0:8])), binary.BigEndian.Uint32(src[8:12])
}

// ProbeLatency recovers the injection-to-delivery latency in cycles
// from a probe payload. A payload without a probe decodes to injection
// cycle zero and one stamped after its own delivery cannot be a probe;
// neither yields a latency.
func ProbeLatency(payload []byte, delivered int64) (int64, bool) {
	inj, _ := DecodeProbe(payload)
	return delivered - inj, inj > 0 && inj <= delivered
}

// TCPattern selects how a time-constrained source generates messages.
type TCPattern int

const (
	// Periodic submits one message every Imin slots — the nominal
	// real-time workload.
	Periodic TCPattern = iota
	// Backlogged keeps the channel's queue non-empty, the "continual
	// backlog" condition of Figure 7; throughput is then set entirely by
	// the reservation.
	Backlogged
	// Bursty submits Bmax+1 messages at once every Bmax+1 periods,
	// exercising the burst allowance of the arrival model.
	Bursty
)

// Sender is where a generator submits messages: the raw source
// regulator handle (rtc.PacedChannel) or a facade that survives channel
// re-establishment (core.Channel).
type Sender interface {
	Submit(now timing.Slot, payload []byte) error
	Pending() int
}

// TCApp drives one real-time channel with a synthetic message pattern.
// It implements sim.Skipper; nothing pushes into it, so the wake lists
// leave it out until its NextWork.
type TCApp struct {
	name    string
	ch      Sender
	spec    rtc.Spec
	pattern TCPattern
	size    int
	seq     uint32
	body    []byte // scratch payload buffer, reused across messages

	nextSlot timing.Slot
	stopped  bool

	// Submitted counts messages handed to the regulator.
	Submitted int64
	// Errors counts submissions refused (e.g. the channel closed after a
	// failed re-establishment); the generator stops at the first one.
	Errors int64
}

// NewTCApp creates a generator for an admitted channel. size is the
// message payload length (capped at the spec's Smax, with room for the
// probe header).
func NewTCApp(name string, ch Sender, spec rtc.Spec, pattern TCPattern, size int) (*TCApp, error) {
	if size < ProbeBytes {
		size = ProbeBytes
	}
	if size > spec.Smax {
		return nil, fmt.Errorf("traffic: message size %d exceeds Smax %d", size, spec.Smax)
	}
	return &TCApp{name: name, ch: ch, spec: spec, pattern: pattern, size: size}, nil
}

// Name implements sim.Component.
func (a *TCApp) Name() string { return a.name }

// Tick implements sim.Component.
func (a *TCApp) Tick(now sim.Cycle) {
	if a.stopped {
		return
	}
	nowSlot := timing.CyclesToSlot(int64(now), packet.TCBytes)
	switch a.pattern {
	case Backlogged:
		// Keep a couple of messages queued beyond what the regulator can
		// release, so the source never idles.
		for a.ch.Pending() < 2 {
			a.submit(int64(now), nowSlot)
		}
	case Bursty:
		if nowSlot >= a.nextSlot {
			n := a.spec.Bmax + 1
			for i := 0; i < n; i++ {
				a.submit(int64(now), nowSlot)
			}
			a.nextSlot = nowSlot + timing.Slot(a.spec.Imin*int64(n))
		}
	default: // Periodic
		if nowSlot >= a.nextSlot {
			a.submit(int64(now), nowSlot)
			a.nextSlot = nowSlot + timing.Slot(a.spec.Imin)
		}
	}
}

// NextWork implements sim.Skipper: a stopped generator never works
// again; a backlogged one must tick every cycle to keep its queue
// topped up; periodic and bursty sources next act at the first cycle of
// their next submission slot. Idle cycles before that are pure, so Skip
// has nothing to replay.
func (a *TCApp) NextWork(now sim.Cycle) sim.Cycle {
	if a.stopped {
		return sim.Never
	}
	if a.pattern == Backlogged {
		return now
	}
	next := sim.Cycle(int64(a.nextSlot) * packet.TCBytes)
	if next <= now {
		return now
	}
	return next
}

// Skip implements sim.Skipper; idle generator cycles have no effects.
func (a *TCApp) Skip(now, target sim.Cycle) {}

func (a *TCApp) submit(cycle int64, nowSlot timing.Slot) {
	// Submit copies the payload into the channel's pooled packet arrays,
	// so a single scratch buffer serves every message.
	if cap(a.body) < a.size {
		a.body = make([]byte, a.size)
	}
	body := a.body[:a.size]
	clear(body[ProbeBytes:]) // zero padding, as a fresh buffer would carry
	EncodeProbe(body, cycle, a.seq)
	a.seq++
	if err := a.ch.Submit(nowSlot, body); err != nil {
		// Sizes are validated at construction, so a refusal means the
		// channel died underneath us (teardown or a failed reroute):
		// stop generating rather than wedge the simulation.
		a.Errors++
		a.stopped = true
		return
	}
	a.Submitted++
}

// DstPicker selects a destination for each best-effort packet.
type DstPicker func(rng *rand.Rand) mesh.Coord

// UniformDst picks uniformly over the mesh, excluding the source (a node
// of the mesh): one draw over the other n−1 nodes in row-major order,
// read off net.Coords() past the source's own index, so no source keeps
// a copy of the mesh.
func UniformDst(net *mesh.Network, src mesh.Coord) DstPicker {
	coords, skip := net.Coords(), net.Shard(src)
	return func(rng *rand.Rand) mesh.Coord {
		if len(coords) == 1 {
			return src
		}
		i := rng.Intn(len(coords) - 1)
		if i >= skip {
			i++
		}
		return coords[i]
	}
}

// FixedDst always picks dst.
func FixedDst(dst mesh.Coord) DstPicker {
	return func(*rand.Rand) mesh.Coord { return dst }
}

// SizePicker selects a payload size for each best-effort packet.
type SizePicker func(rng *rand.Rand) int

// FixedSize always returns n.
func FixedSize(n int) SizePicker { return func(*rand.Rand) int { return n } }

// UniformSize returns sizes uniformly in [lo, hi]. A degenerate or
// inverted range (hi <= lo) clamps to a fixed size of lo rather than
// panicking inside rng.Intn, so callers need not pre-validate.
func UniformSize(lo, hi int) SizePicker {
	if hi <= lo {
		return FixedSize(lo)
	}
	return func(rng *rand.Rand) int { return lo + rng.Intn(hi-lo+1) }
}

// BEApp injects best-effort packets at a target byte rate using a token
// bucket: Rate is in bytes per cycle (1.0 saturates a link). It
// implements sim.Component.
type BEApp struct {
	name string
	r    *router.Router
	src  mesh.Coord
	dst  DstPicker
	size SizePicker
	rate float64
	rng  *rand.Rand

	tokens  float64
	limit   float64 // idle-bucket cap, 4·rate·TCBytes (precomputed)
	pending int     // size of the packet awaiting tokens
	pdst    mesh.Coord
	seq     uint32
	body    []byte // scratch payload buffer, reused across packets

	// Injected counts packets queued at the router.
	Injected int64
	// InjectedBytes counts total frame bytes queued.
	InjectedBytes int64
}

// beMaxBacklog bounds how many frames a source keeps queued behind the
// injection port. Small enough that circulation stays within the
// router's frame pool, large enough to keep the port busy through
// short arbitration stalls.
const beMaxBacklog = 4

// NewBEApp creates a best-effort source at src on the given network.
func NewBEApp(name string, net *mesh.Network, src mesh.Coord, dst DstPicker, size SizePicker, rate float64, seed int64) (*BEApp, error) {
	r := net.Router(src)
	if r == nil {
		return nil, fmt.Errorf("traffic: source %s outside mesh", src)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("traffic: rate %v must be positive", rate)
	}
	return &BEApp{
		name: name, r: r, src: src, dst: dst, size: size, rate: rate,
		limit: 4 * rate * float64(packet.TCBytes),
		rng:   rand.New(rand.NewSource(seed)),
	}, nil
}

// Name implements sim.Component.
func (a *BEApp) Name() string { return a.name }

// Tick implements sim.Component.
func (a *BEApp) Tick(now sim.Cycle) {
	a.tokens += a.rate
	// Cap the idle bucket so quiet periods don't bank unbounded bursts;
	// once a packet is chosen the bucket must be allowed to reach its
	// frame length.
	if a.pending == 0 && a.tokens > a.limit {
		a.tokens = a.limit
	}
	if a.pending == 0 {
		a.pending = a.size(a.rng)
		if a.pending < ProbeBytes {
			a.pending = ProbeBytes
		}
		a.pdst = a.dst(a.rng)
	}
	frameLen := a.pending + packet.BEHeaderBytes
	if a.tokens < float64(frameLen) {
		return
	}
	// Closed-loop injection: when the router's injection port is backed
	// up, hold the frame instead of queueing unboundedly behind it. The
	// bucket is clamped to exactly the frame cost so the stall does not
	// bank a burst, and the bounded backlog keeps the router's recycled
	// frame pool warm — a saturated source stops allocating rather than
	// growing an infinite queue.
	if a.r.BEInjectBacklog() >= beMaxBacklog {
		if a.tokens > float64(frameLen) {
			a.tokens = float64(frameLen)
		}
		return
	}
	a.tokens -= float64(frameLen)
	if cap(a.body) < a.pending {
		a.body = make([]byte, a.pending)
	}
	body := a.body[:a.pending]
	clear(body[ProbeBytes:]) // zero padding, as a fresh buffer would carry
	EncodeProbe(body, int64(now), a.seq)
	a.seq++
	xo, yo := mesh.BEOffsets(a.src, a.pdst)
	// Build the frame in a buffer recycled from the injection port, so a
	// steady-state source stops allocating once the pool warms up.
	frame, err := packet.AppendBE(a.r.BEFrameBuf(), xo, yo, body)
	if err != nil {
		panic("traffic: " + err.Error())
	}
	a.r.InjectBE(frame)
	a.Injected++
	a.InjectedBytes += int64(len(frame))
	a.pending = 0
}

// NextWork implements sim.Skipper: the token bucket accrues every
// cycle, so the source next acts when the bucket could cover the
// pending frame. The estimate deliberately undershoots by two cycles to
// absorb floating-point accumulation error — an underestimate only
// shortens a skip, never changes behaviour. With no frame pending the
// very next tick picks one, so the source is immediate work.
func (a *BEApp) NextWork(now sim.Cycle) sim.Cycle {
	if a.pending == 0 {
		return now
	}
	need := float64(a.pending+packet.BEHeaderBytes) - a.tokens
	if need <= 0 {
		return now
	}
	wait := int64(need/a.rate) - 2
	if wait <= 0 {
		return now
	}
	return now + sim.Cycle(wait)
}

// Skip implements sim.Skipper: replay the skipped cycles' token
// accrual one step at a time — floating-point addition is not
// associative, so a closed-form n·rate would diverge from the ticked
// run. The idle-bucket cap never engages here (it applies only with no
// frame pending, when NextWork forbids skipping), and NextWork's
// undershoot guarantees the bucket stays short of the frame throughout
// the span.
func (a *BEApp) Skip(now, target sim.Cycle) {
	for c := now; c < target; c++ {
		a.tokens += a.rate
	}
}

// Sink drains a router's delivery queues and accumulates latency
// statistics from probe payloads. It implements sim.Sleeper: the router
// wakes it for every delivery (Router.WakeOnDelivery), so on a wake
// list it ticks only in the cycles something was delivered (on the pool,
// through the end of that step). Registered after the router it serves, it drains a
// delivery in the cycle it was made.
type Sink struct {
	name string
	r    *router.Router

	TCLatency stats.Hist // cycles, injection to delivery
	BELatency stats.Hist
	TCCount   int64
	BECount   int64

	// OnTC, if set, observes every time-constrained delivery.
	OnTC func(router.DeliveredTC)
	// OnBE, if set, observes every best-effort delivery.
	OnBE func(router.DeliveredBE)
	// OnTCLatency, if set, observes the probe-measured end-to-end
	// latency (byte cycles) of every time-constrained delivery whose
	// payload carries a valid probe, keyed by the delivery connection
	// id. A separate hook from OnTC so SLO accounting composes with a
	// user-installed delivery observer.
	OnTCLatency func(conn uint8, latency int64)
}

// NewSink creates a delivery sink for one router.
func NewSink(name string, r *router.Router) *Sink {
	return &Sink{name: name, r: r}
}

// Name implements sim.Component.
func (s *Sink) Name() string { return s.name }

// Reset discards accumulated statistics (for post-warmup measurement).
func (s *Sink) Reset() {
	s.TCLatency.Reset()
	s.BELatency.Reset()
	s.TCCount = 0
	s.BECount = 0
}

// NextWork implements sim.Skipper: with nothing delivered the drain is
// a no-op, and the next delivery wakes the sink.
func (s *Sink) NextWork(now sim.Cycle) sim.Cycle {
	if s.r.HasDeliveries() {
		return now
	}
	return sim.Never
}

// Skip implements sim.Skipper; idle sink cycles have no effects.
func (s *Sink) Skip(now, target sim.Cycle) {}

// SetAlarm implements sim.Sleeper: the router rings the alarm at every
// delivery.
func (s *Sink) SetAlarm(a *sim.Alarm) { s.r.WakeOnDelivery(a) }

// Tick implements sim.Component.
func (s *Sink) Tick(now sim.Cycle) {
	// Idle-cycle fast path, for a kernel that ticks every sink every
	// cycle (one with a barrier component), and for the cycles a woken
	// pool tile ticks a sink before its step boundary puts it to sleep.
	if !s.r.HasDeliveries() {
		return
	}
	for _, d := range s.r.DrainTC() {
		s.TCCount++
		if lat, ok := ProbeLatency(d.Payload[:], d.Cycle); ok {
			s.TCLatency.AddInt(lat)
			if s.OnTCLatency != nil {
				s.OnTCLatency(d.Conn, lat)
			}
		}
		if s.OnTC != nil {
			s.OnTC(d)
		}
	}
	for _, d := range s.r.DrainBE() {
		s.BECount++
		if lat, ok := ProbeLatency(d.Payload, d.Cycle); ok {
			s.BELatency.AddInt(lat)
		}
		if s.OnBE != nil {
			s.OnBE(d)
		}
	}
}

// Compile-time checks: every generator and sink supports the kernel's
// quiescence fast-forward.
var (
	_ sim.Skipper = (*TCApp)(nil)
	_ sim.Skipper = (*BEApp)(nil)
	_ sim.Sleeper = (*Sink)(nil)
)
