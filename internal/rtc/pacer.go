package rtc

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/timing"
)

// Pacer is the source-side rate regulator: the piece of protocol
// software that holds locally generated messages until they come within
// a bounded window of their logical arrival times, then hands them to
// the router's time-constrained injection port.
//
// The window plays the role of h(j−1)+d(j−1) for the first hop: it
// bounds how far ahead of ℓ0 a packet can reach the source router, and
// therefore both the router buffers the connection must reserve there
// and the rollover-safety of its header stamps. A window of zero injects
// only on-time traffic.
//
// The injection port is itself a serial resource — one byte per cycle,
// shared by every channel sourced at the node — so the pacer doubles as
// its link scheduler: among eligible messages it releases the one with
// the earliest local deadline ℓ0+d, and only when the port has drained
// its previous release. The admission controller runs the same
// schedulability test on the injection port as on any mesh link, with
// this EDF order making the test sound.
//
// Pacer implements sim.Component and must be registered with the kernel
// before the routers it feeds (see sim package docs on node ordering).
type Pacer struct {
	name   string
	r      *router.Router
	wheel  timing.Wheel
	window int64
	chans  []*PacedChannel
	// queued counts the messages queued across chans (Σ Pending()), so a
	// tick with nothing to release never walks the channels.
	queued int
}

// NewPacer creates a regulator feeding the given router's injection
// port.
func NewPacer(name string, r *router.Router, window int64) (*Pacer, error) {
	if window < 0 {
		return nil, fmt.Errorf("rtc: negative pacer window %d", window)
	}
	if !r.Wheel().ValidDelay(window) {
		return nil, fmt.Errorf("rtc: pacer window %d exceeds half the clock range", window)
	}
	return &Pacer{name: name, r: r, wheel: r.Wheel(), window: window}, nil
}

// Window returns the regulator window in slots.
func (p *Pacer) Window() int64 { return p.window }

// queuedMsg is one message awaiting injection.
type queuedMsg struct {
	l       timing.Slot
	packets [][packet.TCPayloadBytes]byte
}

// PacedChannel is the source-side handle of one real-time channel.
type PacedChannel struct {
	p      *Pacer
	conn   uint8
	spec   Spec
	localD int64
	src    *Source

	// queue is head-indexed: releases advance qHead instead of
	// reslicing, so the backing array is reused rather than regrown in
	// steady state; pool recycles the packet slices of fully injected
	// messages (InjectTC copies the payloads), so a periodic source
	// stops allocating once the pool warms up.
	queue []queuedMsg
	qHead int
	pool  [][][packet.TCPayloadBytes]byte

	closed bool

	// Sent counts messages injected into the network.
	Sent int64
	// ContractViolations counts messages submitted beyond the Imin/Bmax
	// envelope. They are still carried — logical arrival times confine
	// the damage to this connection — but flagged for the application.
	ContractViolations int64
}

// Channel registers a connection on this pacer. The conn identifier
// must match the entry programmed into the source router's table, and
// localD its local delay bound d — the pacer orders releases by the
// resulting deadlines ℓ0+d.
func (p *Pacer) Channel(conn uint8, spec Spec, localD int64) (*PacedChannel, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if localD < 1 {
		return nil, fmt.Errorf("rtc: local delay bound %d must be positive", localD)
	}
	c := &PacedChannel{p: p, conn: conn, spec: spec, localD: localD, src: NewSource(spec)}
	p.chans = append(p.chans, c)
	return c, nil
}

// Submit queues one message for transmission at slot now. Messages
// longer than Smax are rejected; shorter ones are padded to whole
// packets. Each packet carries the message's logical arrival stamp.
func (c *PacedChannel) Submit(now timing.Slot, payload []byte) error {
	if c.closed {
		return fmt.Errorf("rtc: channel closed")
	}
	if len(payload) > c.spec.Smax {
		return fmt.Errorf("rtc: message of %d bytes exceeds Smax %d", len(payload), c.spec.Smax)
	}
	l := c.src.Next(now)
	if c.src.Backlog(now) > c.spec.Imin*int64(c.spec.Bmax) {
		c.ContractViolations++
	}
	n := c.spec.PacketsPerMessage()
	var pks [][packet.TCPayloadBytes]byte
	if l := len(c.pool); l > 0 && cap(c.pool[l-1]) >= n {
		pks = c.pool[l-1][:n]
		c.pool[l-1] = nil
		c.pool = c.pool[:l-1]
	} else {
		pks = make([][packet.TCPayloadBytes]byte, n)
	}
	for i := 0; i < n; i++ {
		var m int
		if lo := i * packet.TCPayloadBytes; lo < len(payload) {
			m = copy(pks[i][:], payload[lo:])
		}
		clear(pks[i][m:]) // recycled buffers must read as zero padding
	}
	if c.qHead > 0 && len(c.queue) == cap(c.queue) {
		k := copy(c.queue, c.queue[c.qHead:])
		for i := k; i < len(c.queue); i++ {
			c.queue[i] = queuedMsg{}
		}
		c.queue = c.queue[:k]
		c.qHead = 0
	}
	c.queue = append(c.queue, queuedMsg{l: l, packets: pks})
	c.p.queued++
	return nil
}

// Pending returns the number of queued (not yet injected) messages.
func (c *PacedChannel) Pending() int { return len(c.queue) - c.qHead }

// Remove unbinds a channel from the regulator; queued messages are
// dropped. Used at teardown and re-establishment.
func (p *Pacer) Remove(ch *PacedChannel) {
	ch.closed = true
	for i, c := range p.chans {
		if c == ch {
			p.chans = append(p.chans[:i], p.chans[i+1:]...)
			p.queued -= ch.Pending()
			return
		}
	}
}

// Name implements sim.Component.
func (p *Pacer) Name() string { return p.name }

// Tick implements sim.Component: when the injection port has drained
// its previous release, hand it the eligible message (ℓ0 within the
// window) with the earliest local deadline ℓ0+d.
func (p *Pacer) Tick(now sim.Cycle) {
	// Most nodes of a large mesh source no real-time channels at all, and
	// a periodic source's queue is empty between releases; such a tick is
	// pure overhead, so get out before touching the channels or the
	// router.
	if p.queued == 0 {
		return
	}
	// Keeping at most one packet queued behind the one crossing the port
	// leaves no idle cycles while preserving the release order.
	nowSlot := timing.CyclesToSlot(int64(now), packet.TCBytes)
	if p.r.TCInjectBacklog() > 1 {
		if p.r.BlameEnabled() {
			// Eligible heads held behind the injection backlog: slack
			// burns at the source before the network ever sees it.
			for _, c := range p.chans {
				if c.Pending() > 0 && int64(c.queue[c.qHead].l)-int64(nowSlot) <= p.window {
					p.r.BlamePacerHold(c.conn, 0)
				}
			}
		}
		return
	}
	var best *PacedChannel
	var bestDl timing.Slot
	for _, c := range p.chans {
		if c.Pending() == 0 {
			continue
		}
		m := c.queue[c.qHead]
		if int64(m.l)-int64(nowSlot) > p.window {
			continue
		}
		dl := m.l + timing.Slot(c.localD)
		if best == nil || dl < bestDl {
			best, bestDl = c, dl
		}
	}
	if best == nil {
		return
	}
	if p.r.BlameEnabled() {
		// The EDF losers among eligible heads spend this cycle held; the
		// released channel takes the blame (pacer ticks in the same node
		// shard as the router, so the bank write is race-free).
		for _, c := range p.chans {
			if c != best && c.Pending() > 0 && int64(c.queue[c.qHead].l)-int64(nowSlot) <= p.window {
				p.r.BlamePacerHold(c.conn, best.conn)
			}
		}
	}
	m := best.queue[best.qHead]
	stamp := packet.StampOf(p.wheel.Wrap(m.l))
	for _, body := range m.packets {
		p.r.InjectTC(packet.TCPacket{Conn: best.conn, Stamp: stamp, Payload: body})
	}
	best.queue[best.qHead] = queuedMsg{}
	best.qHead++
	if best.qHead == len(best.queue) {
		best.queue = best.queue[:0]
		best.qHead = 0
	}
	best.pool = append(best.pool, m.packets)
	best.Sent++
	p.queued--
}

// NextWork implements sim.Skipper: with every channel queue empty a
// tick is pure (the eligibility scan finds nothing and writes nothing),
// and nothing can enqueue during a skipped span — Submit happens from
// generators, which the kernel also holds idle. Any queued message
// makes the pacer immediate work: eligibility depends on the moving
// slot clock, so it is re-examined every cycle.
func (p *Pacer) NextWork(now sim.Cycle) sim.Cycle {
	if p.queued > 0 {
		return now
	}
	return sim.Never
}

// Skip implements sim.Skipper; idle pacer cycles have no effects.
func (p *Pacer) Skip(now, target sim.Cycle) {}

var _ sim.Skipper = (*Pacer)(nil)
