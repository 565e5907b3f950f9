// Package router implements the real-time router chip of Rexford, Hall &
// Shin (ISCA 1996) as a cycle-accurate synchronous model.
//
// The router serves a node of a 2-D mesh: four bidirectional mesh links,
// separate injection ports for time-constrained and best-effort traffic,
// and a shared reception port (Figure 2). Each physical link carries two
// virtual channels — a packet-switched channel for fixed-size
// time-constrained packets and a wormhole channel for variable-size
// best-effort packets — discriminated by a single type bit, with an
// acknowledgement bit for best-effort flit credits in the reverse
// direction.
//
// Time-constrained packets are stored in a shared 256-slot packet memory,
// scheduled for the five output ports by a single shared comparator tree
// over deadline-normalized sorting keys, and routed by a connection table
// programmed through the control interface (Table 3). Best-effort packets
// cut through with dimension-ordered routing, 10-byte flit buffers at each
// input, round-robin arbitration over inputs, and byte-level preemption
// whenever an on-time time-constrained packet awaits service.
package router

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sched"
)

// Output/input port indices. The four mesh directions, then the local
// port (reception on the output side, injection on the input side).
const (
	PortXPlus  = 0
	PortXMinus = 1
	PortYPlus  = 2
	PortYMinus = 3
	PortLocal  = 4
	NumPorts   = 5
	// NumLinks is the number of physical mesh links (ports with wires).
	NumLinks = 4
)

// The chip's fixed datapath sizes and timings (Table 4a, §5.2).
const (
	// FlitBufBytes is the per-input best-effort flit buffer capacity; it
	// holds a whole best-effort header.
	FlitBufBytes = 10
	// ChunkBytes is the packet-memory word width; the internal bus moves
	// one chunk per cycle. It divides packet.TCBytes.
	ChunkBytes = 10
	// SchedPeriod is the number of cycles between comparator-tree
	// results: the paper's two-stage pipeline produces one selection per
	// stage time (~50 ns ≈ 2.5 cycles), rounded up.
	SchedPeriod = 3
	// BEHeadDelay is the per-hop pipeline delay, in cycles, between a
	// best-effort header being decoded and its first flit leaving: the
	// paper's byte synchronization plus five-byte chunk accumulation for
	// the router's internal bus (Section 5.2 attributes its 30-cycle
	// three-hop overhead to these).
	BEHeadDelay = 5
)

// PeerPort returns the port by which the router at the far end of the
// link leaving through p receives it (+x ↔ −x, +y ↔ −y); the local port
// is its own peer.
func PeerPort(p int) int {
	if p < NumLinks {
		return p ^ 1
	}
	return p
}

// PortName returns a short label for a port index.
func PortName(p int) string {
	switch p {
	case PortXPlus:
		return "+x"
	case PortXMinus:
		return "-x"
	case PortYPlus:
		return "+y"
	case PortYMinus:
		return "-y"
	case PortLocal:
		return "local"
	default:
		return fmt.Sprintf("port(%d)", p)
	}
}

// Config holds the architectural parameters of Table 4a that callers
// vary, plus the simulation knobs that stand in for circuit timings; the
// fixed datapath sizes are the constants above. A port's horizon is not
// configuration: it starts at 0 and changes through the control
// interface (SetHorizon).
type Config struct {
	// Slots is the number of time-constrained packet buffers in the
	// shared memory (and comparator-tree leaves). Paper: 256.
	Slots int
	// Conns is the size of the connection table. Paper: 256.
	Conns int
	// ClockBits is the width of the on-chip slot clock; sorting keys are
	// one bit wider. At most 8, the width of the header stamp field.
	// Paper: 8.
	ClockBits uint
	// LeafSharing is the §5.1 cost-reduction factor: combining
	// LeafSharing leaves into one module with a single comparator shrinks
	// the tree by that factor but serializes each module's packets, so a
	// selection takes LeafSharing times as long — modelled as a
	// proportionally slower scheduler beat. Default 1 (the paper's chip).
	LeafSharing int
	// Scheduler is the order the comparator tree serves in (default
	// sched.OrderEDF, the paper's).
	Scheduler sched.Order
	// ApproxShift is the key-quantization exponent for
	// sched.OrderApprox: laxities within the same 2^ApproxShift-slot
	// bucket are not distinguished. Ignored by other orders.
	ApproxShift uint
	// VCT enables the virtual cut-through extension for time-constrained
	// traffic sketched in the paper's Section 7: an arriving packet may
	// proceed directly to an idle output if nothing more urgent waits.
	VCT bool
	// SkewCycles offsets this router's slot clock from global time, in
	// byte cycles (positive = this clock runs ahead). Section 4.1 assumes
	// routers share a common notion of time within bounded skew; this
	// knob quantifies how much skew the design tolerates (experiment X8).
	SkewCycles int64
	// Integrity enables link-level error detection: a CRC-8 rides the
	// tail phit of every time-constrained frame and the sideband of every
	// best-effort flit. Corrupted time-constrained packets are dropped at
	// the input (the reservation model absorbs the loss as slack);
	// corrupted best-effort flits are nacked over the reverse channel and
	// retransmitted by the sender. Off by default: with Integrity false
	// the wire protocol is bit-identical to the base design.
	Integrity bool
	// BERetryLimit bounds how many times one best-effort frame may be
	// retransmitted after a nack before the sender aborts it with an
	// Abort tail flit. Zero means the default (8). Ignored unless
	// Integrity is set.
	BERetryLimit int
	// LinkLatency is the one-way mesh-wire latency in cycles (phit and
	// acknowledgement alike). Zero means the default of 1, the paper's
	// single-cycle wire. Longer wires model pipelined board-level links.
	// The parallel kernel derives its synchronization epoch from this
	// latency (it rendezvous once per minimum cross-shard wire latency),
	// so nothing else sets the epoch. The best-effort nack window scales
	// with the round trip automatically.
	LinkLatency int
}

// linkLatency returns the effective wire latency (the zero value means
// the paper's single-cycle link).
func (c Config) linkLatency() int64 {
	if c.LinkLatency <= 0 {
		return 1
	}
	return int64(c.LinkLatency)
}

// DefaultConfig returns the paper's chip configuration.
func DefaultConfig() Config {
	return Config{
		Slots:        256,
		Conns:        256,
		ClockBits:    8,
		LeafSharing:  1,
		BERetryLimit: 8,
	}
}

// Validate reports the first configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.Slots < 1:
		return fmt.Errorf("router: Slots must be positive, got %d", c.Slots)
	case c.Conns < 1 || c.Conns > 256:
		return fmt.Errorf("router: Conns must be in [1,256] (8-bit header id), got %d", c.Conns)
	case c.ClockBits < 2 || c.ClockBits > 8:
		return fmt.Errorf("router: ClockBits must be in [2,8] (8-bit header stamp), got %d", c.ClockBits)
	case c.LeafSharing < 1:
		return fmt.Errorf("router: LeafSharing must be at least 1, got %d", c.LeafSharing)
	case c.BERetryLimit < 0:
		return fmt.Errorf("router: BERetryLimit must be non-negative, got %d", c.BERetryLimit)
	case c.LinkLatency < 0 || c.LinkLatency > 64:
		return fmt.Errorf("router: LinkLatency must be in [0,64], got %d", c.LinkLatency)
	case c.Scheduler == sched.OrderApprox && c.ApproxShift >= c.ClockBits:
		return fmt.Errorf("router: ApproxShift %d leaves no key bits on a %d-bit clock",
			c.ApproxShift, c.ClockBits)
	}
	if max := int64(1) << (c.ClockBits - 2) * packet.TCBytes; c.SkewCycles > max || c.SkewCycles < -max {
		return fmt.Errorf("router: clock skew %d cycles exceeds a quarter of the clock range", c.SkewCycles)
	}
	return nil
}
