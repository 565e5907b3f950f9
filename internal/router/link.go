package router

import (
	"repro/internal/packet"
	"repro/internal/sim"
)

// Channel is one unidirectional physical link: a phit wire forward and
// an acknowledgement wire back, each a fixed-latency delay line. A mesh
// wires two Channels (one per direction) between each pair of
// neighbours. The default latency of one cycle is the paper's wire; a
// longer latency models a pipelined board-level link, and — because the
// kernel learns each wire's latency — is also what the parallel engine
// derives its synchronization epoch from.
type Channel struct {
	data *sim.Pipe[packet.Phit]
	ack  *sim.Pipe[packet.Ack]
}

// NewChannel creates a one-cycle channel with unknown endpoint shards
// and registers its wires with the kernel (which then steps every
// cycle). Meshes use NewChannelShards so the kernel can derive its
// epoch from the wire.
func NewChannel(k *sim.Kernel) *Channel {
	return NewChannelShards(k, 1, -1, -1)
}

// NewChannelShards creates a channel of the given latency between a
// driving component in srcShard and a receiving component in dstShard
// (-1 when unknown), and registers both wires with the kernel: the phit
// wire carries src→dst, the ack wire dst→src.
func NewChannelShards(k *sim.Kernel, latency int64, srcShard, dstShard int) *Channel {
	c := &Channel{
		data: sim.NewPipe[packet.Phit](latency),
		ack:  sim.NewPipe[packet.Ack](latency),
	}
	k.AttachPipe(c.data, srcShard, dstShard)
	k.AttachPipe(c.ack, dstShard, srcShard)
	return c
}

// Latency returns the channel's one-way wire latency in cycles.
func (c *Channel) Latency() int64 { return c.data.Latency() }

// inbound is what a receiving router asks of an inbound wire's delay
// line to keep the wire's arrival stamps in its own stamp block (see
// Router.lendStamps): the phit wire for the holder of the InLink, the
// ack wire for the holder of the OutLink.
type inbound interface {
	Ring() int
	MirrorStamps(m []uint16)
}

// Out returns the sending end of the channel.
func (c *Channel) Out() *OutLink { return &OutLink{c} }

// In returns the receiving end of the channel.
func (c *Channel) In() *InLink { return &InLink{c} }

// OutLink is the transmit side of a channel: drive phits, read acks.
type OutLink struct{ ch *Channel }

// Drive places a phit on the wire at cycle now; it arrives at the far
// end after the channel latency.
func (o *OutLink) Drive(now int64, p packet.Phit) { o.ch.data.Write(sim.Cycle(now), p) }

// Ack returns the acknowledgement arriving from the receiver at now.
func (o *OutLink) Ack(now int64) packet.Ack { return o.ch.ack.Read(sim.Cycle(now)) }

// Latency returns the channel's one-way wire latency in cycles.
func (o *OutLink) Latency() int64 { return o.ch.Latency() }

// InLink is the receive side of a channel: read phits, drive acks.
type InLink struct{ ch *Channel }

// Phit returns the phit arriving on the wire at cycle now.
func (i *InLink) Phit(now int64) packet.Phit { return i.ch.data.Read(sim.Cycle(now)) }

// DriveAck returns a flit credit to the sender at cycle now.
func (i *InLink) DriveAck(now int64, a packet.Ack) { i.ch.ack.Write(sim.Cycle(now), a) }

// Latency returns the channel's one-way wire latency in cycles.
func (i *InLink) Latency() int64 { return i.ch.Latency() }

// Loopback wires an output port of a router directly to one of its own
// input ports through a normal one-cycle channel, reproducing the
// single-chip multi-hop configuration of the paper's first experiment.
func Loopback(k *sim.Kernel, r *Router, outPort, inPort int) {
	ch := NewChannel(k)
	r.ConnectOut(outPort, ch.Out())
	r.ConnectIn(inPort, ch.In())
}
