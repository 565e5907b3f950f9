// Package baseline provides the comparator router architectures the
// paper positions itself against (Section 6, Related Work):
//
//   - PFRouter, a behavioural model of the priority-forwarding router
//     chip of Toda et al. [reference 5]: input-queued, packet-switched,
//     small per-input priority queues with static per-packet priorities,
//     and a priority-inheritance protocol that lets the head of a full
//     input buffer inherit the priority of the highest-priority packet
//     still waiting upstream.
//   - Configuration constructors that turn the real-time router into its
//     own ablations (FIFO scheduling, static-priority scheduling), which
//     stand in for output-queued designs without deadline hardware and
//     for priority-virtual-channel designs respectively.
//
// The PF model carries the same 20-byte time-constrained packets as the
// real-time router, with the header stamp byte reinterpreted as the
// packet's static priority (smaller = more urgent) — an 8-bit rendition
// of the chip's 32-bit priority field. It reuses the mesh link types, so
// experiments can wire either architecture into the same harness.
package baseline

import (
	"fmt"
	"sort"

	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/sim"
)

// PFQueueDepth is the per-input priority queue capacity of the
// priority-forwarding chip (8 packets in the published design).
const PFQueueDepth = 8

// PFEntry is one routing-table row of the PF model: incoming id →
// outgoing id and output port set. Priorities travel with packets, not
// connections, so no delay field exists.
type PFEntry struct {
	Valid bool
	Out   uint8
	Mask  sched.PortMask
}

// PFStats aggregates the model's counters.
type PFStats struct {
	Arrived      int64
	Transmitted  [router.NumPorts]int64
	Delivered    int64
	DropsNoRoute int64
	DropsOverrun int64
	Inherited    int64 // head-priority boosts received
}

// pfPacket is one queued packet with its effective priority.
type pfPacket struct {
	prio uint8 // static priority from the header stamp byte
	data [packet.TCBytes]byte
	seq  int64 // FIFO tie-break
}

// pfInput is one input port: byte assembly plus the priority queue.
type pfInput struct {
	asm     [packet.TCBytes]byte
	nAsm    int
	queue   []pfPacket // sorted by (prio, seq)
	inherit uint8      // sideband-boosted head priority (255 = none)
	popped  int        // packets removed this cycle → credits to return
}

// pfOutput is one output port: transmission state and downstream
// credits.
type pfOutput struct {
	credits  int
	txActive bool
	txBuf    [packet.TCBytes]byte
	txIdx    int
	rxBuf    [packet.TCBytes]byte // local reception assembly
}

// PFRouter is the priority-forwarding router model. It implements
// sim.Component and wires into the same channels as the real-time
// router.
type PFRouter struct {
	name  string
	table []PFEntry
	in    [router.NumLinks]*router.InLink
	out   [router.NumLinks]*router.OutLink

	inputs  [router.NumPorts]*pfInput
	outputs [router.NumPorts]*pfOutput

	injQ      [][packet.TCBytes]byte
	injCount  int
	injPkt    [packet.TCBytes]byte
	delivered []router.DeliveredTC

	seq      int64
	nowCycle int64

	Stats PFStats
}

// NewPFRouter creates a priority-forwarding router with the given
// routing-table size.
func NewPFRouter(name string, conns int) (*PFRouter, error) {
	if conns < 1 || conns > 256 {
		return nil, fmt.Errorf("baseline: conns %d out of [1,256]", conns)
	}
	r := &PFRouter{name: name, table: make([]PFEntry, conns)}
	for i := 0; i < router.NumPorts; i++ {
		r.inputs[i] = &pfInput{inherit: 255}
		r.outputs[i] = &pfOutput{credits: PFQueueDepth}
	}
	return r, nil
}

// Name implements sim.Component.
func (r *PFRouter) Name() string { return r.name }

// ConnectIn attaches a link receive side to input port p.
func (r *PFRouter) ConnectIn(p int, l *router.InLink) { r.in[p] = l }

// ConnectOut attaches a link transmit side to output port p.
func (r *PFRouter) ConnectOut(p int, l *router.OutLink) { r.out[p] = l }

// SetRoute programs one table entry.
func (r *PFRouter) SetRoute(in, out uint8, mask sched.PortMask) error {
	if int(in) >= len(r.table) {
		return fmt.Errorf("baseline: id %d exceeds table size %d", in, len(r.table))
	}
	if mask == 0 || mask >= 1<<router.NumPorts {
		return fmt.Errorf("baseline: invalid port mask %#x", mask)
	}
	if mask.Count() != 1 {
		return fmt.Errorf("baseline: priority-forwarding model is unicast only")
	}
	r.table[in] = PFEntry{Valid: true, Out: out, Mask: mask}
	return nil
}

// Inject queues a packet at the injection port; the stamp byte is the
// packet's static priority.
func (r *PFRouter) Inject(p packet.TCPacket) {
	r.injQ = append(r.injQ, packet.EncodeTC(p))
}

// DrainTC returns and clears delivered packets.
func (r *PFRouter) DrainTC() []router.DeliveredTC {
	d := r.delivered
	r.delivered = nil
	return d
}

// Tick implements sim.Component.
func (r *PFRouter) Tick(now sim.Cycle) {
	r.nowCycle = int64(now)
	for p := 0; p < router.NumPorts; p++ {
		r.arbitrate(p)
	}
	r.sampleInputs()
	r.driveAcks()
}

// headFor returns the input whose queue head targets output port p with
// the best effective priority, or -1.
func (r *PFRouter) headFor(p int) int {
	best, bestPrio := -1, uint32(1<<16)
	for i := 0; i < router.NumPorts; i++ {
		q := r.inputs[i].queue
		if len(q) == 0 {
			continue
		}
		ent := r.table[q[0].data[0]]
		if !ent.Valid || !ent.Mask.Has(p) {
			continue
		}
		prio := uint32(q[0].prio)
		if eff := uint32(r.inputs[i].inherit); eff < prio {
			prio = eff
		}
		if prio < bestPrio {
			bestPrio = prio
			best = i
		}
	}
	return best
}

func (r *PFRouter) arbitrate(p int) {
	o := r.outputs[p]
	if o.txActive {
		r.emit(p)
		return
	}
	in := r.headFor(p)
	if in < 0 {
		return
	}
	if p != router.PortLocal {
		if r.out[p] == nil {
			// Dead port: discard (mirrors the real-time router's drain).
			r.popHead(in)
			return
		}
		if o.credits <= 0 {
			// Blocked: advertise the best waiting priority downstream so
			// the full input buffer's head can inherit it.
			q := r.inputs[in].queue
			r.out[p].Drive(r.nowCycle, packet.Phit{SideValid: true, Side: q[0].prio})
			return
		}
		o.credits--
	}
	pkt := r.popHead(in)
	ent := r.table[pkt.data[0]]
	o.txBuf = pkt.data
	o.txBuf[0] = ent.Out // rewrite the connection id; priority stays
	o.txActive = true
	o.txIdx = 0
	r.Stats.Transmitted[p]++
	r.emit(p)
}

func (r *PFRouter) popHead(in int) pfPacket {
	u := r.inputs[in]
	pkt := u.queue[0]
	u.queue = u.queue[1:]
	u.inherit = 255 // inheritance applies to the departed head only
	u.popped++
	return pkt
}

func (r *PFRouter) emit(p int) {
	o := r.outputs[p]
	b := o.txBuf[o.txIdx]
	head := o.txIdx == 0
	tail := o.txIdx == packet.TCBytes-1
	if p == router.PortLocal {
		o.rxBuf[o.txIdx] = b
		o.txIdx++
		if tail {
			o.txActive = false
			pk := packet.DecodeTC(o.rxBuf)
			r.delivered = append(r.delivered, router.DeliveredTC{
				Conn: pk.Conn, Stamp: pk.Stamp, Payload: pk.Payload, Cycle: r.nowCycle,
			})
			r.Stats.Delivered++
		}
		return
	}
	o.txIdx++
	if tail {
		o.txActive = false
	}
	r.out[p].Drive(r.nowCycle, packet.Phit{Valid: true, VC: packet.VCTime, Data: b, Head: head, Tail: tail})
}

func (r *PFRouter) sampleInputs() {
	for p := 0; p < router.NumLinks; p++ {
		if r.in[p] != nil {
			ph := r.in[p].Phit(r.nowCycle)
			if ph.Valid && ph.VC == packet.VCTime {
				r.acceptByte(p, ph.Data)
			}
			if ph.SideValid {
				u := r.inputs[p]
				if len(u.queue) > 0 && ph.Side < u.inherit && ph.Side < u.queue[0].prio {
					u.inherit = ph.Side
					r.Stats.Inherited++
				}
			}
		}
		if r.out[p] != nil && r.out[p].Ack(r.nowCycle).TCCredit {
			if o := r.outputs[p]; o.credits < PFQueueDepth {
				o.credits++
			}
		}
	}
	r.feedInjection()
}

func (r *PFRouter) acceptByte(in int, b byte) {
	u := r.inputs[in]
	u.asm[u.nAsm] = b
	u.nAsm++
	if u.nAsm < packet.TCBytes {
		return
	}
	u.nAsm = 0
	r.enqueue(in, u.asm)
}

func (r *PFRouter) enqueue(in int, data [packet.TCBytes]byte) {
	u := r.inputs[in]
	if !r.table[data[0]].Valid {
		r.Stats.DropsNoRoute++
		return
	}
	if len(u.queue) >= PFQueueDepth {
		// Credits make this unreachable from a correct upstream.
		r.Stats.DropsOverrun++
		return
	}
	pkt := pfPacket{prio: data[1], data: data, seq: r.seq}
	r.seq++
	u.queue = append(u.queue, pkt)
	sort.SliceStable(u.queue, func(a, b int) bool {
		if u.queue[a].prio != u.queue[b].prio {
			return u.queue[a].prio < u.queue[b].prio
		}
		return u.queue[a].seq < u.queue[b].seq
	})
	r.Stats.Arrived++
}

// feedInjection streams queued packets across the injection port at one
// byte per cycle, respecting the local input queue's capacity.
func (r *PFRouter) feedInjection() {
	u := r.inputs[router.PortLocal]
	if r.injCount == 0 {
		if len(r.injQ) == 0 || len(u.queue) >= PFQueueDepth {
			return
		}
		r.injPkt = r.injQ[0]
		r.injQ = r.injQ[1:]
		r.injCount = packet.TCBytes
	}
	idx := packet.TCBytes - r.injCount
	r.acceptByte(router.PortLocal, r.injPkt[idx])
	r.injCount--
}

func (r *PFRouter) driveAcks() {
	for p := 0; p < router.NumLinks; p++ {
		if r.in[p] == nil {
			continue
		}
		if u := r.inputs[p]; u.popped > 0 {
			r.in[p].DriveAck(r.nowCycle, packet.Ack{TCCredit: true})
			u.popped--
		}
	}
}
