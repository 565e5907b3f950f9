package router

import (
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/timing"
)

// tcInput is the time-constrained receive engine of one input source:
// the four mesh links plus the injection port. It assembles arriving
// 20-byte packets in nominal staging space, obtains a memory slot from
// the idle-address FIFO, writes the packet to the shared memory over the
// internal bus in chunk-sized transfers, and installs the scheduling
// leaf from the connection-table entry.
type tcInput struct {
	r       *Router
	id      int    // input index: 0..3 mesh links, 4 injection
	busLine uint32 // memory-bus request line, raised while wActive

	asm  [packet.TCBytes]byte
	nAsm int
	// pending holds fully assembled packets awaiting a memory write. The
	// paper gives each port "nominal buffer space" to ride out bus
	// contention; two packets of staging suffices at these bandwidths,
	// so the staging space is a fixed in-struct array.
	pending  [pendingCap][packet.TCBytes]byte
	nPending int

	// write in progress
	wActive bool
	wSlot   int
	wChunk  int
	wData   [packet.TCBytes]byte

	// injection streaming: the local processor hands over packets which
	// cross the injection port at link rate, one byte per cycle.
	injCount int
	injPkt   [packet.TCBytes]byte

	// wire-integrity state (mesh links under Config.Integrity): rxCRC
	// folds arriving bytes for the tail-phit checksum compare; resync
	// discards the remainder of a packet that lost framing until the
	// next head phit.
	rxCRC  byte
	resync bool

	// virtual cut-through state (Section 7 extension): when cutting, the
	// remaining bytes of the arriving packet stream straight to the
	// output port without touching the packet memory. cutFIFO absorbs the
	// two-byte skew between arrival and the rewritten header going out.
	// cutFIFO is head-indexed: emitCut advances cutHead instead of
	// reslicing, so the skew buffer's backing array is reused.
	cutting bool
	cutIdx  int
	cutFIFO []byte
	cutHead int
}

// popPending removes and returns the oldest staged packet.
func (u *tcInput) popPending() [packet.TCBytes]byte {
	p := u.pending[0]
	copy(u.pending[:], u.pending[1:])
	if u.nPending--; u.nPending == 0 {
		u.r.tcStaged &^= 1 << u.id
	}
	return p
}

const pendingCap = 2

// acceptWire consumes one time-constrained phit from the link wire.
// Without Integrity it reduces to the trusted-byte path; with it, the
// engine enforces framing (head/tail alignment, no gaps) and verifies
// the frame checksum carried on the tail phit's sideband before the
// packet may claim a memory slot — a corrupted packet is dropped here,
// before any resource is allocated, and the reservation absorbs the
// loss as slack.
func (u *tcInput) acceptWire(ph packet.Phit, now int64) {
	if !u.r.cfg.Integrity {
		u.acceptByte(ph.Data, now)
		return
	}
	if u.resync {
		// Discarding a damaged frame: its end is the next Tail mark (a
		// Head instead means the tail itself was lost and a new frame
		// has begun — accept it normally).
		if ph.Head {
			u.resync = false
		} else {
			if ph.Tail {
				u.resync = false
			}
			return
		}
	}
	if ph.Head && u.nAsm != 0 {
		// A new packet started mid-assembly: the old one lost its tail.
		u.framingDrop()
	}
	if !ph.Head && u.nAsm == 0 {
		// Mid-packet byte with no assembly open: the head was lost.
		// Count the packet once and skip the rest of its bytes.
		u.framingDrop()
		u.resync = !ph.Tail
		return
	}
	if u.nAsm == 0 {
		u.rxCRC = 0
	}
	u.rxCRC = packet.CRC8Update(u.rxCRC, ph.Data)
	u.asm[u.nAsm] = ph.Data
	u.nAsm++
	if u.nAsm < packet.TCBytes {
		return
	}
	u.nAsm = 0
	if !ph.Tail || !ph.SideValid || ph.Side != u.rxCRC {
		u.r.Stats.TCCorruptDrops++
		u.r.dropTC(metrics.DropTCCorrupt, u.asm[0], u.id)
		return
	}
	if u.nPending >= pendingCap {
		u.r.Stats.TCDropsStaging++
		u.r.dropTC(metrics.DropTCStaging, u.asm[0], -1)
		return
	}
	u.stage()
}

// framingDrop abandons a partial assembly whose frame can no longer be
// trusted (lost head, lost tail, or a gap mid-packet).
func (u *tcInput) framingDrop() {
	u.r.Stats.TCFramingDrops++
	u.r.dropTC(metrics.DropTCFraming, u.asm[0], u.id)
	u.nAsm = 0
}

// acceptByte consumes one time-constrained byte from the wire (or the
// injection stream).
func (u *tcInput) acceptByte(b byte, now int64) {
	if u.cutting {
		if len(u.cutFIFO) == cap(u.cutFIFO) && u.cutHead > 0 {
			n := copy(u.cutFIFO, u.cutFIFO[u.cutHead:])
			u.cutFIFO = u.cutFIFO[:n]
			u.cutHead = 0
		}
		u.cutFIFO = append(u.cutFIFO, b)
		u.cutIdx++
		if u.cutIdx == packet.TCBytes {
			u.cutting = false
		}
		return
	}
	u.asm[u.nAsm] = b
	u.nAsm++
	if u.r.cfg.VCT && u.nAsm == packet.TCHeaderBytes && u.tryCutThrough(now) {
		return
	}
	if u.nAsm == packet.TCBytes {
		u.nAsm = 0
		if u.nPending >= pendingCap {
			// Staging overrun: only possible when traffic violates its
			// reservation badly enough to saturate the memory bus.
			u.r.Stats.TCDropsStaging++
			u.r.dropTC(metrics.DropTCStaging, u.asm[0], -1)
			return
		}
		u.stage()
	}
}

// stage moves the assembled packet to the staging space, which the
// caller has checked has room.
func (u *tcInput) stage() {
	u.pending[u.nPending] = u.asm
	u.nPending++
	u.r.tcStaged |= 1 << u.id
}

// tryCutThrough attempts the Section 7 virtual cut-through: if the
// connection's output port is idle and the scheduler holds nothing
// eligible for it, the arriving packet proceeds directly to the link
// without visiting the packet memory. Only unicast connections cut
// through (a multicast fan-out falls back to buffering, which the
// paper's sketch does not address). It returns true when the cut path is
// established.
func (u *tcInput) tryCutThrough(now int64) bool {
	// Integrity requires store-and-forward: the frame checksum can only
	// be verified once the whole packet has arrived, and the cut path
	// would forward bytes before the tail's checksum is seen.
	if u.r.cfg.Integrity {
		return false
	}
	// The skew FIFO belongs to one cut at a time: a new cut may only
	// start once the previous cut's consumer has drained every byte
	// (resetting the FIFO earlier would wedge that output mid-packet).
	if u.cutting || u.cutHead < len(u.cutFIFO) {
		return false
	}
	hdr := packet.DecodeTC([packet.TCBytes]byte{u.asm[0], u.asm[1]})
	ent := u.r.table[hdr.Conn]
	if !ent.Valid || ent.Mask.Count() != 1 {
		return false
	}
	var port int
	for p := 0; p < NumPorts; p++ {
		if ent.Mask.Has(p) {
			port = p
		}
	}
	out := u.r.tcOut[port]
	if out.txActive || out.staged || out.fetching || out.candValid || out.cutIn != nil {
		return false
	}
	if port != PortLocal && u.r.out[port] == nil {
		return false
	}
	nowSlot := u.r.slotNow(now)
	if sel := u.r.schedq.Select(port, nowSlot, u.r.horizons[port]); sel.Class != sched.ClassNone {
		return false
	}
	// The arriving packet itself must be serviceable now: on-time, or
	// early within the port's horizon ("no other packets have smaller
	// sorting keys", Section 7).
	l := u.r.wheel.Wrap(timing.Slot(hdr.Stamp))
	dl := u.r.wheel.Add(l, uint32(ent.Delay))
	k, early, _ := u.r.wheel.SortKey(l, dl, nowSlot)
	class := sched.ClassOnTime
	if early {
		if !u.r.wheel.WithinHorizon(k, u.r.horizons[port]) {
			return false
		}
		class = sched.ClassEarly
	}
	out.cutIn = u
	out.cutIdx = 0
	out.cutHdr = [packet.TCHeaderBytes]byte{ent.Out, packet.StampOf(dl)}
	out.cutLeaf = sched.Leaf{L: l, Dl: dl, OutConn: ent.Out, InConn: hdr.Conn, EnqueueCycle: now}
	out.cutClass = class
	u.cutting = true
	u.cutIdx = packet.TCHeaderBytes
	u.cutFIFO = u.cutFIFO[:0]
	u.cutHead = 0
	u.nAsm = 0
	u.r.Stats.TCCutThroughs++
	if u.r.met != nil {
		u.r.met.CutThroughs.Inc()
	}
	if u.r.OnLifecycle != nil {
		u.r.lifecycle(LifecycleEvent{
			Kind: EvCutThrough, Port: port,
			InConn: hdr.Conn, OutConn: ent.Out, Class: class,
			Stamp: dl, Slack: u.r.wheel.SignedDiff(dl, nowSlot),
		})
	}
	return true
}

// launchWrite starts the memory write of the oldest pending packet.
func (u *tcInput) launchWrite() {
	if u.wActive {
		if u.r.blame != nil && u.nPending > 0 {
			// A fully assembled packet is staged behind another memory
			// write: it burns a cycle waiting on the shared bus. Byte 0
			// of the staged packet is its connection id.
			u.r.blameNoteAt(-1, u.pending[0][0], false, CauseMemBusWait, 0)
		}
		return
	}
	if u.nPending == 0 {
		return
	}
	slot, ok := u.r.mem.alloc()
	if !ok {
		// Reservation guarantees this cannot happen for admitted traffic
		// (Section 3.4); count and drop for misbehaving workloads.
		u.r.Stats.TCDropsNoSlot++
		u.r.dropTC(metrics.DropTCNoSlot, u.pending[0][0], -1)
		u.popPending()
		return
	}
	u.wActive = true
	u.r.bus.request(u.busLine)
	u.wSlot = slot
	u.wChunk = 0
	u.wData = u.popPending()
	u.r.noteMemOccupancy()
}

// busGrant writes one chunk; on the last chunk the packet is live in
// memory and its scheduling leaf is installed.
func (u *tcInput) busGrant() {
	cb := u.r.cfg.ChunkBytes
	u.r.mem.writeChunk(u.wSlot, u.wChunk, cb, u.wData[u.wChunk*cb:])
	u.wChunk++
	if u.wChunk*cb < packet.TCBytes {
		return
	}
	u.wActive = false
	u.r.bus.release(u.busLine)
	u.finishPacket()
}

func (u *tcInput) finishPacket() {
	p := packet.DecodeTC(u.wData)
	ent := u.r.table[p.Conn]
	if !ent.Valid {
		u.r.Stats.TCDropsNoRoute++
		u.r.mem.free(u.wSlot)
		u.r.noteMemOccupancy()
		u.r.dropTC(metrics.DropTCNoRoute, p.Conn, -1)
		return
	}
	l := u.r.wheel.Wrap(timing.Slot(p.Stamp))
	leaf := sched.Leaf{
		L:            l,
		Dl:           u.r.wheel.Add(l, uint32(ent.Delay)),
		Mask:         ent.Mask,
		OutConn:      ent.Out,
		InConn:       p.Conn,
		EnqueueCycle: u.r.nowCycle,
	}
	if err := u.r.schedq.Install(u.wSlot, leaf); err != nil {
		// Internal invariant violation; surface loudly in tests.
		panic("router " + u.r.name + ": leaf install: " + err.Error())
	}
	u.r.Stats.TCArrived++
	if u.r.met != nil {
		u.r.met.TCEnqueued.Inc()
	}
	if u.r.OnLifecycle != nil {
		u.r.lifecycle(LifecycleEvent{
			Kind: EvEnqueue, Port: -1, InConn: p.Conn, OutConn: ent.Out,
			Stamp: leaf.Dl,
			Slack: u.r.wheel.SignedDiff(leaf.Dl, u.r.slotNow(u.r.nowCycle)),
		})
	}
}

// tcOutput is the time-constrained transmit engine of one output port.
// It pipelines candidate selection (via the shared comparator tree),
// memory fetch, and transmission, so scheduling overlaps transmission as
// in the chip.
type tcOutput struct {
	r       *Router
	port    int
	busLine uint32 // memory-bus request line, raised while fetching

	// candidate awaiting fetch
	cand      sched.Selection
	candValid bool

	// fetch in progress
	fetching bool
	fChunk   int

	// staged packet, header already rewritten for the next hop
	staged bool
	sBuf   [packet.TCBytes]byte
	sSlot  int
	sLeaf  sched.Leaf

	// active transmission
	txActive bool
	txBuf    [packet.TCBytes]byte
	txIdx    int
	txCRC    byte  // frame checksum for the tail phit (Integrity only)
	txConn   uint8 // arriving conn id of the packet on the wire (blame)

	// virtual cut-through source, when a packet streams directly from an
	// input engine
	cutIn    *tcInput
	cutIdx   int
	cutHdr   [packet.TCHeaderBytes]byte
	cutLeaf  sched.Leaf
	cutClass sched.Class

	// local reception assembly (PortLocal only)
	rxBuf [packet.TCBytes]byte
}

// schedule refreshes the port's candidate from the shared tree. A staged
// packet may be displaced by a better selection until its transmission
// starts (the hardware's one-packet scheduling slack).
func (o *tcOutput) schedule(nowSlot timing.Stamp) {
	if o.cutIn != nil {
		return // port owned by a cut-through stream
	}
	if o.txActive && o.staged {
		return // next packet already staged
	}
	if o.fetching {
		return // mid-fetch; commit to it
	}
	sel := o.r.schedq.Select(o.port, nowSlot, o.r.horizons[o.port])
	if sel.Class == sched.ClassNone {
		if !o.staged {
			o.setCand(false)
		}
		return
	}
	if o.staged {
		if sel.Slot == o.sSlot {
			return
		}
		// Better packet arrived since staging: discard the prefetch.
		o.staged = false
		o.r.Stats.TCStageReplaced++
	}
	o.cand = sel
	o.setCand(true)
}

// setCand records whether the port holds a candidate awaiting fetch.
func (o *tcOutput) setCand(valid bool) {
	o.candValid = valid
	if valid {
		o.r.tcCand |= 1 << o.port
	} else {
		o.r.tcCand &^= 1 << o.port
	}
}

// launchFetch starts reading the candidate from packet memory.
func (o *tcOutput) launchFetch() {
	if !o.candValid || o.fetching || o.staged {
		return
	}
	o.fetching = true
	o.r.bus.request(o.busLine)
	o.fChunk = 0
}

func (o *tcOutput) busGrant() {
	cb := o.r.cfg.ChunkBytes
	o.r.mem.readChunk(o.cand.Slot, o.fChunk, cb, o.sBuf[o.fChunk*cb:])
	o.fChunk++
	if o.fChunk*cb < packet.TCBytes {
		return
	}
	o.fetching = false
	o.r.bus.release(o.busLine)
	o.setCand(false)
	o.staged = true
	o.sSlot = o.cand.Slot
	o.sLeaf = o.r.schedq.Leaf(o.sSlot)
	// Rewrite the header for the next hop: the new connection id and the
	// local deadline, which the downstream router reads as ℓ(m).
	o.sBuf[0] = o.sLeaf.OutConn
	o.sBuf[1] = packet.StampOf(o.sLeaf.Dl)
}

// stagedClass classifies the staged packet at the current slot time.
// Early packets promote to on-time automatically as the clock advances.
func (o *tcOutput) stagedClass(nowSlot timing.Stamp) sched.Class {
	k, early, _ := o.r.wheel.SortKey(o.sLeaf.L, o.sLeaf.Dl, nowSlot)
	if !early {
		return sched.ClassOnTime
	}
	if o.r.wheel.WithinHorizon(k, o.r.horizons[o.port]) {
		return sched.ClassEarly
	}
	return sched.ClassNone
}

// startTx commits the staged packet to the wire: the port's bit in the
// leaf mask clears, and the memory slot returns to the idle FIFO once
// every port has transmitted its copy.
func (o *tcOutput) startTx(nowSlot timing.Stamp, class sched.Class) {
	empty, err := o.r.schedq.ClearPort(o.sSlot, o.port)
	if err != nil {
		panic("router " + o.r.name + ": clear port: " + err.Error())
	}
	if empty {
		o.r.mem.free(o.sSlot)
		o.r.noteMemOccupancy()
	}
	_, overdue := o.r.wheel.Laxity(o.sLeaf.Dl, nowSlot)
	if overdue {
		o.r.Stats.TCDeadlineMisses++
	}
	o.r.Stats.TCTransmitted[o.port]++
	wait := o.r.nowCycle - o.sLeaf.EnqueueCycle
	if m := o.r.met; m != nil {
		m.ArbWins[o.port][arbClass(class)].Inc()
		m.TCDequeued[o.port].Inc()
		if overdue {
			m.DeadlineMisses.Inc()
		}
	}
	if o.r.OnTCTransmit != nil {
		o.r.OnTCTransmit(TCTransmitEvent{
			Router:  o.r.name,
			Port:    o.port,
			InConn:  o.sLeaf.InConn,
			OutConn: o.sLeaf.OutConn,
			Class:   class,
			Cycle:   o.r.nowCycle,
			Missed:  overdue,
			Wait:    wait,
		})
	}
	if o.r.OnLifecycle != nil {
		ev := LifecycleEvent{
			Port: o.port, InConn: o.sLeaf.InConn, OutConn: o.sLeaf.OutConn,
			Class: class, Missed: overdue, Wait: wait,
			Stamp: o.sLeaf.Dl, Slack: o.r.wheel.SignedDiff(o.sLeaf.Dl, nowSlot),
		}
		ev.Kind = EvArbWin
		o.r.lifecycle(ev)
		ev.Kind = EvTransmit
		o.r.lifecycle(ev)
	}
	o.txBuf = o.sBuf
	if o.r.cfg.Integrity {
		o.txCRC = packet.CRC8(o.sBuf[:])
	}
	o.txActive = true
	o.txIdx = 0
	o.txConn = o.sLeaf.InConn
	o.staged = false
}

// emitByte sends the next byte of the active transmission and reports
// packet completion.
func (o *tcOutput) emitByte() (b byte, head, tail bool) {
	b = o.txBuf[o.txIdx]
	head = o.txIdx == 0
	tail = o.txIdx == packet.TCBytes-1
	o.txIdx++
	if tail {
		o.txActive = false
	}
	return b, head, tail
}
