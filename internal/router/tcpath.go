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
	if ph.Abort {
		u.endFrame()
		return
	}
	if u.resync {
		// Discarding a damaged or abandoned frame: its end is the next
		// Tail mark (a Head instead means the tail itself was lost and a
		// new frame has begun — accept it normally).
		if ph.Head {
			u.resync = false
		} else {
			if ph.Tail {
				u.resync = false
			}
			return
		}
	}
	if !u.r.cfg.Integrity {
		u.acceptByte(ph.Data, now)
		return
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
		u.r.tcAsm |= 1 << u.id
	}
	u.rxCRC = packet.CRC8Update(u.rxCRC, ph.Data)
	u.asm[u.nAsm] = ph.Data
	u.nAsm++
	if u.nAsm < packet.TCBytes {
		return
	}
	u.asmDone()
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
	u.asmDone()
}

// asmDone closes the assembly: the packet is complete, dropped or cut
// through.
func (u *tcInput) asmDone() {
	u.nAsm = 0
	u.r.tcAsm &^= 1 << u.id
}

// endFrame ends the frame arriving on the input short: its link was cut,
// or an abort phit says the upstream router's was. A partial assembly is
// a framing drop. A cut-through stream stops: if nothing of it has left
// the router, or it was being delivered here, the packet is a framing
// drop here; otherwise its output ends the frame downstream with an
// abort phit, and the router there counts the packet.
func (u *tcInput) endFrame() {
	if !u.cutting {
		if u.nAsm > 0 {
			u.framingDrop()
		}
		return
	}
	u.cutting = false
	u.cutFIFO, u.cutHead = u.cutFIFO[:0], 0
	for _, o := range u.r.tcOut {
		switch {
		case o.cutIn != u:
		case o.cutIdx == 0 || o.port == PortLocal:
			o.endCut()
			u.framingDrop()
		default:
			o.cutShort = true
		}
	}
}

// cutOff accounts for the input's link being cut: the frame it was
// receiving ends short (endFrame), and each time-constrained packet whose
// head is still on the old wire, arriving within its latency, is a
// framing drop too. The sender abandons what it was transmitting
// uncounted (tcOutput.abandon), so every packet the cut destroys is
// counted once.
func (u *tcInput) cutOff(old *InLink) {
	u.endFrame()
	now := u.r.nowCycle
	for c := now + 1; c <= now+old.Latency(); c++ {
		if ph := old.Phit(c); ph.Valid && ph.VC == packet.VCTime && ph.Head {
			u.r.Stats.TCFramingDrops++
			u.r.dropTC(metrics.DropTCFraming, ph.Data, u.id)
		}
	}
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
	if u.nAsm == 0 {
		u.r.tcAsm |= 1 << u.id
	}
	u.asm[u.nAsm] = b
	u.nAsm++
	if u.r.cfg.VCT && u.nAsm == packet.TCHeaderBytes && u.tryCutThrough(now) {
		return
	}
	if u.nAsm == packet.TCBytes {
		u.asmDone()
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
	class := sched.LeafClass(u.r.wheel, l, dl, nowSlot, u.r.horizons[port])
	if class == sched.ClassHeld {
		return false
	}
	out.cutIn = u
	u.r.tcCut |= 1 << port
	u.r.portWork |= 1 << port
	out.cutIdx = 0
	out.cutHdr = [packet.TCHeaderBytes]byte{ent.Out, packet.StampOf(dl)}
	out.cutLeaf = sched.Leaf{L: l, Dl: dl, OutConn: ent.Out, InConn: hdr.Conn, EnqueueCycle: now}
	out.cutClass = class
	u.cutting = true
	u.cutIdx = packet.TCHeaderBytes
	u.cutFIFO = u.cutFIFO[:0]
	u.cutHead = 0
	u.asmDone()
	u.r.Stats.TCCutThroughs++
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
	u.r.mem.writeChunk(u.wSlot, u.wChunk, u.wData[u.wChunk*ChunkBytes:])
	u.wChunk++
	if u.wChunk*ChunkBytes < packet.TCBytes {
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
	u.r.forgetQuiet(leaf.Mask)
	u.r.Stats.TCArrived++
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
	// cutShort is set when the cut's input lost its link mid-packet
	// (endFrame): the next phit is the abort that ends the frame.
	cutShort bool

	// local reception assembly (PortLocal only)
	rxBuf [packet.TCBytes]byte
}

// schedule refreshes the port's candidate from the shared tree at slot
// abs (absSlot). A staged packet may be displaced by a better selection
// until its transmission starts (the hardware's one-packet scheduling
// slack).
func (o *tcOutput) schedule(abs int64) {
	if o.cutIn != nil {
		return // port owned by a cut-through stream
	}
	if o.txActive && o.staged {
		return // next packet already staged
	}
	if o.fetching {
		return // mid-fetch; commit to it
	}
	sel := o.r.schedq.Select(o.port, o.r.wheel.Wrap(timing.Slot(abs)), o.r.horizons[o.port])
	q := &o.r.quiet[o.port]
	switch {
	case sel.Class != sched.ClassNone:
		*q = 0
	case sel.Quiet == sched.QuietForever:
		*q = quietForever
	default:
		*q = abs + int64(sel.Quiet)
	}
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
		o.setStaged(false)
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

// setStaged records whether the port holds a fetched packet awaiting
// transmission.
func (o *tcOutput) setStaged(staged bool) {
	o.staged = staged
	if staged {
		o.r.tcOutStaged |= 1 << o.port
	} else {
		o.r.tcOutStaged &^= 1 << o.port
	}
}

// setTx records whether a packet from the memory is on the port's wire.
func (o *tcOutput) setTx(active bool) {
	o.txActive = active
	if active {
		o.r.tcTx |= 1 << o.port
	} else {
		o.r.tcTx &^= 1 << o.port
	}
}

// endCut ends the port's cut-through stream.
func (o *tcOutput) endCut() {
	o.cutIn = nil
	o.r.tcCut &^= 1 << o.port
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
	o.r.mem.readChunk(o.cand.Slot, o.fChunk, o.sBuf[o.fChunk*ChunkBytes:])
	o.fChunk++
	if o.fChunk*ChunkBytes < packet.TCBytes {
		return
	}
	o.fetching = false
	o.r.bus.release(o.busLine)
	o.setCand(false)
	o.setStaged(true)
	o.r.portWork |= 1 << o.port
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
	return sched.LeafClass(o.r.wheel, o.sLeaf.L, o.sLeaf.Dl, nowSlot, o.r.horizons[o.port])
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
	o.r.tally.TCDequeued[o.port]++
	o.r.noteTransmit(o.port, &o.sLeaf, class, nowSlot, overdue, o.r.nowCycle-o.sLeaf.EnqueueCycle)
	o.txBuf = o.sBuf
	if o.r.cfg.Integrity {
		o.txCRC = packet.CRC8(o.sBuf[:])
	}
	o.setTx(true)
	o.txIdx = 0
	o.txConn = o.sLeaf.InConn
	o.setStaged(false)
}

// noteTransmit records a transmission start on port, from the packet
// memory (startTx) or a cut-through stream (emitCut): the transmit
// counter, the early-win tally (the on-time wins are the rest of the
// transmit counter) and the lifecycle stream's EvArbWin/EvTransmit pair.
// missed and wait belong to the memory path; a cut-through start reports
// neither.
func (r *Router) noteTransmit(port int, lf *sched.Leaf, class sched.Class, nowSlot timing.Stamp, missed bool, wait int64) {
	r.Stats.TCTransmitted[port]++
	if class == sched.ClassEarly {
		r.tally.ArbWins[port][metrics.ArbEarly]++
	}
	if r.OnLifecycle != nil {
		ev := LifecycleEvent{
			Port: port, InConn: lf.InConn, OutConn: lf.OutConn,
			Class: class, Missed: missed, Wait: wait,
			Stamp: lf.Dl, Slack: r.wheel.SignedDiff(lf.Dl, nowSlot),
		}
		ev.Kind = EvArbWin
		r.lifecycle(ev)
		ev.Kind = EvTransmit
		r.lifecycle(ev)
	}
}

// abandon gives up the packet the port is sending when its link is cut.
// What already left is counted by the receiving router (tcInput.cutOff);
// a cut-through packet not yet started is a dead-port drop here, and its
// input discards the rest of it.
func (o *tcOutput) abandon() {
	o.setTx(false)
	u := o.cutIn
	if u == nil {
		return
	}
	o.endCut()
	if o.cutShort {
		o.cutShort = false
		return
	}
	if o.cutIdx == 0 {
		o.r.Stats.TCDeadPortDrops++
		o.r.dropTC(metrics.DropTCDeadPort, o.cutLeaf.InConn, o.port)
	}
	u.cutFIFO, u.cutHead = u.cutFIFO[:0], 0
	if u.cutting {
		u.cutting = false
		if u.id == PortLocal {
			u.injCount = 0
		} else {
			u.resync = true
		}
	}
}

// emitByte sends the next byte of the active transmission and reports
// packet completion.
func (o *tcOutput) emitByte() (b byte, head, tail bool) {
	b = o.txBuf[o.txIdx]
	head = o.txIdx == 0
	tail = o.txIdx == packet.TCBytes-1
	o.txIdx++
	if tail {
		o.setTx(false)
	}
	return b, head, tail
}
