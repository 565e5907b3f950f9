package router

import (
	"repro/internal/metrics"
	"repro/internal/packet"
)

// beInput is the best-effort wormhole receive engine of one input source:
// a small flit buffer (10 bytes in the paper), header capture for
// dimension-ordered routing, and a single output binding held from header
// to tail (wormhole packets do not interleave within a virtual channel).
// Arriving best-effort flits are covered by the credits this router
// granted upstream; every flit consumed from the buffer returns one
// credit on the reverse acknowledgement wire.
type beInput struct {
	r  *Router
	id int // 0..3 mesh links, 4 injection

	// buf is the flit buffer (raw bytes as received, header included).
	// It is head-indexed: pop advances bufHead and push compacts the
	// consumed prefix when full, so the small backing array is reused
	// instead of regrown on every slide.
	buf     []byte
	bufHead int

	// current packet parse/forward state
	parsed   bool
	hdr      packet.BEHeader
	nextHdr  [packet.BEHeaderBytes]byte
	outPort  int
	fwdIdx   int // bytes of the current packet already forwarded
	bound    bool
	dropping bool // misrouted packet being consumed and discarded

	// readyAt gates the head flit: byte synchronization and chunk
	// accumulation for the internal bus cost BEHeadDelay cycles per hop.
	readyAt int64

	// consumed counts flits removed from the buffer whose credit has not
	// gone back upstream yet. Mesh links only: the injection port is fed by
	// the local processor and owes nobody a credit.
	consumed int

	// Integrity receive state (mesh links only). discard marks the engine
	// rejecting flits after a checksum failure until the sender's
	// retransmission run arrives (its first flit carries Rexmit);
	// nackPending is a nack awaiting the next reverse-ack edge. Rejected
	// flits never enter the buffer but still return their credit, so the
	// credit loop stays conserved through an error episode.
	discard     bool
	nackPending bool

	// injection source (id 4 only): queued packets stream into the flit
	// buffer at link rate. Head-indexed like buf; fully streamed frames
	// are recycled to the router's frame pool.
	injQ    [][]byte
	injHead int
	injPos  int
}

// occ is the number of unconsumed bytes in the flit buffer.
func (u *beInput) occ() int { return len(u.buf) - u.bufHead }

// push appends one byte, reclaiming consumed head space instead of
// growing the backing array.
func (u *beInput) push(b byte) {
	if len(u.buf) == cap(u.buf) && u.bufHead > 0 {
		n := copy(u.buf, u.buf[u.bufHead:])
		u.buf = u.buf[:n]
		u.bufHead = 0
	}
	u.buf = append(u.buf, b)
	if !u.parsed {
		u.r.beUnparsed |= 1 << u.id
	}
}

// owe counts one flit whose credit must return upstream.
func (u *beInput) owe() {
	u.consumed++
	u.r.beOwed |= 1 << u.id
}

// inject queues one encoded frame behind the injection port.
func (u *beInput) inject(frame []byte) {
	if u.injHead > 0 && len(u.injQ) == cap(u.injQ) {
		n := copy(u.injQ, u.injQ[u.injHead:])
		for i := n; i < len(u.injQ); i++ {
			u.injQ[i] = nil
		}
		u.injQ = u.injQ[:n]
		u.injHead = 0
	}
	u.injQ = append(u.injQ, frame)
}

// acceptByte receives one best-effort flit from the wire.
func (u *beInput) acceptByte(b byte) {
	if u.occ() >= u.r.cfg.FlitBufBytes {
		// Credits make this unreachable from a correct upstream; count it
		// as a protocol violation rather than silently growing the buffer.
		u.r.Stats.BEBufferOverruns++
		u.r.dropBE(metrics.DropBEOverrun, u.id)
		return
	}
	u.push(b)
}

// acceptWireBE receives one best-effort flit from the wire with
// integrity checking: the flit's sideband carries its checksum, and a
// mismatch nacks the sender into a retransmission (go-back-N over the
// two-cycle link turnaround) while this engine discards everything
// until the retransmission run arrives.
func (u *beInput) acceptWireBE(ph packet.Phit) {
	ok := ph.SideValid && ph.Side == packet.CRC8Update(0, ph.Data)
	if u.discard {
		if !ph.Rexmit || !ok {
			u.owe() // discarded flits still return their credit
			if ph.Rexmit {
				// The retransmission itself arrived corrupt: nack again.
				u.nack()
			}
			return
		}
		u.discard = false
	} else if !ok {
		u.owe()
		u.discard = true
		u.nack()
		return
	}
	u.acceptByte(ph.Data)
}

func (u *beInput) nack() {
	u.nackPending = true // beside a credit owed (acceptWireBE), which marks beOwed
	u.r.Stats.BEFlitNacks++
	if u.r.met != nil {
		u.r.met.BEFlitNacks.Inc()
	}
}

// abortRecv handles an Abort tail flit: the upstream router gave up on
// the frame (its own upstream link died, or the retry budget ran out),
// so the partial copy here is dropped and the abort propagates to
// wherever this engine had already forwarded bytes. The frame is
// counted once, at the router that originated the abort — this side
// only records the drop reason.
func (u *beInput) abortRecv() {
	u.owe() // the abort flit spent a credit; return it
	u.r.dropBE(metrics.DropBEAborted, u.id)
	u.discardFrame()
}

// feedInjection streams one byte of the oldest queued packet into the
// flit buffer, modelling the injection port crossing at link rate.
func (u *beInput) feedInjection() {
	if u.injHead == len(u.injQ) || u.occ() >= u.r.cfg.FlitBufBytes {
		return
	}
	pkt := u.injQ[u.injHead]
	u.push(pkt[u.injPos])
	u.injPos++
	if u.injPos == len(pkt) {
		u.r.recycleBEFrame(pkt)
		u.injQ[u.injHead] = nil
		u.injHead++
		u.injPos = 0
		if u.injHead == len(u.injQ) {
			u.injQ = u.injQ[:0]
			u.injHead = 0
		}
	}
}

// parse decodes the routing header once its four bytes are buffered and
// computes the output port and the rewritten next-hop header.
func (u *beInput) parse() {
	if u.parsed || u.occ() < packet.BEHeaderBytes {
		return
	}
	u.hdr = packet.DecodeBEHeader(u.buf[u.bufHead : u.bufHead+packet.BEHeaderBytes])
	if u.hdr.Len < packet.BEHeaderBytes {
		// Malformed length; consume just the header and move on.
		u.r.Stats.BEMalformed++
		u.hdr.Len = packet.BEHeaderBytes
	}
	next := u.hdr
	switch {
	case u.hdr.XOff > 0:
		u.outPort = PortXPlus
		next.XOff--
	case u.hdr.XOff < 0:
		u.outPort = PortXMinus
		next.XOff++
	case u.hdr.YOff > 0:
		u.outPort = PortYPlus
		next.YOff--
	case u.hdr.YOff < 0:
		u.outPort = PortYMinus
		next.YOff++
	default:
		u.outPort = PortLocal
	}
	packet.EncodeBEHeader(next, u.nextHdr[:])
	u.parsed = true
	u.fwdIdx = 0
	u.readyAt = u.r.nowCycle + int64(u.r.cfg.BEHeadDelay)
	if u.outPort != PortLocal && u.r.out[u.outPort] == nil {
		// No neighbour in that direction: a routing error (dimension
		// order keeps in-mesh destinations on existing links). Consume
		// and discard the packet.
		u.setDropping()
		u.r.Stats.BEMisroutes++
		u.r.dropBE(metrics.DropBEMisroute, u.outPort)
		return
	}
	u.r.beWaiting[u.outPort] |= 1 << u.id
}

// hasByte reports whether the engine can supply a byte to its output.
func (u *beInput) hasByte() bool {
	return u.parsed && u.occ() > 0 && u.r.nowCycle >= u.readyAt
}

// pop removes the next byte of the current packet, substituting the
// rewritten header for the first four bytes, and reports head/tail.
func (u *beInput) pop() (b byte, head, tail bool) {
	b = u.buf[u.bufHead]
	if u.fwdIdx < packet.BEHeaderBytes {
		b = u.nextHdr[u.fwdIdx]
	}
	u.bufHead++
	if u.bufHead == len(u.buf) {
		u.buf = u.buf[:0]
		u.bufHead = 0
	}
	if u.id != PortLocal {
		u.owe()
	}
	head = u.fwdIdx == 0
	u.fwdIdx++
	tail = u.fwdIdx == int(u.hdr.Len)
	if tail {
		u.parsed = false
		u.bound = false
		u.clearDropping()
		u.r.beUnparsed |= 1 << u.id // the next frame's header may be buffered already
	}
	return b, head, tail
}

func (u *beInput) setDropping() {
	u.dropping = true
	u.r.beDropping |= 1 << u.id
}

func (u *beInput) clearDropping() {
	u.dropping = false
	u.r.beDropping &^= 1 << u.id
}

// drainDropped consumes one byte per cycle of a misrouted packet.
func (u *beInput) drainDropped() {
	if !u.dropping || u.occ() == 0 {
		return
	}
	u.pop()
}

// truncate abandons a packet whose tail can never arrive (its upstream
// link failed mid-worm): the fragment is discarded and any output
// binding released so other traffic can use the port. The frame itself
// is counted at the router feeding the failed link (drainDeadBE), so
// this side records only the drop reason — each broken worm lands in
// exactly one conservation bucket.
func (u *beInput) truncate() {
	if u.parsed || u.occ() > 0 {
		u.r.dropBE(metrics.DropBETruncated, u.id)
	}
	u.discardFrame()
}

// discardFrame resets the engine's current frame, releasing any output
// binding and propagating an abort to wherever bytes were already
// forwarded — a worm spanning several hops must release every segment,
// or the downstream ports stay bound to a tail that never comes.
func (u *beInput) discardFrame() {
	if u.parsed && !u.dropping && u.fwdIdx > 0 {
		if u.outPort == PortLocal {
			o := u.r.beOut[PortLocal]
			o.rxBuf = o.rxBuf[:0]
		} else if u.r.out[u.outPort] != nil {
			u.r.beOut[u.outPort].abortPending = true
		}
	}
	for q := 0; q < NumPorts; q++ {
		if o := u.r.beOut[q]; o.curIn == u.id {
			o.curIn = -1
		}
	}
	if u.parsed && !u.bound && !u.dropping {
		u.r.beWaiting[u.outPort] &^= 1 << u.id
	}
	u.buf = u.buf[:0]
	u.bufHead = 0
	u.parsed = false
	u.bound = false
	u.clearDropping()
	u.discard = false
	u.nackPending = false
}

type beHist struct {
	cycle int64
	ph    packet.Phit
	valid bool
}

// beOutput arbitrates the best-effort virtual channel of one output
// port: round-robin over the input engines, binding held for a whole
// packet, gated by downstream flit credits.
type beOutput struct {
	r    *Router
	port int

	curIn   int // bound input engine, or -1
	rr      int
	credits int // downstream flit-buffer credits (mesh links only)

	// wasStalled marks an ongoing credit stall so the trace records one
	// block event per episode rather than one per cycle.
	wasStalled bool

	// Integrity transmit state: nackWin is how far back a nack reaches —
	// the link round trip (2·latency: the corrupted flit travelled one
	// way before its nack came back), and every flit sent since must be
	// resent too so the stream stays in order. hist remembers recently
	// sent flits so a nack can replay them, sized to the window plus
	// slack at one flit per cycle; replay holds flits awaiting
	// retransmission (sent before any fresh byte, first one marked
	// Rexmit); resumeAt delays the replay by an exponential backoff;
	// retryCount bounds the episode against Config.BERetryLimit.
	// abortPending requests an Abort tail flit — also used without
	// Integrity to release a downstream worm segment after a link
	// failure.
	nackWin      int64
	hist         []beHist
	histIdx      int
	replay       []packet.Phit
	replayHead   int
	rexmitNext   bool
	retryCount   int
	resumeAt     int64
	abortPending bool

	// local reception assembly (PortLocal only)
	rxBuf []byte
}

// record notes a flit sent this cycle in the history ring. The Rexmit
// mark is stripped: whether a future replay of this flit starts a
// retransmission run is decided when that replay is sent.
func (b *beOutput) record(ph packet.Phit) {
	ph.Rexmit = false
	b.hist[b.histIdx] = beHist{cycle: b.r.nowCycle, ph: ph, valid: true}
	b.histIdx = (b.histIdx + 1) % len(b.hist)
}

// handleNack reacts to a nack read from the reverse wire: every flit
// sent within the nack window goes back on the replay queue (ahead of
// any replay remainder), the next attempt is delayed by an exponential
// backoff, and an exhausted retry budget aborts the frame.
func (b *beOutput) handleNack(now int64) {
	var win []packet.Phit
	for i := 0; i < len(b.hist); i++ {
		e := b.hist[(b.histIdx+i)%len(b.hist)] // oldest → newest
		if e.valid && e.cycle >= now-b.nackWin {
			win = append(win, e.ph)
		}
	}
	if len(win) == 0 {
		return // stale nack for a frame already aborted or drained
	}
	b.retryCount++
	limit := b.r.cfg.BERetryLimit
	if limit == 0 {
		limit = 8
	}
	if b.retryCount > limit {
		b.abortFrame()
		return
	}
	rest := b.replay[b.replayHead:]
	nq := make([]packet.Phit, 0, len(win)+len(rest))
	nq = append(nq, win...)
	nq = append(nq, rest...)
	b.replay = nq
	b.replayHead = 0
	b.rexmitNext = true
	shift := b.retryCount - 1
	if shift > 6 {
		shift = 6
	}
	b.resumeAt = now + int64(1)<<shift
	// The window flits now live on the replay queue; invalidate them in
	// history so an overlapping nack cannot enqueue them twice.
	for i := range b.hist {
		b.hist[i].valid = false
	}
}

// abortFrame gives up on the current frame after the retry budget ran
// out: pending replays are dropped, the bound input drains the rest of
// the frame unsent, and an Abort tail flit tells the downstream router
// to drop its partial copy.
func (b *beOutput) abortFrame() {
	b.clearFault()
	b.abortPending = true
	if b.curIn >= 0 {
		b.r.beIn[b.curIn].setDropping()
		b.curIn = -1
	}
	b.r.Stats.BEFrameAborts++
	if b.r.met != nil {
		b.r.met.BEFrameAborts.Inc()
	}
	b.r.dropBE(metrics.DropBEAborted, b.port)
}

// clearFault resets the retransmission machinery (history, replay
// queue, backoff, pending abort) — on frame abort or link death.
func (b *beOutput) clearFault() {
	for i := range b.hist {
		b.hist[i] = beHist{}
	}
	b.histIdx = 0
	b.replay = b.replay[:0]
	b.replayHead = 0
	b.rexmitNext = false
	b.retryCount = 0
	b.resumeAt = 0
	b.abortPending = false
}

// drainDeadBE releases the best-effort side of a dead output port: a
// worm bound here can never finish (its remaining bytes drain unsent at
// the input), and neither replays nor an abort flit can cross a missing
// wire. This is where a broken worm is counted — exactly once, at the
// router feeding the failed link.
func (b *beOutput) drainDeadBE() {
	if b.curIn >= 0 {
		b.r.beIn[b.curIn].setDropping()
		b.curIn = -1
		b.r.Stats.BETruncated++
		b.r.dropBE(metrics.DropBETruncated, b.port)
	}
	b.clearFault()
}

// hasFaultWork reports whether the port owes the link a recovery flit:
// a pending abort, or replays whose backoff has elapsed. Both need a
// downstream credit, like any other flit.
func (b *beOutput) hasFaultWork() bool {
	if b.port == PortLocal || b.r.out[b.port] == nil || b.credits <= 0 {
		return false
	}
	if b.abortPending {
		return true
	}
	return b.replayHead < len(b.replay) && b.r.nowCycle >= b.resumeAt
}

// sendFaultFlit sends one recovery flit: the pending abort, or the next
// replay (the first of a run carries Rexmit so the receiver leaves
// discard mode at exactly the right flit).
func (b *beOutput) sendFaultFlit() {
	b.credits--
	if b.abortPending {
		b.abortPending = false
		b.r.out[b.port].Drive(b.r.nowCycle, packet.Phit{Valid: true, VC: packet.VCBest, Tail: true, Abort: true})
		return
	}
	ph := b.replay[b.replayHead]
	b.replayHead++
	if b.replayHead == len(b.replay) {
		b.replay = b.replay[:0]
		b.replayHead = 0
	}
	if b.rexmitNext {
		ph.Rexmit = true
		b.rexmitNext = false
	}
	b.record(ph)
	b.r.Stats.BEFlitRetransmits++
	if b.r.met != nil {
		b.r.met.BEFlitRetransmits.Inc()
	}
	b.r.out[b.port].Drive(b.r.nowCycle, ph)
}

// bind picks a waiting input if none is bound, round-robin from the
// input after the last one bound.
func (b *beOutput) bind() {
	w := b.r.beWaiting[b.port]
	if b.curIn >= 0 || w == 0 {
		return
	}
	idx := firstFrom(uint32(w), b.rr)
	b.r.beWaiting[b.port] = w &^ (1 << idx)
	b.r.beIn[idx].bound = true
	b.curIn = idx
	b.rr = idx + 1
}

// canSend reports whether a best-effort flit could go out this cycle.
// Recovery traffic (pending replays or an abort) blocks fresh bytes:
// the stream must stay in order.
func (b *beOutput) canSend() bool {
	if b.abortPending || b.replayHead < len(b.replay) {
		return false
	}
	b.bind()
	if b.curIn < 0 {
		return false
	}
	if b.port != PortLocal && b.credits <= 0 {
		return false
	}
	return b.r.beIn[b.curIn].hasByte()
}

// stalled reports whether a bound input has a flit ready but the port
// cannot send it for lack of downstream credits.
func (b *beOutput) stalled() bool {
	b.bind()
	return b.curIn >= 0 && b.port != PortLocal && b.credits <= 0 &&
		b.r.beIn[b.curIn].hasByte()
}

// sendByte forwards one flit from the bound input. The caller has
// checked canSend.
func (b *beOutput) sendByte() {
	u := b.r.beIn[b.curIn]
	by, head, tail := u.pop()
	b.r.Stats.BEBytes[b.port]++
	if b.r.met != nil {
		b.r.met.ArbWins[b.port][metrics.ArbBE].Inc()
	}
	if b.r.OnBETransmit != nil {
		b.r.OnBETransmit(b.port, b.r.nowCycle)
	}
	if b.port == PortLocal {
		b.rxBuf = append(b.rxBuf, by)
		if tail {
			b.deliverLocal()
			b.curIn = -1
		}
		return
	}
	b.credits--
	ph := packet.Phit{Valid: true, VC: packet.VCBest, Data: by, Head: head, Tail: tail}
	if b.r.cfg.Integrity {
		ph.SideValid = true
		ph.Side = packet.CRC8Update(0, by)
		b.record(ph)
		b.retryCount = 0 // a fresh flit went out: the error episode is over
	}
	b.r.out[b.port].Drive(b.r.nowCycle, ph)
	if tail {
		b.curIn = -1
		b.r.Stats.BEPacketsSent[b.port]++
	}
}

func (b *beOutput) deliverLocal() {
	var payload []byte
	if n := len(b.rxBuf) - packet.BEHeaderBytes; n > 0 {
		payload = b.r.beArena.alloc(n)
		copy(payload, b.rxBuf[packet.BEHeaderBytes:])
	}
	b.r.beDelivered = append(b.r.beDelivered, DeliveredBE{
		Payload: payload,
		Cycle:   b.r.nowCycle,
	})
	b.r.Stats.BEDelivered++
	if b.r.met != nil {
		b.r.met.BEDelivered.Inc()
	}
	if b.r.OnLifecycle != nil {
		b.r.lifecycle(LifecycleEvent{Kind: EvDeliver, Port: -1, BE: true})
	}
	b.rxBuf = b.rxBuf[:0]
}

// beArena is a chunked bump allocator backing the payloads of
// delivered best-effort packets: one amortized chunk allocation
// replaces one heap allocation per delivery. reset retains the chunks
// for reuse, so steady-state delivery is allocation-free once the
// working set is covered. The router double-buffers two arenas in step
// with the beDelivered queues (see DrainBE), so a drained payload stays
// valid until the DrainBE call after next.
type beArena struct {
	chunks [][]byte
	live   int // chunks currently in use; the rest are retained spares
}

// beArenaChunk is the default chunk size; oversized payloads get a
// dedicated chunk of their own length.
const beArenaChunk = 4096

// alloc returns an owned, uninitialized slice of length n.
func (a *beArena) alloc(n int) []byte {
	if a.live > 0 {
		c := a.chunks[a.live-1]
		if len(c)+n <= cap(c) {
			c = c[:len(c)+n]
			a.chunks[a.live-1] = c
			return c[len(c)-n:]
		}
	}
	size := beArenaChunk
	if n > size {
		size = n
	}
	if a.live == len(a.chunks) {
		a.chunks = append(a.chunks, nil)
	}
	c := a.chunks[a.live]
	if cap(c) < n {
		c = make([]byte, 0, size)
	}
	c = c[:n]
	a.chunks[a.live] = c
	a.live++
	return c
}

// reset marks every chunk free for reuse without releasing its memory.
func (a *beArena) reset() {
	for i := range a.chunks {
		a.chunks[i] = a.chunks[i][:0]
	}
	a.live = 0
}
