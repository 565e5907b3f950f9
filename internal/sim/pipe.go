package sim

import (
	"encoding/binary"
	"math"
)

// Pipe is a fixed-latency delay line: a value written at cycle t is
// readable exactly at cycle t+latency, for that one cycle, and then
// expires — the same single-edge wire semantics as a chain of `latency`
// Regs, but with no per-cycle commit work at all.
//
// The implementation is a power-of-two ring of (stamp, value) slots
// indexed by arrival cycle. Writing stores the value under its arrival
// stamp; reading checks that the slot's stamp matches the current
// cycle, so stale values need no draining. Because the ring holds at
// least 2×latency slots, a reader probing cycles [t, t+k) and a writer
// storing cycles [t+latency, t+k+latency) touch disjoint slots whenever
// k ≤ latency — the property that makes epoch-synchronized execution
// race-free (see epoch.go).
//
// A Pipe carries values from exactly one writing component to exactly
// one reading component, at most one value per cycle. It is not a
// Latchable: pipes register with the kernel through AttachPipe, which
// records the wire's latency and endpoint shards for the epoch legality
// check and for the wake a write sends its reader.
type Pipe[T any] struct {
	slots []pipeSlot[T]
	// mirror, when the reading component has lent one (MirrorStamps), is
	// the reader's stamp rows from this wire's lane on: Write repeats the
	// low bits of every arrival stamp at (stamp & mirMask) * stride.
	mirror []byte
	// reader is the reading component's alarm, once it has lent it
	// (SetReader), and ring the alarm Write rings: the reader's own, or
	// on the pool a stand-in between tiles (Kernel.retarget).
	reader, ring    *Alarm
	lat             Cycle
	mirMask, stride int32
}

type pipeSlot[T any] struct {
	stamp Cycle // arrival cycle of val, or -1 when never written
	val   T
}

// NewPipe returns a delay line of the given latency (cycles from write
// to read, at least 1). Latency 1 is bit-identical to a plain Reg wire.
func NewPipe[T any](latency int64) *Pipe[T] {
	if latency < 1 {
		panic("sim: pipe latency must be >= 1")
	}
	size := int64(1)
	for size < 2*latency {
		size <<= 1
	}
	p := &Pipe[T]{lat: Cycle(latency), slots: make([]pipeSlot[T], size), reader: &unread, ring: &unread}
	p.Clear()
	return p
}

// Clear expires every value in flight, as if none had been written. Only
// safe while nothing writes or reads the pipe: a link that is cut.
func (p *Pipe[T]) Clear() {
	for i := range p.slots {
		p.slots[i].stamp = -1
	}
}

// Latency returns the write-to-read delay in cycles.
func (p *Pipe[T]) Latency() int64 { return int64(p.lat) }

// Write drives v onto the wire at cycle now; it arrives at now+latency.
// A sleeping reader's bit on its wake list is set, so it wakes at its
// next turn (see walker.walk).
func (p *Pipe[T]) Write(now Cycle, v T) {
	at := now + p.lat
	s := &p.slots[int64(at)&int64(len(p.slots)-1)]
	s.stamp, s.val = at, v
	if m := p.mirror; m != nil {
		binary.LittleEndian.PutUint16(m[(int(at)&int(p.mirMask))*int(p.stride):], uint16(at))
	}
	if r := p.ring; r.at != awake {
		*r.word |= r.bit
	}
}

// SetReader lends the pipe its reading component's alarm: from now on a
// Write marks a sleeping reader awake, and the reader wakes at its next
// turn. The reader still owns the values already in flight (see
// Skipper.NextWork). nil takes the alarm away again, for a reader that
// stops reading the pipe. Only safe at a synchronization point; a new
// reader makes the kernel deal its entries afresh before the next step.
func (p *Pipe[T]) SetReader(a *Alarm) {
	if a == nil {
		a = &unplugged
	}
	if a != p.reader {
		p.reader, p.ring = a, a
		if a.k != nil {
			a.k.dealt = false
		}
	}
}

// unread is the reader alarm of a pipe no reader has lent one, unplugged
// that of a pipe whose reader took it back. Both stay awake, so Write
// never rings them; only an unread pipe keeps the wake lists from putting
// anyone to sleep, since someone may still read it.
var unread, unplugged = Alarm{at: awake}, Alarm{at: awake}

// readBy returns the reading component's alarm.
func (p *Pipe[T]) readBy() *Alarm { return p.reader }

// ringTo sets the alarm Write rings.
func (p *Pipe[T]) ringTo(a *Alarm) { p.ring = a }

// Ring returns the number of slots in the pipe's ring, the least ring
// size MirrorStamps accepts.
func (p *Pipe[T]) Ring() int { return len(p.slots) }

// MirrorStamps lends the pipe a block of stamp rows owned by its reader:
// size rows of stride bytes each, one per arrival cycle modulo size, and
// in every row the little-endian 16-bit lane number lane (bytes 2·lane
// and 2·lane+1) belongs to this wire. From now on Write also stores the
// low 16 bits of each arrival stamp at row stamp&(size-1) of that lane.
// The reader then learns "nothing arrives at cycle c on any of my wires"
// from the row of c alone — one compare per lane, or one per word for
// lanes packed four to a word — and needs Read only on a lane that
// matches, which may also be a stale stamp 65536·k cycles old. size must
// be a power of two no smaller than Ring: a reader probing cycles
// [t, t+k) and a writer storing arrivals in [t+latency, t+k+latency)
// then touch disjoint rows whenever k ≤ latency, so the mirror is as
// race-free as the slots. The stamps in flight are copied in; nil rows
// take the mirror away again. Only safe at a synchronization point.
func (p *Pipe[T]) MirrorStamps(rows []byte, lane, size, stride int) {
	if rows == nil {
		p.mirror = nil
		return
	}
	switch {
	case size < len(p.slots) || size&(size-1) != 0:
		panic("sim: pipe stamp rows must be a power of two no fewer than the ring")
	case lane < 0 || 2*lane+2 > stride || len(rows) < size*stride || size*stride > math.MaxInt32:
		panic("sim: pipe stamp lane outside its rows")
	}
	p.mirror, p.mirMask, p.stride = rows[2*lane:], int32(size-1), int32(stride)
	for i := range p.slots {
		if s := p.slots[i].stamp; s >= 0 {
			binary.LittleEndian.PutUint16(p.mirror[(int(s)&(size-1))*stride:], uint16(s))
		}
	}
}

// Read returns the value arriving exactly at cycle now, or the zero
// value if the wire is idle this cycle. Reading does not consume: the
// slot expires on its own when the clock moves past it.
func (p *Pipe[T]) Read(now Cycle) T {
	s := &p.slots[int64(now)&int64(len(p.slots)-1)]
	if s.stamp == now {
		return s.val
	}
	var zero T
	return zero
}

// PipeState is the kernel's view of an attached delay line.
type PipeState interface {
	Latency() int64
	readBy() *Alarm
	ringTo(a *Alarm)
}

// pipeEntry records one attached pipe with the shards of its single
// writer and single reader (-1 when unknown).
type pipeEntry struct {
	p      PipeState
	writer int
	reader int
}

// AttachPipe registers a delay line with the kernel. writerShard and
// readerShard name the shards of the pipe's driving and receiving
// components (pass -1 when unknown — the kernel then steps every cycle,
// because no tile owns the wire). The epoch derives from the minimum
// latency over all cross-shard pipes.
func (k *Kernel) AttachPipe(p PipeState, writerShard, readerShard int) {
	if p == nil {
		panic("sim: AttachPipe(nil)")
	}
	k.pipes = append(k.pipes, pipeEntry{p: p, writer: writerShard, reader: readerShard})
	k.planDirty = true
	k.syncDirty = true
}
