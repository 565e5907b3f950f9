package sim

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
// records the wire's latency for the epoch legality check and its
// occupancy probes for quiescence skipping.
type Pipe[T any] struct {
	lat   Cycle
	mask  int64
	slots []pipeSlot[T]
	// mirror, when the reading component has lent one (MirrorStamps),
	// repeats the low bits of every arrival stamp into a ring the reader
	// owns. With it the struct is 64 bytes: one cache line, not a
	// straddled one and a half.
	mirror []uint16
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
	p := &Pipe[T]{lat: Cycle(latency), mask: size - 1, slots: make([]pipeSlot[T], size)}
	for i := range p.slots {
		p.slots[i].stamp = -1
	}
	return p
}

// Latency returns the write-to-read delay in cycles.
func (p *Pipe[T]) Latency() int64 { return int64(p.lat) }

// Write drives v onto the wire at cycle now; it arrives at now+latency.
func (p *Pipe[T]) Write(now Cycle, v T) {
	at := now + p.lat
	s := &p.slots[int64(at)&p.mask]
	s.stamp, s.val = at, v
	if m := p.mirror; m != nil {
		m[int(at)&(len(m)-1)] = uint16(at)
	}
}

// Ring returns the number of slots in the pipe's ring, the least length
// MirrorStamps accepts.
func (p *Pipe[T]) Ring() int { return len(p.slots) }

// MirrorStamps lends the pipe a stamp ring owned by its reader: from
// now on Write also stores the low 16 bits of each arrival stamp at
// m[stamp&(len(m)-1)]. The reader then learns "nothing arrives at cycle
// c" from m[c&(len(m)-1)] != uint16(c) — sixteen bits of its own memory,
// next to whatever else it keeps there — and needs Read only on a match,
// which may also be a stale stamp 65536·k cycles old. len(m) must be a
// power of two no shorter than Ring, which keeps the ring's disjoint-slot
// discipline: the mirror is as race-free as the slots. The stamps in
// flight are copied in; nil takes the mirror away again. Only safe at a
// synchronization point.
func (p *Pipe[T]) MirrorStamps(m []uint16) {
	if m != nil && (len(m) < len(p.slots) || len(m)&(len(m)-1) != 0) {
		panic("sim: pipe stamp mirror must be a power of two no shorter than the ring")
	}
	p.mirror = m
	if m == nil {
		return
	}
	for i := range p.slots {
		if s := p.slots[i].stamp; s >= 0 {
			m[int(s)&(len(m)-1)] = uint16(s)
		}
	}
}

// Read returns the value arriving exactly at cycle now, or the zero
// value if the wire is idle this cycle. Reading does not consume: the
// slot expires on its own when the clock moves past it.
func (p *Pipe[T]) Read(now Cycle) T {
	s := &p.slots[int64(now)&p.mask]
	if s.stamp == now {
		return s.val
	}
	var zero T
	return zero
}

// NextStamp returns the earliest in-flight arrival at or after now, or
// Never when nothing is due. It scans the whole ring and is only safe
// at a synchronization point (the kernel's between-cycle skip probe).
func (p *Pipe[T]) NextStamp(now Cycle) Cycle {
	best := Never
	for i := range p.slots {
		if s := p.slots[i].stamp; s >= now && s < best {
			best = s
		}
	}
	return best
}

// HasStampIn reports whether any value arrives in [now, end). It probes
// only the slots those cycles map to — indices no concurrent writer can
// touch while end-now stays within the epoch legality bound — so the
// per-tile skip may call it while other tiles are still ticking.
func (p *Pipe[T]) HasStampIn(now, end Cycle) bool {
	for c := now; c < end; c++ {
		if p.slots[int64(c)&p.mask].stamp == c {
			return true
		}
	}
	return false
}

// PipeState is the kernel's view of an attached delay line.
type PipeState interface {
	Latency() int64
	NextStamp(now Cycle) Cycle
	HasStampIn(now, end Cycle) bool
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
