package router

import (
	"fmt"
	"math/bits"

	"repro/internal/packet"
)

// packetMemory models the shared single-ported SRAM that stores
// time-constrained packets awaiting the output links (Section 3.4). The
// memory is chunked — the paper's part is 10 bytes wide with a 20 ns
// access time, one chunk per cycle — and allocation uses an idle-address
// FIFO, as in the shared-memory switches the paper cites.
type packetMemory struct {
	data [][packet.TCBytes]byte
	// idle is the FIFO of free slot addresses, a fixed ring: nIdle
	// entries starting at idle[head].
	idle  []int
	head  int
	nIdle int
}

func newPacketMemory(slots int) *packetMemory {
	m := &packetMemory{data: make([][packet.TCBytes]byte, slots), nIdle: slots}
	m.idle = make([]int, slots)
	for i := range m.idle {
		m.idle[i] = i
	}
	return m
}

// alloc pops a free slot from the idle-address FIFO.
func (m *packetMemory) alloc() (int, bool) {
	if m.nIdle == 0 {
		return -1, false
	}
	s := m.idle[m.head]
	if m.head++; m.head == len(m.idle) {
		m.head = 0
	}
	m.nIdle--
	return s, true
}

// free returns a slot to the idle-address pool.
func (m *packetMemory) free(slot int) {
	if slot < 0 || slot >= len(m.data) {
		panic(fmt.Sprintf("router: freeing invalid memory slot %d", slot))
	}
	if m.nIdle == len(m.idle) {
		panic(fmt.Sprintf("router: freeing memory slot %d with every slot already idle", slot))
	}
	tail := m.head + m.nIdle
	if tail >= len(m.idle) {
		tail -= len(m.idle)
	}
	m.idle[tail] = slot
	m.nIdle++
}

func (m *packetMemory) freeSlots() int { return m.nIdle }

// writeChunk stores chunk i (chunkBytes wide) of a packet into slot.
func (m *packetMemory) writeChunk(slot, chunk, chunkBytes int, src []byte) {
	off := chunk * chunkBytes
	copy(m.data[slot][off:off+chunkBytes], src)
}

// readChunk loads chunk i of slot into dst.
func (m *packetMemory) readChunk(slot, chunk, chunkBytes int, dst []byte) {
	off := chunk * chunkBytes
	copy(dst, m.data[slot][off:off+chunkBytes])
}

// busClient is a port engine that may need a memory access this cycle.
// An engine raises its request line (memBus.request) when a transfer
// starts and drops it (memBus.release) with the last chunk; the bus
// polls the raised lines in round-robin order and grants one chunk
// transfer per cycle (demand-driven arbitration, Section 3.4).
type busClient interface {
	busGrant()
}

// memBus is the internal bus to the shared packet memory: exactly one
// chunk transfer per cycle among all requesting engines.
type memBus struct {
	clients []busClient
	// want has bit i set while clients[i] has a transfer in progress.
	want uint32
	rr   int
	// grants counts chunk transfers, a utilization statistic.
	grants int64
}

// attach adds a client and returns its request line, a single bit of
// want, in polling order.
func (b *memBus) attach(c busClient) uint32 {
	b.clients = append(b.clients, c)
	return 1 << (len(b.clients) - 1)
}

func (b *memBus) request(line uint32) { b.want |= line }
func (b *memBus) release(line uint32) { b.want &^= line }

// tick grants at most one client, the first requester at or after the
// one following the last grantee.
func (b *memBus) tick() {
	if b.want == 0 {
		return
	}
	idx := firstFrom(b.want, b.rr)
	b.clients[idx].busGrant()
	b.rr = idx + 1
	b.grants++
}

// firstFrom is the round-robin pick shared by the memory bus and the
// best-effort output binding: the position of the lowest set bit of mask
// at or after rr, wrapping to the lowest set bit of all. mask must be
// non-zero; rr may be one past the highest position.
func firstFrom(mask uint32, rr int) int {
	if hi := mask >> uint(rr) << uint(rr); hi != 0 {
		return bits.TrailingZeros32(hi)
	}
	return bits.TrailingZeros32(mask)
}
