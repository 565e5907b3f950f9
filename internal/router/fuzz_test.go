package router

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
)

// FuzzRouterTick drives one Integrity router with fuzzer-chosen input:
// its four link inputs carry arbitrary phit streams — framing marks,
// virtual channel, sideband checksum, retransmit and abort flags all the
// fuzzer's — and its injection port an arbitrary byte stream, cut into
// 20-byte packets. Every output feeds a sink that acks each best-effort
// flit, unless the program holds the credits back for a while; a program
// may also reset the router's counters mid-run. The router must not
// panic, and once the streams stop, one full slot-clock period plus slack
// must return every packet-memory slot: a corrupt, truncated or misrouted
// frame may be dropped, never leaked.
// Each program runs three times — plain, with slack attribution on, and
// ticked by the fullScan oracle (every port arbitrated, every beat a real
// Select) — and all three must end with the same hardware counters,
// folded telemetry, free slots and scheduler Selects/Overdue: attribution
// observes the tick, it never steers it, and the busy tick's gates leave
// out only work that changes nothing.
//
//	go test -fuzz=FuzzRouterTick -fuzztime=20s -run '^$' ./internal/router/
func FuzzRouterTick(f *testing.F) {
	f.Add(tickFrame(0, 1, 0, false))                 // clean frame
	f.Add(tickFrame(2, 3, 5, true))                  // corrupted tail checksum
	f.Add(tickFrame(1, 2, 9, false)[:12*tickRecord]) // truncated frame
	f.Add(tickBERecovery())                          // best-effort nack, then an abort to forward
	f.Add(tickCreditStall())                         // a credit stall held across ResetStats
	f.Fuzz(func(t *testing.T, prog []byte) {
		plain := runRouterTick(t, prog, false, false)
		if blamed := runRouterTick(t, prog, true, false); blamed != plain {
			t.Fatalf("attribution changed the run:\n%+v\nwithout it\n%+v", blamed, plain)
		}
		if scanned := runRouterTick(t, prog, false, true); scanned != plain {
			t.Fatalf("the full-scan oracle ended elsewhere:\n%+v\nTick\n%+v", scanned, plain)
		}
	})
}

// tickResult is what the runs of one program must agree on.
type tickResult struct {
	stats            Stats
	counts           metrics.RouterCounts
	free             int
	selects, overdue int64
}

// tickRecord is the size of one program record: input port (mod 5, 4 the
// injection port), flags (Valid, VCBest, Head, Tail, SideValid, Rexmit,
// Abort from bit 0 up), data byte, sideband byte. A record is one cycle of
// its port's stream; the injection port uses only the data byte. An
// injection-port record with flag bit 7 set is a control record instead,
// acting before the cycle numbered by its place in the program: with bit
// 0 the sinks hold back their credits for the next 4·data cycles and
// return them one a cycle afterwards, with bit 1 the router's counters
// are reset (ResetStats).
const tickRecord = 4

// tickCtl is one control record.
type tickCtl struct {
	cycle int64
	flags byte
	data  byte
}

// tickMaxRecords caps a program. It bounds the packets one run can offer
// (a few dozen), so the drain below never has to outwait a backlog.
const tickMaxRecords = 512

// tickFrame is a program holding one well-formed time-constrained frame
// for conn on input port, ℓ = stamp, with its checksum — or a wrong one.
func tickFrame(port int, conn, stamp uint8, corrupt bool) []byte {
	p := packet.EncodeTC(packet.TCPacket{Conn: conn, Stamp: stamp})
	crc := packet.CRC8(p[:])
	if corrupt {
		crc ^= 0x5a
	}
	var prog []byte
	for i, ph := range packet.Frame(packet.VCTime, p[:]) {
		flags := byte(1) // Valid, VCTime
		if ph.Head {
			flags |= 1 << 2
		}
		side := byte(0)
		if ph.Tail {
			flags |= 1<<3 | 1<<4
			side = crc
		}
		prog = append(prog, byte(port), flags, p[i], side)
	}
	return prog
}

// tickCreditStall is a program holding one best-effort Integrity frame on
// input -x, routed on through output +x, while the sinks hold back their
// credits for 400 cycles: the output sends the ten flits its credits
// cover and stalls. The counters are reset at cycle 80, mid-stall.
func tickCreditStall() []byte {
	frame, err := packet.NewBE(2, 0, make([]byte, 10))
	if err != nil {
		panic(err)
	}
	const best, head, tail, side, ctl = 1 | 1<<1, 1 << 2, 1 << 3, 1 << 4, 1 << 7
	prog := []byte{NumLinks, ctl | 1, 100, 0}
	for i, b := range frame {
		flags := byte(best | side)
		if i == 0 {
			flags |= head
		}
		if i == len(frame)-1 {
			flags |= tail
		}
		prog = append(prog, PortXMinus, flags, b, packet.CRC8Update(0, b))
	}
	for len(prog) < 80*tickRecord {
		prog = append(prog, PortYPlus, 0, 0, 0) // an idle wire
	}
	return append(prog, NumLinks, ctl|2, 0, 0)
}

// tickBERecovery is a program holding one best-effort Integrity frame
// on input -x, routed on through output +x, whose tail flit carries a
// wrong checksum: the input nacks and discards it while the head flits
// go on downstream. The upstream's Abort flit follows, so the output owes
// its link a recovery flit as soon as the abort is read.
func tickBERecovery() []byte {
	frame, err := packet.NewBE(2, 0, []byte{1, 2, 3, 4})
	if err != nil {
		panic(err)
	}
	const best, head, tail, side, abort = 1 | 1<<1, 1 << 2, 1 << 3, 1 << 4, 1 << 6
	var prog []byte
	for i, b := range frame {
		flags, crc := byte(best|side), packet.CRC8Update(0, b)
		if i == 0 {
			flags |= head
		}
		if i == len(frame)-1 {
			flags |= tail
			crc ^= 0x5a
		}
		prog = append(prog, PortXMinus, flags, b, crc)
	}
	for range 8 {
		prog = append(prog, PortXMinus, 0, 0, 0) // idle while the head flits go on
	}
	return append(prog, PortXMinus, best|tail|abort, 0, 0)
}

// tickHarness plays the program's streams into the router and sinks its
// outputs; it ticks before the router each cycle.
type tickHarness struct {
	r      *Router
	in     [NumLinks]*OutLink
	out    [NumLinks]*InLink
	phits  [NumLinks][]packet.Phit
	inject [][packet.TCBytes]byte
	ctl    []tickCtl // in cycle order

	owed             [NumLinks]int // credits the sinks have yet to return
	holdFrom, holdTo int64         // the sinks return none in [holdFrom, holdTo)
}

func (h *tickHarness) Name() string { return "tick-harness" }

func (h *tickHarness) Tick(now sim.Cycle) {
	c := int64(now)
	for ; len(h.ctl) > 0 && h.ctl[0].cycle == c; h.ctl = h.ctl[1:] {
		x := h.ctl[0]
		if x.flags&1 != 0 {
			h.holdFrom, h.holdTo = c, c+4*int64(x.data)
		}
		if x.flags&2 != 0 {
			h.r.ResetStats()
		}
	}
	for p := 0; p < NumLinks; p++ {
		if c < int64(len(h.phits[p])) {
			h.in[p].Drive(c, h.phits[p][c])
		}
		if ph := h.out[p].Phit(c); ph.Valid && ph.VC == packet.VCBest {
			h.owed[p]++
		}
		if h.owed[p] > 0 && (c < h.holdFrom || c >= h.holdTo) {
			h.owed[p]--
			h.out[p].DriveAck(c, packet.Ack{BECredit: true})
		}
	}
	// One injected packet per packet time, as the port streams them.
	if c%packet.TCBytes == 0 && c/packet.TCBytes < int64(len(h.inject)) {
		h.r.InjectTC(packet.DecodeTC(h.inject[c/packet.TCBytes]))
	}
	h.r.DrainTC()
	h.r.DrainBE()
}

// streamCycles is how long the program's input lasts.
func (h *tickHarness) streamCycles() int64 {
	n := int64(len(h.inject)) * packet.TCBytes
	for _, s := range h.phits {
		n = max(n, int64(len(s)))
	}
	for _, x := range h.ctl {
		n = max(n, x.cycle+4*int64(x.data))
	}
	return n
}

// runRouterTick plays prog into a fresh router, with slack attribution
// on if blame and ticked by fullScan if scan, and returns its counters,
// telemetry, free slots and scheduler telemetry after the drain.
func runRouterTick(t *testing.T, prog []byte, blame, scan bool) tickResult {
	cfg := DefaultConfig()
	cfg.Integrity = true
	r := MustNew("F", cfg)
	if blame {
		r.EnableBlame()
	}
	for _, e := range []struct {
		in, out, d uint8
		ports      []int
	}{
		{1, 11, 4, []int{PortXPlus}},
		{2, 12, 8, []int{PortLocal}},
		{3, 13, 2, []int{PortYPlus, PortXMinus, PortLocal}},
		{4, 14, 20, []int{PortYMinus}},
	} {
		if err := r.SetConnection(e.in, e.out, e.d, maskOf(e.ports...)); err != nil {
			t.Fatal(err)
		}
	}
	k := sim.NewKernel()
	h := &tickHarness{r: r}
	for p := 0; p < NumLinks; p++ {
		in, out := NewChannel(k), NewChannel(k)
		h.in[p], h.out[p] = in.Out(), out.In()
		r.ConnectIn(p, in.In())
		r.ConnectOut(p, out.Out())
	}
	k.Register(h)
	if scan {
		k.Register(fullScan{r})
	} else {
		k.Register(r)
	}

	var injBytes []byte
	for i := 0; i+tickRecord <= len(prog) && i < tickMaxRecords*tickRecord; i += tickRecord {
		rec := prog[i : i+tickRecord]
		port, fl := int(rec[0])%(NumLinks+1), rec[1]
		switch {
		case port == NumLinks && fl&(1<<7) != 0:
			h.ctl = append(h.ctl, tickCtl{int64(i / tickRecord), fl, rec[2]})
			continue
		case port == NumLinks:
			injBytes = append(injBytes, rec[2])
			continue
		}
		ph := packet.Phit{
			Valid: fl&1 != 0, Head: fl&(1<<2) != 0, Tail: fl&(1<<3) != 0,
			SideValid: fl&(1<<4) != 0, Rexmit: fl&(1<<5) != 0, Abort: fl&(1<<6) != 0,
			Data: rec[2], Side: rec[3],
		}
		if fl&(1<<1) != 0 {
			ph.VC = packet.VCBest
		}
		h.phits[port] = append(h.phits[port], ph)
	}
	for ; len(injBytes) >= packet.TCBytes; injBytes = injBytes[packet.TCBytes:] {
		h.inject = append(h.inject, [packet.TCBytes]byte(injBytes))
	}

	// A packet waits at most half the clock range for its logical arrival,
	// then at most one packet time per packet ahead of it on its port;
	// a full period covers both with room to spare at these program sizes.
	period := int64(r.Wheel().Range()) * packet.TCBytes
	k.Run(h.streamCycles() + period + 1000)
	if got := r.FreeSlots(); got != cfg.Slots {
		t.Fatalf("%d of %d packet-memory slots free after the drain (blame %v); stats %+v", got, cfg.Slots, blame, r.Stats)
	}
	return tickResult{r.Stats, r.counts(), r.FreeSlots(), r.schedq.Selects, r.schedq.Overdue}
}
