package router

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/sim"
)

// newBenchPair wires two routers A↔B over one bidirectional channel,
// the minimal fixture that exercises real link traversal.
func newBenchPair(b *testing.B) (*sim.Kernel, *Router, *Router) {
	b.Helper()
	k := sim.NewKernel()
	ra := MustNew("A", DefaultConfig())
	rb := MustNew("B", DefaultConfig())
	k.Register(ra)
	k.Register(rb)
	ab := NewChannel(k)
	ra.ConnectOut(PortXPlus, ab.Out())
	rb.ConnectIn(PortXMinus, ab.In())
	ba := NewChannel(k)
	rb.ConnectOut(PortXMinus, ba.Out())
	ra.ConnectIn(PortXPlus, ba.In())
	return k, ra, rb
}

// BenchmarkRouterTick measures the router's per-cycle cost on the hot
// paths the simulator spends its time in: the idle tick (bare, and with
// all four links attached so reading the wires is in the number), the
// parked tick (packets held to their logical arrival time, nothing
// moving), saturated time-constrained forwarding (with a near-empty and
// with a 32-leaf scheduler, and with the sender's other three links
// attached but quiet — the ports a busy tick should not pay for), and
// best-effort wormhole traffic contending in both directions. One
// iteration is one simulated
// cycle, so ns/op reads directly as ns/cycle and allocs/op as
// allocs/cycle (the steady-state figure TestSteadyStateAllocs gates at
// the mesh level).
func BenchmarkRouterTick(b *testing.B) {
	b.Run("idle", func(b *testing.B) {
		k := sim.NewKernel()
		r := MustNew("A", DefaultConfig())
		k.Register(r)
		k.Run(16) // settle into the quiescent fast path
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Step()
		}
		if r.Stats.TCDelivered != 0 {
			b.Fatal("idle benchmark delivered packets")
		}
	})

	b.Run("idle_wired", func(b *testing.B) {
		k := sim.NewKernel()
		r := MustNew("A", DefaultConfig())
		k.Register(r)
		for p := 0; p < NumLinks; p++ {
			Loopback(k, r, p, p^1) // +x→−x, −x→+x, +y→−y, −y→+y
		}
		k.Run(16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Step()
		}
		if r.IdleTicks() < int64(b.N) {
			b.Fatalf("%d idle ticks in %d cycles", r.IdleTicks(), b.N)
		}
	})

	// parked holds eight leaves in each router of the pair, all a hundred
	// slots short of their logical arrival time. The 8-bit slot clock
	// would bring any stamp due within 2560 cycles, so every 1024 cycles
	// the leaves are re-stamped in place — below the router's own
	// interfaces, since a real packet cannot be told to wait longer.
	b.Run("parked", func(b *testing.B) {
		k, ra, rb := newBenchPair(b)
		hold := func(r *Router) {
			l := r.wheel.Add(r.slotNow(int64(k.Now())), 100)
			for s := 0; s < 8; s++ {
				if r.schedq.Leaf(s).InUse {
					if _, err := r.schedq.ClearPort(s, PortLocal); err != nil {
						b.Fatal(err)
					}
				} else if got, ok := r.mem.alloc(); !ok || got != s {
					b.Fatalf("allocated slot %d, want %d", got, s)
				}
				leaf := sched.Leaf{L: l, Dl: r.wheel.Add(l, 5), Mask: 1 << PortLocal, InConn: 1, OutConn: 1}
				if err := r.schedq.Install(s, leaf); err != nil {
					b.Fatal(err)
				}
			}
			r.rest = restBusy // as an injection would: the next Tick re-derives it
		}
		step := func(cycle int) {
			if cycle%1024 == 0 {
				hold(ra)
				hold(rb)
			}
			k.Step()
		}
		for c := 0; c < 16; c++ {
			step(c)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(i + 16)
		}
		if parked := ra.ParkedTicks() + rb.ParkedTicks(); parked < 2*int64(b.N)*99/100 {
			b.Fatalf("%d parked ticks in %d cycles of two routers", parked, b.N)
		}
		if ra.Scheduler().Occupancy() != 8 || ra.Stats.TCTransmitted != [NumPorts]int64{} {
			b.Fatalf("%d leaves resident, %v transmitted: the hold did not hold",
				ra.Scheduler().Occupancy(), ra.Stats.TCTransmitted)
		}
	})

	// tcForward saturates the A→B link with one packet per slot, each
	// stamped ahead slots before its logical arrival time. With ahead 0
	// the tree holds a leaf or two; with ahead 32 every packet waits out
	// its earliness in A's memory, so about 32 leaves stay resident — the
	// occupancy a loaded mesh runs at, and what Select's cost scales with.
	// With quietPorts A's other three links are looped back on themselves
	// and carry nothing: wired like a mesh router's, with work on one.
	tcForward := func(b *testing.B, ahead int, quietPorts bool) {
		k, ra, rb := newBenchPair(b)
		if quietPorts {
			for _, p := range []int{PortXMinus, PortYPlus, PortYMinus} {
				Loopback(k, ra, p, p)
			}
		}
		if err := ra.SetConnection(1, 2, 5, 1<<PortXPlus); err != nil {
			b.Fatal(err)
		}
		if err := rb.SetConnection(2, 7, 5, 1<<PortLocal); err != nil {
			b.Fatal(err)
		}
		pkt := packet.TCPacket{Conn: 1}
		step := func(cycle int) {
			// One packet per slot keeps the scheduler, the shared memory,
			// and the transmit engines busy every single cycle.
			if cycle%packet.TCBytes == 0 && ra.FreeSlots() > 0 {
				if ahead > 0 {
					pkt.Stamp = packet.StampOf(ra.SlotNow(int64(k.Now()))) + uint8(ahead)
				}
				ra.InjectTC(pkt)
			}
			k.Step()
			rb.DrainTC()
		}
		// Warm-up must outlast the connection's scheduling delay (d=5
		// slots at each hop) and the packets' earliness, so deliveries
		// are already flowing when the measured window starts.
		for c := 0; c < (32+2*ahead)*packet.TCBytes; c++ {
			step(c)
		}
		if rb.Stats.TCDelivered == 0 {
			b.Fatal("tc_forward benchmark forwarded nothing during warm-up")
		}
		if occ := ra.Scheduler().Occupancy(); ahead > 0 && (occ < ahead-4 || occ > ahead+4) {
			b.Fatalf("%d leaves resident after warm-up, want about %d", occ, ahead)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(i)
		}
	}
	b.Run("tc_forward", func(b *testing.B) { tcForward(b, 0, false) })
	b.Run("tc_forward_occ32", func(b *testing.B) { tcForward(b, 32, false) })
	b.Run("busy_quiet_ports", func(b *testing.B) { tcForward(b, 0, true) })

	b.Run("be_contention", func(b *testing.B) {
		k, ra, rb := newBenchPair(b)
		payload := make([]byte, 64)
		topUp := func(r *Router, xoff int) {
			// Mirror a backpressured source: keep the injection port fed
			// from the recycled frame pool without queueing unboundedly.
			if r.BEInjectBacklog() >= 4 {
				return
			}
			frame, err := packet.AppendBE(r.BEFrameBuf(), xoff, 0, payload)
			if err != nil {
				b.Fatal(err)
			}
			r.InjectBE(frame)
		}
		step := func() {
			topUp(ra, 1)
			topUp(rb, -1)
			k.Step()
			ra.DrainBE()
			rb.DrainBE()
		}
		for c := 0; c < 512; c++ {
			step() // fill the wormholes and warm the frame pools
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
		b.StopTimer()
		if ra.Stats.BEDelivered == 0 || rb.Stats.BEDelivered == 0 {
			b.Fatal("be_contention benchmark delivered nothing")
		}
	})
}
