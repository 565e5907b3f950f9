package core

import (
	"testing"

	"repro/internal/admission"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/sim"
)

func TestOpenChannelAndSend(t *testing.T) {
	sys := MustNewMesh(4, 4, Options{})
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 3, Y: 2}
	ch, err := sys.OpenChannel(src, []mesh.Coord{dst}, rtc.Spec{Imin: 8, Smax: 18, D: 60})
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	if err := ch.Send([]byte("hello real-time world")); err == nil {
		t.Fatal("oversize message accepted")
	}
	if err := ch.Send([]byte("cmd")); err != nil {
		t.Fatal(err)
	}
	ok := sys.RunUntil(func() bool { return sys.Sink(dst).TCCount > 0 }, 100000)
	if !ok {
		t.Fatalf("message not delivered; summary %+v", sys.Summarize())
	}
	sum := sys.Summarize()
	if sum.TCMisses != 0 || sum.TCDrops != 0 {
		t.Errorf("misses=%d drops=%d", sum.TCMisses, sum.TCDrops)
	}
}

func TestChannelDeliversWithinBound(t *testing.T) {
	sys := MustNewMesh(3, 3, Options{})
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 2, Y: 2}
	spec := rtc.Spec{Imin: 6, Smax: 18, D: 50}
	ch, err := sys.OpenChannel(src, []mesh.Coord{dst}, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Stream 20 periodic messages.
	for i := 0; i < 20; i++ {
		if err := ch.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		sys.Run(spec.Imin * packet.TCBytes)
	}
	sys.Run(spec.D * packet.TCBytes * 2)
	if got := sys.Sink(dst).TCCount; got != 20 {
		t.Fatalf("delivered %d/20", got)
	}
	if m := sys.Summarize().TCMisses; m != 0 {
		t.Errorf("deadline misses: %d", m)
	}
}

func TestMulticastChannel(t *testing.T) {
	sys := MustNewMesh(4, 4, Options{})
	src := mesh.Coord{X: 1, Y: 1}
	dsts := []mesh.Coord{{X: 3, Y: 1}, {X: 1, Y: 3}, {X: 3, Y: 3}}
	ch, err := sys.OpenChannel(src, dsts, rtc.Spec{Imin: 10, Smax: 18, D: 80})
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Send([]byte("to all")); err != nil {
		t.Fatal(err)
	}
	ok := sys.RunUntil(func() bool {
		for _, d := range dsts {
			if sys.Sink(d).TCCount == 0 {
				return false
			}
		}
		return true
	}, 200000)
	if !ok {
		t.Fatal("multicast incomplete")
	}
}

func TestBestEffortSend(t *testing.T) {
	sys := MustNewMesh(3, 3, Options{})
	src, dst := mesh.Coord{X: 2, Y: 0}, mesh.Coord{X: 0, Y: 2}
	if err := sys.SendBestEffort(src, dst, []byte("bulk data transfer")); err != nil {
		t.Fatal(err)
	}
	ok := sys.RunUntil(func() bool { return sys.Sink(dst).BECount > 0 }, 50000)
	if !ok {
		t.Fatal("best-effort packet lost")
	}
	if err := sys.SendBestEffort(mesh.Coord{X: 9, Y: 9}, dst, nil); err == nil {
		t.Error("source outside mesh accepted")
	}
	if err := sys.SendBestEffort(src, mesh.Coord{X: 9, Y: 9}, nil); err == nil {
		t.Error("destination outside mesh accepted")
	}
}

func TestChannelCloseReleases(t *testing.T) {
	sys := MustNewMesh(2, 1, Options{})
	spec := rtc.Spec{Imin: 4, Smax: 18, D: 8}
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 1, Y: 0}
	var open []*Channel
	for {
		ch, err := sys.OpenChannel(src, []mesh.Coord{dst}, spec)
		if err != nil {
			break
		}
		open = append(open, ch)
	}
	if len(open) == 0 {
		t.Fatal("nothing admitted")
	}
	if err := open[0].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.OpenChannel(src, []mesh.Coord{dst}, spec); err != nil {
		t.Errorf("re-open after close failed: %v", err)
	}
}

func TestOptionsOverride(t *testing.T) {
	rcfg := router.DefaultConfig()
	rcfg.VCT = true
	opts := Options{Router: rcfg}.WithAdmission(admission.Config{
		Policy:       admission.SharedPool,
		SourceWindow: 4,
		Horizon:      16,
	})
	sys, err := NewMesh(2, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := sys.Router(mesh.Coord{X: 0, Y: 0})
	if !r.Config().VCT {
		t.Error("router override lost")
	}
	if r.Horizon(router.PortXPlus) != 16 {
		t.Errorf("horizon = %d, want 16 (programmed by admission)", r.Horizon(router.PortXPlus))
	}
	if sys.Pacer(mesh.Coord{X: 0, Y: 0}).Window() != 4 {
		t.Error("source window override lost")
	}
}

// TestPartialRouterConfigRejected: only the zero router configuration
// means the paper's chip. A partly set one is validated as given, so a
// caller asking for 4-cycle wires and nothing else gets an error, not a
// mesh on the default 1-cycle wires.
func TestPartialRouterConfigRejected(t *testing.T) {
	if _, err := NewMesh(2, 2, Options{Router: router.Config{LinkLatency: 4}}); err == nil {
		t.Error("NewMesh accepted a router configuration with only LinkLatency set")
	}
	rcfg := router.DefaultConfig()
	rcfg.LinkLatency = 4
	sys, err := NewMesh(2, 2, Options{Router: rcfg})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Router(mesh.Coord{}).Config().LinkLatency; got != 4 {
		t.Errorf("LinkLatency = %d, want 4", got)
	}
}

func TestSummarize(t *testing.T) {
	sys := MustNewMesh(2, 1, Options{})
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 1, Y: 0}
	ch, err := sys.OpenChannel(src, []mesh.Coord{dst}, rtc.Spec{Imin: 8, Smax: 18, D: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := ch.Send(make([]byte, 18)); err != nil {
			t.Fatal(err)
		}
		sys.Run(8 * packet.TCBytes)
	}
	sys.Run(2000)
	sum := sys.Summarize()
	if sum.TCDelivered != 5 {
		t.Errorf("TCDelivered = %d, want 5", sum.TCDelivered)
	}
	if sum.BusUtilization <= 0 {
		t.Error("bus utilization not measured")
	}
}

// TestRunFoldsEverySlice: a long Run folds the routers' counts into the
// registry after every foldSlice cycles, so a live scrape moves before
// Run returns. A probe reads the registry in the last cycle of the first
// slice and in the first cycle of the second.
func TestRunFoldsEverySlice(t *testing.T) {
	reg := metrics.NewRegistry()
	sys := MustNewMesh(2, 1, Options{Metrics: reg})
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 1, Y: 0}
	ch, err := sys.OpenChannel(src, []mesh.Coord{dst}, rtc.Spec{Imin: 8, Smax: 18, D: 60})
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Send([]byte("cmd")); err != nil {
		t.Fatal(err)
	}
	seen := map[sim.Cycle]int64{}
	sys.Net.Kernel.Register(probe(func(now sim.Cycle) {
		if now == foldSlice-1 || now == foldSlice {
			seen[now] = reg.Snapshot().Totals.TCDelivered
		}
	}))
	sys.Run(2 * foldSlice)
	if seen[foldSlice-1] != 0 || seen[foldSlice] != 1 {
		t.Errorf("registry deliveries at cycles %d/%d = %d/%d, want 0/1 (one fold after the first slice)",
			foldSlice-1, foldSlice, seen[foldSlice-1], seen[foldSlice])
	}
}

// probe is a component that calls its function every cycle.
type probe func(sim.Cycle)

func (probe) Name() string         { return "probe" }
func (p probe) Tick(now sim.Cycle) { p(now) }

func TestResetStats(t *testing.T) {
	sys := MustNewMesh(2, 1, Options{})
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 1, Y: 0}
	ch, err := sys.OpenChannel(src, []mesh.Coord{dst}, rtc.Spec{Imin: 8, Smax: 18, D: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Send(make([]byte, 18)); err != nil {
		t.Fatal(err)
	}
	sys.Run(2000)
	if sys.Summarize().TCDelivered == 0 {
		t.Fatal("warmup traffic not delivered")
	}
	sys.ResetStats()
	sum := sys.Summarize()
	if sum.TCDelivered != 0 || sum.TCLatency.N() != 0 || sum.BusUtilization != 0 {
		t.Errorf("stats not reset: %+v", sum)
	}
	// Measurement continues cleanly after the reset.
	if err := ch.Send(make([]byte, 18)); err != nil {
		t.Fatal(err)
	}
	sys.Run(2000)
	if got := sys.Summarize().TCDelivered; got != 1 {
		t.Errorf("post-reset delivered = %d, want 1", got)
	}
}

// TestSchedulerPeakIsAHighWater: Summarize reports the most leaves a
// scheduler held at a beat, not what is left when the run ends. Packets
// stamped with a logical arrival 40 slots ahead wait in the source
// router's memory; after they have drained, the peak still counts them.
func TestSchedulerPeakIsAHighWater(t *testing.T) {
	sys := MustNewMesh(2, 1, Options{})
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 1, Y: 0}
	ch, err := sys.OpenChannel(src, []mesh.Coord{dst}, rtc.Spec{Imin: 8, Smax: 18, D: 32})
	if err != nil {
		t.Fatal(err)
	}
	const fill = 12
	r := sys.Router(src)
	ahead := packet.StampOf(r.SlotNow(sys.Now())) + 40
	for i := 0; i < fill; i++ {
		r.InjectTC(packet.TCPacket{Conn: ch.Admitted().SrcConn, Stamp: ahead})
	}
	sys.Run(fill*packet.TCBytes + 100)
	if occ := r.Scheduler().Occupancy(); occ != fill {
		t.Fatalf("%d leaves installed before the packets came due, want %d", occ, fill)
	}
	sys.Run(4000)
	for _, c := range sys.Net.Coords() {
		if occ := sys.Router(c).Scheduler().Occupancy(); occ != 0 {
			t.Fatalf("router %v still holds %d leaves", c, occ)
		}
	}
	sum := sys.Summarize()
	if sum.TCDelivered != fill {
		t.Fatalf("delivered %d/%d", sum.TCDelivered, fill)
	}
	if sum.SchedulerPeak < fill {
		t.Errorf("SchedulerPeak = %d after draining a scheduler that held %d leaves", sum.SchedulerPeak, fill)
	}
}
