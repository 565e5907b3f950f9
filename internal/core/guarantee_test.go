package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/admission"
	"repro/internal/mesh"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/traffic"
)

// TestAdmittedChannelsNeverMissDeadlines is the system's central
// property: for randomized workloads, ANY set of channels the admission
// controller accepts must run with zero deadline misses and zero drops,
// under periodic, bursty and backlogged sources, with best-effort
// background traffic trying to get in the way. This is the paper's
// end-to-end guarantee (Section 2) checked against the cycle-accurate
// hardware model rather than the analysis.
func TestAdmittedChannelsNeverMissDeadlines(t *testing.T) {
	patterns := []traffic.TCPattern{traffic.Periodic, traffic.Bursty, traffic.Backlogged}
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial) + 100))
			w, h := 2+rng.Intn(3), 2+rng.Intn(3)
			rcfg := router.DefaultConfig()
			// The guarantee must also hold with the §7 cut-through
			// extension.
			rcfg.VCT = trial%2 == 1
			sys, err := NewMesh(w, h, Options{Router: rcfg}.WithAdmission(admission.Config{
				Policy:       admission.Partitioned,
				SourceWindow: int64(rng.Intn(12)),
				Horizon:      uint32(rng.Intn(16)),
			}))
			if err != nil {
				t.Fatal(err)
			}
			// Throw random channel requests at the controller; keep
			// whatever it admits.
			opened := 0
			for i := 0; i < 25; i++ {
				src := mesh.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
				dst := mesh.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
				if src == dst {
					continue
				}
				imin := int64(4 + rng.Intn(28))
				// 1-2 packets, with room for the latency probe.
				smax := traffic.ProbeBytes + rng.Intn(2*packet.TCPayloadBytes-traffic.ProbeBytes)
				if int64((smax+packet.TCPayloadBytes-1)/packet.TCPayloadBytes) > imin {
					continue
				}
				dist := int64(abs(dst.X-src.X) + abs(dst.Y-src.Y) + 1)
				spec := rtc.Spec{
					Imin: imin,
					Smax: smax,
					Bmax: rng.Intn(3),
					D:    dist * (imin + int64(rng.Intn(10))),
				}
				ch, err := sys.OpenChannel(src, []mesh.Coord{dst}, spec)
				if err != nil {
					continue // rejection is always allowed
				}
				pat := patterns[rng.Intn(len(patterns))]
				app, err := traffic.NewTCApp(fmt.Sprintf("tc%d", i), ch.Paced(), spec, pat, smax)
				if err != nil {
					t.Fatal(err)
				}
				sys.Net.Kernel.Register(app)
				opened++
			}
			if opened == 0 {
				t.Skip("controller admitted nothing for this seed")
			}
			// Best-effort background from every node.
			for i, c := range sys.Net.Coords() {
				app, err := traffic.NewBEApp(fmt.Sprintf("be%d", i), sys.Net, c,
					traffic.UniformDst(sys.Net, c), traffic.UniformSize(16, 300),
					0.3, int64(trial*100+i))
				if err != nil {
					t.Fatal(err)
				}
				sys.Net.Kernel.Register(app)
			}
			sys.Run(30000)
			sum := sys.Summarize()
			if sum.TCMisses != 0 {
				t.Errorf("%d channels, %dx%d mesh: %d deadline misses (delivered %d)",
					opened, w, h, sum.TCMisses, sum.TCDelivered)
			}
			if sum.TCDrops != 0 {
				t.Errorf("drops on admitted traffic: %d", sum.TCDrops)
			}
			if sum.TCDelivered == 0 {
				t.Error("nothing delivered")
			}
			// The network must not wedge: BE flows too.
			if sum.BEDelivered == 0 {
				t.Error("best-effort background starved entirely")
			}
		})
	}
}

// TestNoResourceLeaksAfterDrain checks conservation: once sources stop
// and the network drains, every packet-memory slot is back in the idle
// FIFO and every scheduler leaf is free, on every router.
func TestNoResourceLeaksAfterDrain(t *testing.T) {
	sys := MustNewMesh(3, 3, Options{})
	rng := rand.New(rand.NewSource(7))
	var chans []*Channel
	for i := 0; i < 10; i++ {
		src := mesh.Coord{X: rng.Intn(3), Y: rng.Intn(3)}
		dst := mesh.Coord{X: rng.Intn(3), Y: rng.Intn(3)}
		if src == dst {
			continue
		}
		ch, err := sys.OpenChannel(src, []mesh.Coord{dst},
			rtc.Spec{Imin: 8, Smax: 30, D: 80})
		if err != nil {
			continue
		}
		chans = append(chans, ch)
	}
	if len(chans) == 0 {
		t.Fatal("nothing admitted")
	}
	for round := 0; round < 5; round++ {
		for _, ch := range chans {
			if err := ch.Send(make([]byte, 30)); err != nil {
				t.Fatal(err)
			}
		}
		sys.Run(8 * packet.TCBytes)
	}
	sys.Run(100 * packet.TCBytes) // drain
	for _, c := range sys.Net.Coords() {
		r := sys.Router(c)
		if r.FreeSlots() != r.Config().Slots {
			t.Errorf("router %s leaked %d memory slots", c, r.Config().Slots-r.FreeSlots())
		}
		if occ := r.Scheduler().Occupancy(); occ != 0 {
			t.Errorf("router %s has %d leaves still occupied", c, occ)
		}
	}
	// Conservation: everything sent was delivered (5 rounds × 2 packets
	// per 30-byte message × channels).
	want := int64(5 * 2 * len(chans))
	if got := sys.Summarize().TCDelivered; got != want {
		t.Errorf("delivered %d packets, want %d", got, want)
	}
}

// TestTeardownMidTrafficStopsDelivery closes a channel, then confirms
// in-flight teardown behaves: subsequent injections drop at the source
// router (no route), and no misses are charged against other channels.
func TestTeardownMidTrafficStopsDelivery(t *testing.T) {
	sys := MustNewMesh(2, 2, Options{})
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 1, Y: 1}
	spec := rtc.Spec{Imin: 8, Smax: 18, D: 60}
	ch, err := sys.OpenChannel(src, []mesh.Coord{dst}, spec)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := sys.OpenChannel(src, []mesh.Coord{dst}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Send([]byte("a")); err != nil {
		t.Fatal(err)
	}
	sys.Run(spec.D * packet.TCBytes * 2)
	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	before := sys.Summarize().TCDelivered
	// The closed channel's regulator handle refuses further messages.
	if err := ch.Send([]byte("b")); err == nil {
		t.Error("send on a closed channel accepted")
	}
	if err := keep.Send([]byte("c")); err != nil {
		t.Fatal(err)
	}
	sys.Run(spec.D * packet.TCBytes * 2)
	sum := sys.Summarize()
	if sum.TCDelivered != before+1 {
		t.Errorf("delivered %d new packets, want 1 (only the live channel)", sum.TCDelivered-before)
	}
	if sum.TCMisses != 0 {
		t.Errorf("misses charged to live traffic: %d", sum.TCMisses)
	}
	_ = router.PortLocal
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
