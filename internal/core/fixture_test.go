package core

import (
	"reflect"
	"testing"

	"repro/internal/admission"
	"repro/internal/mesh"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/traffic"
)

// TestBuildReportsRefusal: a request the controller turns down is
// recorded at its index with the controller's own error, every other
// channel still opens, and the refused request leaves nothing behind —
// no generator in the kernel, no reservation in the ledger.
func TestBuildReportsRefusal(t *testing.T) {
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 1, Y: 0}
	ok := ChannelReq{Src: src, Dsts: []mesh.Coord{dst}, Spec: rtc.Spec{Imin: 16, Smax: 18, D: 32}}
	// A message every slot would need the whole link, which the first
	// channel already shares.
	bad := ok
	bad.Spec.Imin = 1
	fx := Fixture{W: 2, H: 1, Channels: []ChannelReq{ok, bad, ok}}

	clean, err := Fixture{W: 2, H: 1, Channels: []ChannelReq{ok, ok}}.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	b, err := fx.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b.Channels[0] == nil || b.Channels[1] != nil || b.Channels[2] == nil {
		t.Fatalf("channels = %v, want only the middle one refused", b.Channels)
	}
	if b.Refusals[0] != nil || b.Refusals[1] == nil || b.Refusals[2] != nil {
		t.Fatalf("refusals = %v, want only the middle one set", b.Refusals)
	}
	if _, explained := admission.Explain(b.Refusals[1]); !explained {
		t.Errorf("refusal %v is not the controller's typed rejection", b.Refusals[1])
	}
	if got, want := b.Net.Kernel.Components(), clean.Net.Kernel.Components(); got != want {
		t.Errorf("%d kernel components, want %d: the refused request left a generator behind", got, want)
	}
	if b.Adm.Active() != 2 || b.Adm.VerifyLedger() != nil {
		t.Errorf("%d active channels (ledger: %v), want 2", b.Adm.Active(), b.Adm.VerifyLedger())
	}
	if _, err := fx.BuildAll(); err == nil {
		t.Error("BuildAll accepted a fixture with a refused request")
	}

	// Open tells the controller's verdict apart from a generator that
	// cannot be built, and rolls the latter's channel back.
	if ch, refused, err := b.Open(bad); ch != nil || refused == nil || err != nil {
		t.Errorf("Open of an infeasible request: channel %v, refused %v, err %v", ch, refused, err)
	}
	oversize := ok
	oversize.Size = ok.Spec.Smax + 1
	if ch, refused, err := b.Open(oversize); ch != nil || refused != nil || err == nil {
		t.Errorf("Open with a message over Smax: channel %v, refused %v, err %v", ch, refused, err)
	}
	if b.Adm.Active() != 2 {
		t.Errorf("%d active channels after a failed generator, want 2", b.Adm.Active())
	}
}

// TestBuiltFixtureParallelEquivalence: Build registers every source in
// its node's shard rather than as a kernel barrier, so a two-worker run
// of a built 4×4 system reproduces the one-worker run's hardware
// counters exactly, and — the kernel pins its epoch to 1 when any
// barrier component exists — derives a 4-cycle epoch from 4-cycle links.
func TestBuiltFixtureParallelEquivalence(t *testing.T) {
	run := func(workers int) []router.Stats {
		cfg := router.DefaultConfig()
		cfg.LinkLatency = 4
		fx := Fixture{W: 4, H: 4, Seed: 3, Options: Options{Workers: workers, Router: cfg},
			BestEffort: EveryNode(4, 4, BESource{Rate: 0.3, SizeMin: 32, SizeMax: 96})}
		spec := rtc.Spec{Imin: 8, Smax: 18, D: 96}
		for i, rt := range [][2]mesh.Coord{
			{{X: 0, Y: 0}, {X: 3, Y: 3}}, {{X: 3, Y: 0}, {X: 0, Y: 3}},
			{{X: 1, Y: 2}, {X: 2, Y: 0}}, {{X: 2, Y: 3}, {X: 0, Y: 1}},
		} {
			req := ChannelReq{Src: rt[0], Dsts: []mesh.Coord{rt[1]}, Spec: spec}
			if i%2 == 1 {
				req.Pattern = traffic.Bursty
			}
			fx.Channels = append(fx.Channels, req)
		}
		b, err := fx.BuildAll()
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		b.Net.Kernel.ForcePool(true) // pool even at GOMAXPROCS=1
		b.Run(6000)
		if e := b.Net.Kernel.EffectiveEpoch(); e != 4 {
			t.Errorf("workers %d: effective epoch %d over 4-cycle links; a source is registered as a barrier", workers, e)
		}
		var stats []router.Stats
		for _, c := range b.Net.Coords() {
			stats = append(stats, b.Router(c).Stats)
		}
		if sum := b.Summarize(); sum.TCDelivered == 0 || sum.BEDelivered == 0 {
			t.Fatalf("workers %d: idle run (%d TC, %d BE delivered)", workers, sum.TCDelivered, sum.BEDelivered)
		}
		return stats
	}
	if seq, par := run(1), run(2); !reflect.DeepEqual(seq, par) {
		t.Error("two-worker run of a built fixture diverged from the one-worker run")
	}
}
