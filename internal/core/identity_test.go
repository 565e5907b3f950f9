package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// identityGolden is the fingerprint of one identityRun: the hardware
// counters of all 64 routers, the latency histograms and delivery counts
// of all 64 sinks, and the merged lifecycle trace, each as the SHA-256
// of its text rendering, plus a few totals a reader can sanity-check.
type identityGolden struct {
	Channels            int
	TC, BE, Drops       int64
	Rexmits             int64
	Stats, Sinks, Trace string
}

// identityGoldens were captured at the commit before the router tick
// became occupancy-indexed (linear-scan EDFTree.Select, modulo-scan
// best-effort bind and memory bus, append-and-reslice idle-address
// FIFO). Those changes — and any later one to the dataplane's hot path —
// must leave every simulated statistic and event where it was, so the
// values only change together with a change to what the machine does.
// IDENTITY_PRINT=1 go test -run TestDataplaneIdentity ./internal/core
// prints the current values.
var identityGoldens = map[bool]identityGolden{
	false: {
		Channels: 34, TC: 507, BE: 250, Drops: 22,
		Stats: "7a9cb349a58dace9ab2810dec1c5f5330fa67b00ef9da806a0f9a83aa7c41155",
		Sinks: "292035f8a28ed2d4da9ba32a4b91b68215123dfdf59d49e239b9f29cde564b3b",
		Trace: "b7f67e45664230abbe3cb0a5f149ea6232ea7d68e1fdba5086e6e07dbd1893c8",
	},
	true: {
		Channels: 34, TC: 485, BE: 248, Drops: 78, Rexmits: 250,
		Stats: "5e9563746fb2a10b55e2b349bf5dcca67169a9f9eb403c454c4c9e33d67a353e",
		Sinks: "29b22c9e64ce5271c1bdadb51ca3b5a1e0574f95c7d1212b4af7fb34beb6ef49",
		Trace: "f76dfc8d963ab16ecbcb837c7fc669742202d50b1991417360c5f2616909f274",
	},
}

// identityRun drives an 8×8 mesh with unicast and multicast real-time
// channels, a best-effort source on every node and one link that flaps
// twice under load — with integrity set, also a seeded fault process
// garbling every link — and fingerprints everything observable.
func identityRun(t *testing.T, integrity bool, workers int) identityGolden {
	t.Helper()
	col := obs.NewSharded(4096)
	rcfg := router.DefaultConfig()
	rcfg.Integrity = integrity
	sys, err := NewMesh(8, 8, Options{Router: rcfg, Workers: workers, Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	if integrity {
		// Garbled flits drive the nack, retransmit and abort machinery.
		if err := fault.New(99).InjectAll(sys.Net, fault.Config{Kind: fault.Corrupt, Rate: 0.002, Burst: 3}); err != nil {
			t.Fatal(err)
		}
	}

	var g identityGolden
	spec := rtc.Spec{Imin: 6, Smax: 18, D: 150}
	for i := 0; i < 40; i++ {
		src := mesh.Coord{X: i * 3 % 8, Y: i * 5 % 8}
		dsts := []mesh.Coord{{X: (i*7 + 3) % 8, Y: (i*2 + 5) % 8}}
		if i%8 == 7 {
			dsts = append(dsts, mesh.Coord{X: src.Y, Y: src.X}) // multicast fan-out
		}
		ch, err := sys.OpenChannel(src, dsts, spec)
		if err != nil {
			continue // refused by admission (or src among dsts): the same ones every run
		}
		g.Channels++
		app, err := traffic.NewTCApp(fmt.Sprintf("tc%d", i), ch.Paced(), spec, traffic.Periodic, 18)
		if err != nil {
			t.Fatal(err)
		}
		sys.RegisterNode(src, app)
	}
	coords := sys.Net.Coords()
	for i, c := range coords {
		be, err := traffic.NewBEApp(fmt.Sprintf("be%d", i), sys.Net, c,
			traffic.UniformDst(sys.Net, c), traffic.UniformSize(16, 120), 0.35, int64(i)+1)
		if err != nil {
			t.Fatal(err)
		}
		sys.RegisterNode(c, be)
	}

	// The (3,3)→(4,3) link sits mid-mesh under channels and dimension-
	// ordered best-effort worms; it goes down and comes back twice.
	flap := mesh.Coord{X: 3, Y: 3}
	for _, down := range []int64{1200, 2400} {
		sys.Run(down - sys.Now())
		if err := sys.Net.FailLink(flap, router.PortXPlus); err != nil {
			t.Fatal(err)
		}
		sys.Run(300)
		if err := sys.Net.RepairLink(flap, router.PortXPlus); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run(4000 - sys.Now())

	var counters, sinks, trace strings.Builder
	for _, c := range coords {
		st := sys.Router(c).Stats
		fmt.Fprintf(&counters, "%v %+v\n", c, st)
		g.TC += st.TCDelivered
		g.BE += st.BEDelivered
		g.Drops += st.TCDeadPortDrops + st.TCCorruptDrops + st.BETruncated + st.BEFrameAborts
		g.Rexmits += st.BEFlitRetransmits
		snk := sys.Sink(c)
		fmt.Fprintf(&sinks, "%v tc %d be %d", c, snk.TCCount, snk.BECount)
		for _, h := range []*stats.Hist{&snk.TCLatency, &snk.BELatency} {
			fmt.Fprintf(&sinks, " | n=%d mean=%v", h.N(), h.Mean())
			for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
				fmt.Fprintf(&sinks, " %v", h.Quantile(q))
			}
		}
		sinks.WriteByte('\n')
	}
	col.Dump(&trace)
	sum := func(b *strings.Builder) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))) }
	g.Stats, g.Sinks, g.Trace = sum(&counters), sum(&sinks), sum(&trace)
	return g
}

// TestDataplaneIdentity pins the simulated machine: with and without
// link integrity, on one kernel worker and on two, the run must
// reproduce the fingerprints recorded at the parent of the
// occupancy-index change bit for bit.
func TestDataplaneIdentity(t *testing.T) {
	for _, integrity := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			got := identityRun(t, integrity, workers)
			if os.Getenv("IDENTITY_PRINT") != "" {
				t.Logf("integrity %v workers %d: %#v", integrity, workers, got)
				continue
			}
			if got.TC == 0 || got.BE == 0 || got.Drops == 0 || (integrity && got.Rexmits == 0) {
				t.Fatalf("integrity %v workers %d: degenerate run %+v", integrity, workers, got)
			}
			if want := identityGoldens[integrity]; got != want {
				t.Errorf("integrity %v workers %d: the dataplane's observable behaviour changed\n got %+v\nwant %+v",
					integrity, workers, got, want)
			}
		}
	}
}
