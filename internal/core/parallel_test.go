package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/traffic"
)

// loadedRun is everything observable about one simulation run: the
// per-router hardware counters, every packet delivered at every node in
// delivery order, the telemetry registry totals, the merged lifecycle
// trace, the per-channel SLO snapshots, and the epoch length the kernel
// derived from the wiring.
type loadedRun struct {
	Stats      []router.Stats
	Deliveries [][]string
	Snapshot   metrics.Snapshot
	Trace      string
	Channels   []metrics.ChannelSnapshot
	Epoch      int64
}

// loadedOpts selects the execution mode for one runLoaded call. The
// zero value is the sequential per-cycle run on the paper's single-cycle
// wires.
type loadedOpts struct {
	workers   int
	tile      int // mesh tile edge; 0 = mesh.DefaultTileSize
	linkLat   int // router.Config.LinkLatency; 0 = the 1-cycle default
	forcePool bool
	cycles    int64
}

// runLoaded drives a loaded 8×8 mesh — unicast and multicast real-time
// channels crossing the network plus a seeded best-effort source on
// every node — under the given execution mode and records the complete
// observable outcome.
func runLoaded(t *testing.T, o loadedOpts) loadedRun {
	t.Helper()
	reg := metrics.NewRegistry()
	col := obs.NewSharded(4096)
	slo := obs.NewSLO()
	rcfg := router.DefaultConfig()
	rcfg.LinkLatency = o.linkLat
	sys, err := NewMesh(8, 8, Options{
		Router: rcfg, Workers: o.workers,
		Metrics: reg, Collector: col, ChannelSLO: slo,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if o.tile != 0 {
		sys.Net.SetTileSize(o.tile)
	}
	sys.Net.Kernel.ForcePool(o.forcePool)

	spec := rtc.Spec{Imin: 8, Smax: 18, D: 120}
	routes := [][]mesh.Coord{
		{{X: 0, Y: 0}, {X: 7, Y: 7}},
		{{X: 7, Y: 0}, {X: 0, Y: 7}},
		{{X: 3, Y: 2}, {X: 3, Y: 6}},
		{{X: 6, Y: 5}, {X: 1, Y: 5}},
		{{X: 2, Y: 7}, {X: 5, Y: 0}},
		{{X: 4, Y: 4}, {X: 0, Y: 4}, {X: 4, Y: 0}}, // multicast fan-out
	}
	for i, rt := range routes {
		ch, err := sys.OpenChannel(rt[0], rt[1:], spec)
		if err != nil {
			t.Fatalf("channel %d: %v", i, err)
		}
		app, err := traffic.NewTCApp(fmt.Sprintf("tc%d", i), ch.Paced(), spec, traffic.Periodic, 18)
		if err != nil {
			t.Fatal(err)
		}
		sys.RegisterNode(rt[0], app)
	}
	coords := sys.Net.Coords()
	for i, c := range coords {
		be, err := traffic.NewBEApp(fmt.Sprintf("be%d", i), sys.Net, c,
			traffic.UniformDst(sys.Net, c), traffic.UniformSize(16, 120), 0.3, int64(i)+1)
		if err != nil {
			t.Fatal(err)
		}
		sys.RegisterNode(c, be)
	}

	// Per-node delivery logs: each sink appends only to its own slot, so
	// the recording itself is race-free under parallel execution.
	deliv := make([][]string, len(coords))
	for i, c := range coords {
		i, snk := i, sys.Sink(c)
		snk.OnTC = func(d router.DeliveredTC) {
			deliv[i] = append(deliv[i], fmt.Sprintf("tc c%d s%d @%d %x", d.Conn, d.Stamp, d.Cycle, d.Payload))
		}
		snk.OnBE = func(d router.DeliveredBE) {
			deliv[i] = append(deliv[i], fmt.Sprintf("be @%d %x", d.Cycle, d.Payload))
		}
	}

	sys.Run(o.cycles)

	var dump strings.Builder
	col.Dump(&dump)
	run := loadedRun{
		Deliveries: deliv,
		Snapshot:   reg.Snapshot(),
		Trace:      dump.String(),
		Channels:   slo.Export(),
		Epoch:      sys.Net.Kernel.EffectiveEpoch(),
	}
	for _, c := range coords {
		run.Stats = append(run.Stats, sys.Router(c).Stats)
	}
	return run
}

// compareLoaded fails the test unless got reproduces want in every
// observable dimension. label names the run under test in messages.
func compareLoaded(t *testing.T, want, got loadedRun, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		for i := range want.Stats {
			if want.Stats[i] != got.Stats[i] {
				t.Errorf("router %d: reference %+v\n%s %+v", i, want.Stats[i], label, got.Stats[i])
			}
		}
		t.Fatalf("router stats diverged (%s)", label)
	}
	for i := range want.Deliveries {
		s, p := want.Deliveries[i], got.Deliveries[i]
		if len(s) != len(p) {
			t.Fatalf("node %d: %d vs %d deliveries (%s)", i, len(s), len(p), label)
		}
		for j := range s {
			if s[j] != p[j] {
				t.Fatalf("node %d delivery %d: %q vs %q (%s)", i, j, s[j], p[j], label)
			}
		}
	}
	if !reflect.DeepEqual(want.Snapshot, got.Snapshot) {
		t.Fatalf("metrics snapshots diverged (%s)", label)
	}
	if want.Trace != got.Trace {
		t.Fatalf("merged lifecycle traces diverged (%s)", label)
	}
	if !reflect.DeepEqual(want.Channels, got.Channels) {
		t.Fatalf("per-channel SLO snapshots diverged (%s)", label)
	}
}

// checkLoadedVacuity guards against a vacuous pass: the workload must
// actually have exercised both traffic classes end to end, produced a
// non-empty merged trace, and recorded latency samples on every channel.
func checkLoadedVacuity(t *testing.T, run loadedRun) {
	t.Helper()
	var tc, be int64
	for _, st := range run.Stats {
		tc += st.TCDelivered
		be += st.BEDelivered
	}
	if tc == 0 || be == 0 {
		t.Fatalf("degenerate workload: tc=%d be=%d deliveries", tc, be)
	}
	if run.Trace == "" {
		t.Fatal("degenerate workload: empty merged trace")
	}
	if len(run.Channels) == 0 {
		t.Fatal("degenerate workload: no SLO channels registered")
	}
	for _, ch := range run.Channels {
		if ch.Delivered == 0 || ch.Latency.Count == 0 || ch.Slack.Count == 0 {
			t.Fatalf("channel %q recorded no SLO samples: %+v", ch.Name, ch)
		}
	}
}

// TestParallelEquivalence is the parallel kernel's contract: a loaded
// 8×8 mesh produces bit-identical router counters, delivered-packet
// sequences, and telemetry totals whether the kernel runs on one worker
// or several.
func TestParallelEquivalence(t *testing.T) {
	// Short mode trims the run but must stay long enough for the
	// vacuity guard below: the first time-constrained deliveries land
	// only after the channels' end-to-end pipelines fill (D=120 slots),
	// so anything much below ~3000 cycles sees zero TC traffic.
	cycles := int64(6000)
	if testing.Short() {
		cycles = 3000
	}
	seq := runLoaded(t, loadedOpts{workers: 1, cycles: cycles})
	par := runLoaded(t, loadedOpts{workers: 4, cycles: cycles})
	compareLoaded(t, seq, par, "parallel")
	checkLoadedVacuity(t, seq)

	// The tile size only regroups the plan; every choice must reproduce
	// the same run, through the real pooled rendezvous path.
	for _, tile := range []int{1, 2, 4} {
		tile := tile
		t.Run(fmt.Sprintf("tile%d", tile), func(t *testing.T) {
			tiled := runLoaded(t, loadedOpts{workers: 4, tile: tile, forcePool: true, cycles: cycles})
			compareLoaded(t, seq, tiled, fmt.Sprintf("tile%d", tile))
		})
	}
}

// TestEpochEquivalenceLoaded extends the parallel contract to the
// epoch-synchronized mode: the kernel derives its epoch from the link
// latency, so at 1-, 2- and 4-cycle wires the same loaded mesh must be
// byte-identical to the sequential run over the same wires at several
// worker counts — and the kernel must actually have run epochs as long
// as the wires (the k of each leg), not something shorter.
func TestEpochEquivalenceLoaded(t *testing.T) {
	cycles := int64(6000)
	if testing.Short() {
		cycles = 3000
	}
	for _, linkLat := range []int{1, 2, 4} {
		// Longer wires change the behavior (arrivals shift), so each
		// latency needs its own sequential reference.
		seq := runLoaded(t, loadedOpts{workers: 1, linkLat: linkLat, cycles: cycles})
		checkLoadedVacuity(t, seq)

		for _, workers := range []int{2, 4} {
			label := fmt.Sprintf("w%d-k%d", workers, linkLat)
			t.Run(label, func(t *testing.T) {
				run := runLoaded(t, loadedOpts{
					workers: workers, linkLat: linkLat,
					forcePool: true, cycles: cycles,
				})
				if run.Epoch != int64(linkLat) {
					t.Fatalf("kernel ran epoch %d on %d-cycle wires — the matrix leg is vacuous", run.Epoch, linkLat)
				}
				compareLoaded(t, seq, run, label)
			})
		}
	}
}

// TestEpochDerivedFromLinkLatency: Workers and Router.LinkLatency are
// all a caller sets — no epoch request, no ForcePool — and the kernel
// runs 4-cycle epochs over 4-cycle links, bit-identical to the
// sequential run.
func TestEpochDerivedFromLinkLatency(t *testing.T) {
	const cycles = 3000
	seq := runLoaded(t, loadedOpts{workers: 1, linkLat: 4, cycles: cycles})
	checkLoadedVacuity(t, seq)
	run := runLoaded(t, loadedOpts{workers: 2, linkLat: 4, cycles: cycles})
	if run.Epoch != 4 {
		t.Fatalf("effective epoch %d on 4-cycle links, want 4", run.Epoch)
	}
	compareLoaded(t, seq, run, "derived-epoch")
}

// TestEpochClampLoaded pins the legality bound at the system level: on
// the paper's single-cycle wires the derived epoch is 1 (1-cycle
// cross-shard pipes cannot legally hide multi-cycle batches), and the
// per-cycle pooled run reproduces the sequential run exactly.
func TestEpochClampLoaded(t *testing.T) {
	cycles := int64(3000)
	seq := runLoaded(t, loadedOpts{workers: 1, cycles: cycles})
	run := runLoaded(t, loadedOpts{workers: 4, forcePool: true, cycles: cycles})
	if run.Epoch != 1 {
		t.Fatalf("effective epoch %d on 1-cycle wires, want 1", run.Epoch)
	}
	compareLoaded(t, seq, run, "clamped-epoch")
}

// TestParallelTracingRace is the observability side of the parallel
// contract, meant to run under the race detector: with lifecycle
// tracing, telemetry counters, and channel SLO histograms all attached,
// the kernel runs on every available core and the merged event stream
// still comes out byte-identical to the sequential run's. The sharded
// collector makes this safe — each router writes only its own node's
// buffer during the compute phase, the histograms are atomic, and the
// merge is deterministic in (cycle, node, seq).
func TestParallelTracingRace(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	cycles := int64(4000)
	if testing.Short() {
		cycles = 3000
	}
	// ForcePool makes the parallel run take the real worker-pool
	// rendezvous even on a single-CPU machine, so the race detector
	// always sees the cross-goroutine path.
	seq := runLoaded(t, loadedOpts{workers: 1, cycles: cycles})
	par := runLoaded(t, loadedOpts{workers: workers, forcePool: true, cycles: cycles})

	if seq.Trace == "" {
		t.Fatal("degenerate workload: empty merged trace")
	}
	if seq.Trace != par.Trace {
		t.Fatalf("merged traces diverged between 1 and %d workers", workers)
	}
	if !reflect.DeepEqual(seq.Channels, par.Channels) {
		t.Fatalf("SLO snapshots diverged between 1 and %d workers", workers)
	}
	if !reflect.DeepEqual(seq.Snapshot, par.Snapshot) {
		t.Fatalf("metrics snapshots diverged between 1 and %d workers", workers)
	}

	// A multi-cycle step batches the compute phase differently (per-tile
	// inner loops, no per-cycle barrier), so it gets its own race leg
	// on 4-cycle wires, where the kernel runs 4-cycle epochs.
	epoch := runLoaded(t, loadedOpts{workers: workers, linkLat: 4, forcePool: true, cycles: cycles})
	seqLat := runLoaded(t, loadedOpts{workers: 1, linkLat: 4, cycles: cycles})
	if seqLat.Trace != epoch.Trace {
		t.Fatalf("merged traces diverged between sequential and epoch-4 runs")
	}
	if !reflect.DeepEqual(seqLat.Snapshot, epoch.Snapshot) {
		t.Fatalf("metrics snapshots diverged between sequential and epoch-4 runs")
	}
}
