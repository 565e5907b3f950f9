package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/traffic"
)

// TestDoubleFailLink: severing an already-severed link must fail
// loudly, and the error must not disturb the recorded failure.
func TestDoubleFailLink(t *testing.T) {
	sys := MustNewMesh(2, 2, Options{})
	src := mesh.Coord{X: 0, Y: 0}
	if err := sys.Net.FailLink(src, router.PortXPlus); err != nil {
		t.Fatal(err)
	}
	if err := sys.Net.FailLink(src, router.PortXPlus); err == nil {
		t.Fatal("double FailLink accepted")
	}
	// The far end names the same wire; failing it again must also error.
	if err := sys.Net.FailLink(mesh.Coord{X: 1, Y: 0}, router.PortXMinus); err == nil {
		t.Fatal("double FailLink via the reverse direction accepted")
	}
	// The failure record survived the rejected duplicates: the first
	// repair finds it. Repairing twice is equally loud.
	if err := sys.Net.RepairLink(src, router.PortXPlus); err != nil {
		t.Fatalf("failure record lost after rejected duplicates: %v", err)
	}
	if err := sys.Net.RepairLink(src, router.PortXPlus); err == nil {
		t.Fatal("double RepairLink accepted")
	}
}

// TestFailRepairFailback is the full flap story: the channel leaves its
// primary path at the failure, returns to it after the repair, and
// delivers with guarantees intact in all three phases.
func TestFailRepairFailback(t *testing.T) {
	sys := MustNewMesh(3, 3, Options{})
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 2, Y: 2}
	spec := rtc.Spec{Imin: 8, Smax: 18, D: 80}
	ch, err := sys.OpenChannel(src, []mesh.Coord{dst}, spec)
	if err != nil {
		t.Fatal(err)
	}
	send := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := ch.Send([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			sys.Run(spec.Imin * 20)
		}
		sys.Run(spec.D * 20)
	}
	send(4)
	if err := sys.Net.FailLink(src, router.PortXPlus); err != nil {
		t.Fatal(err)
	}
	if err := ch.Reroute(); err != nil {
		t.Fatal(err)
	}
	if ch.Admitted().Uses(src, router.PortXPlus) {
		t.Fatal("channel still on the failed link")
	}
	send(4)
	if err := sys.Net.RepairLink(src, router.PortXPlus); err != nil {
		t.Fatal(err)
	}
	if err := ch.Reroute(); err != nil {
		t.Fatal(err)
	}
	if !ch.Admitted().Uses(src, router.PortXPlus) {
		t.Fatal("channel did not fail back to the primary path after repair")
	}
	send(4)
	if got := sys.Sink(dst).TCCount; got != 12 {
		t.Errorf("deliveries across fail/repair/failback: %d/12", got)
	}
	if m := sys.Summarize().TCMisses; m != 0 {
		t.Errorf("deadline misses across the flap: %d", m)
	}
}

// TestZeroSpareRerouteThenRepair: with no spare path the reroute is
// refused and the channel survives on its original reservations; once
// the link is repaired the same channel reroutes (trivially, back onto
// the repaired primary) and flows again.
func TestZeroSpareRerouteThenRepair(t *testing.T) {
	sys := MustNewMesh(2, 2, Options{})
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 1, Y: 1}
	spec := rtc.Spec{Imin: 4, Smax: 18, D: 16}
	ch, err := sys.OpenChannel(src, []mesh.Coord{dst}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Net.FailLink(src, router.PortXPlus); err != nil {
		t.Fatal(err)
	}
	if err := sys.Net.FailLink(src, router.PortYPlus); err != nil {
		t.Fatal(err)
	}
	if err := ch.Reroute(); err == nil {
		t.Fatal("reroute succeeded with no live path")
	}
	if sys.Adm.Active() != 1 {
		t.Fatalf("channel lost by the refused reroute: active %d", sys.Adm.Active())
	}
	// The regression this pins: the failed reroute used to strand the
	// channel with reservations but no source regulator, so the next
	// Send errored. The pacer must have survived.
	if err := ch.Send([]byte("still paced")); err != nil {
		t.Fatalf("source regulator lost by the refused reroute: %v", err)
	}
	if err := sys.Net.RepairLink(src, router.PortXPlus); err != nil {
		t.Fatal(err)
	}
	if err := ch.Reroute(); err != nil {
		t.Fatalf("reroute after repair: %v", err)
	}
	if err := ch.Send([]byte("back")); err != nil {
		t.Fatal(err)
	}
	if !sys.RunUntil(func() bool { return sys.Sink(dst).TCCount > 0 }, 20000) {
		t.Fatal("no delivery after repair-and-reroute")
	}
}

// faultedRun drives a loaded 4×4 mesh with link-level integrity on and
// (optionally) a seeded fault injector corrupting every link, recording
// the complete observable outcome for equivalence comparison.
func faultedRun(t *testing.T, workers int, inject bool, cycles int64) loadedRun {
	t.Helper()
	rcfg := router.DefaultConfig()
	rcfg.Integrity = true
	reg := metrics.NewRegistry()
	col := obs.NewSharded(4096)
	slo := obs.NewSLO()
	sys, err := NewMesh(4, 4, Options{Router: rcfg, Workers: workers, Metrics: reg, Collector: col, ChannelSLO: slo})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if inject {
		inj := fault.New(1234)
		if err := inj.InjectAll(sys.Net, fault.Config{Kind: fault.Corrupt, Rate: 0.002, Burst: 3}); err != nil {
			t.Fatal(err)
		}
	}

	spec := rtc.Spec{Imin: 8, Smax: 18, D: 120}
	routes := [][]mesh.Coord{
		{{X: 0, Y: 0}, {X: 3, Y: 3}},
		{{X: 3, Y: 0}, {X: 0, Y: 3}},
		{{X: 1, Y: 2}, {X: 2, Y: 0}},
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

	sys.Run(cycles)

	var dump strings.Builder
	col.Dump(&dump)
	run := loadedRun{
		Deliveries: deliv,
		Snapshot:   reg.Snapshot(),
		Trace:      dump.String(),
		Channels:   slo.Export(),
	}
	for _, c := range coords {
		run.Stats = append(run.Stats, sys.Router(c).Stats)
	}
	return run
}

func compareRuns(t *testing.T, label string, a, b loadedRun) {
	t.Helper()
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		for i := range a.Stats {
			if a.Stats[i] != b.Stats[i] {
				t.Errorf("%s: router %d: %+v\nvs %+v", label, i, a.Stats[i], b.Stats[i])
			}
		}
		t.Fatalf("%s: router stats diverged", label)
	}
	if !reflect.DeepEqual(a.Deliveries, b.Deliveries) {
		t.Fatalf("%s: delivery sequences diverged", label)
	}
	if !reflect.DeepEqual(a.Snapshot, b.Snapshot) {
		t.Fatalf("%s: metrics snapshots diverged", label)
	}
	if a.Trace != b.Trace {
		t.Fatalf("%s: merged lifecycle traces diverged", label)
	}
	if !reflect.DeepEqual(a.Channels, b.Channels) {
		t.Fatalf("%s: SLO snapshots diverged", label)
	}
}

// TestFaultParallelEquivalence: with a fixed-seed fault process garbling
// every link, the run must stay byte-identical across worker counts —
// fault placement depends only on the seed and the traffic, never on
// scheduling.
func TestFaultParallelEquivalence(t *testing.T) {
	cycles := int64(6000)
	if testing.Short() {
		cycles = 3000
	}
	maxw := runtime.GOMAXPROCS(0)
	if maxw < 2 {
		maxw = 2
	}
	seq := faultedRun(t, 1, true, cycles)
	for _, w := range []int{2, maxw} {
		par := faultedRun(t, w, true, cycles)
		compareRuns(t, fmt.Sprintf("faults on, workers=%d", w), seq, par)
	}
	// Non-vacuity: the faults must actually have bitten and been healed.
	var nacks, rexmit, corrupt int64
	for _, st := range seq.Stats {
		nacks += st.BEFlitNacks
		rexmit += st.BEFlitRetransmits
		corrupt += st.TCCorruptDrops + st.TCFramingDrops
	}
	if nacks == 0 || rexmit == 0 {
		t.Fatalf("degenerate fault run: nacks=%d retransmits=%d", nacks, rexmit)
	}
	if corrupt == 0 {
		t.Fatal("degenerate fault run: no time-constrained drops")
	}
}

// TestIntegrityZeroFaultEquivalence: integrity machinery armed but no
// injector — the checksums must never fire, and the run must stay
// byte-identical across worker counts.
func TestIntegrityZeroFaultEquivalence(t *testing.T) {
	cycles := int64(4000)
	if testing.Short() {
		cycles = 3000
	}
	seq := faultedRun(t, 1, false, cycles)
	par := faultedRun(t, 4, false, cycles)
	compareRuns(t, "integrity on, zero faults", seq, par)
	for i, st := range seq.Stats {
		if st.TCCorruptDrops != 0 || st.TCFramingDrops != 0 || st.BEFlitNacks != 0 ||
			st.BEFlitRetransmits != 0 || st.BEFrameAborts != 0 {
			t.Fatalf("router %d: integrity machinery fired without faults: %+v", i, st)
		}
	}
}
