package traffic

import (
	"math/rand"
	"testing"

	"repro/internal/mesh"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/timing"
)

func TestProbeRoundTrip(t *testing.T) {
	buf := make([]byte, ProbeBytes)
	EncodeProbe(buf, 123456789, 42)
	c, s := DecodeProbe(buf)
	if c != 123456789 || s != 42 {
		t.Errorf("decode = %d,%d", c, s)
	}
	if c, s := DecodeProbe(buf[:4]); c != 0 || s != 0 {
		t.Error("short probe should decode to zeros")
	}
}

func TestProbePanicsShort(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short encode did not panic")
		}
	}()
	EncodeProbe(make([]byte, 4), 1, 1)
}

// TestProbeLatency: only a payload carrying a probe stamped no later
// than its own delivery yields a latency.
func TestProbeLatency(t *testing.T) {
	probed := func(inj int64) []byte {
		b := make([]byte, ProbeBytes)
		EncodeProbe(b, inj, 0)
		return b
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		lat     int64
		ok      bool
	}{
		{"probed", probed(100), 60, true},
		{"delivered the cycle it was stamped", probed(160), 0, true},
		{"un-probed padding", make([]byte, 18), 0, false},
		{"too short for a probe", []byte{1, 2}, 0, false},
		{"stamped in the future", probed(200), 0, false},
	} {
		lat, ok := ProbeLatency(tc.payload, 160)
		if ok != tc.ok || (ok && lat != tc.lat) {
			t.Errorf("%s: latency %d, ok %v; want %d, %v", tc.name, lat, ok, tc.lat, tc.ok)
		}
	}
}

// pacedRig builds a single router with a pacer, channel, app and sink.
type pacedRig struct {
	k    *sim.Kernel
	r    *router.Router
	app  *TCApp
	sink *Sink
}

func newPacedRig(t *testing.T, spec rtc.Spec, pattern TCPattern, window int64) *pacedRig {
	t.Helper()
	k := sim.NewKernel()
	r := router.MustNew("A", router.DefaultConfig())
	if err := r.SetConnection(1, 9, uint8(spec.D), 1<<router.PortLocal); err != nil {
		t.Fatal(err)
	}
	p, err := rtc.NewPacer("pacer", r, window)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := p.Channel(1, spec, spec.D)
	if err != nil {
		t.Fatal(err)
	}
	app, err := NewTCApp("app", ch, spec, pattern, 18)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewSink("sink", r)
	k.Register(app)
	k.Register(p)
	k.Register(r)
	k.Register(sink)
	return &pacedRig{k: k, r: r, app: app, sink: sink}
}

func TestPeriodicTCApp(t *testing.T) {
	spec := rtc.Spec{Imin: 10, Smax: 18, D: 4}
	rig := newPacedRig(t, spec, Periodic, 2)
	rig.k.Run(100 * packet.TCBytes) // 100 slots
	// One message per 10 slots: about 10 submissions.
	if rig.app.Submitted < 9 || rig.app.Submitted > 11 {
		t.Errorf("Submitted = %d, want ~10", rig.app.Submitted)
	}
	if rig.sink.TCCount < 8 {
		t.Errorf("delivered %d, want most of them", rig.sink.TCCount)
	}
	// Each delivery within its deadline window: latency ≤ (D+1 slot)·20
	// plus pipeline; with d=4 that is well under 200 cycles.
	if max := rig.sink.TCLatency.Max(); max > 200 {
		t.Errorf("max latency %v cycles exceeds deadline regime", max)
	}
}

func TestBackloggedTCAppThroughput(t *testing.T) {
	spec := rtc.Spec{Imin: 5, Smax: 18, D: 5}
	rig := newPacedRig(t, spec, Backlogged, 2)
	rig.k.Run(200 * packet.TCBytes)
	// Backlogged: exactly one message per Imin leaves — reservation-
	// limited throughput, 200/5 = 40 messages (±1 boundary effects).
	if rig.sink.TCCount < 38 || rig.sink.TCCount > 41 {
		t.Errorf("delivered %d messages, want ≈40 (Imin-limited)", rig.sink.TCCount)
	}
}

func TestBurstyTCApp(t *testing.T) {
	spec := rtc.Spec{Imin: 10, Smax: 18, Bmax: 2, D: 6}
	rig := newPacedRig(t, spec, Bursty, 4)
	rig.k.Run(60 * packet.TCBytes)
	// Bursts of 3 every 30 slots: 60 slots → two bursts (6 messages).
	if rig.app.Submitted != 6 {
		t.Errorf("Submitted = %d, want 6", rig.app.Submitted)
	}
	// The regulator smooths them to one per Imin: no deadline misses.
	if rig.r.Stats.TCDeadlineMisses != 0 {
		t.Errorf("misses = %d", rig.r.Stats.TCDeadlineMisses)
	}
}

func TestNewTCAppRejectsOversize(t *testing.T) {
	spec := rtc.Spec{Imin: 10, Smax: 18, D: 4}
	if _, err := NewTCApp("x", nil, spec, Periodic, 50); err == nil {
		t.Error("oversize message accepted")
	}
}

func TestDstPickers(t *testing.T) {
	net := mesh.MustNew(3, 3, router.DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	src := mesh.Coord{X: 1, Y: 1}
	uni := UniformDst(net, src)
	seen := map[mesh.Coord]bool{}
	for i := 0; i < 200; i++ {
		d := uni(rng)
		if d == src {
			t.Fatal("uniform picker returned source")
		}
		if !net.Contains(d) {
			t.Fatal("picker left the mesh")
		}
		seen[d] = true
	}
	if len(seen) != 8 {
		t.Errorf("uniform covered %d nodes, want 8", len(seen))
	}
	if d := FixedDst(mesh.Coord{X: 2, Y: 0})(rng); d != (mesh.Coord{X: 2, Y: 0}) {
		t.Error("fixed picker wrong")
	}
}

// TestUniformDstMatchesListPicker: UniformDst picks exactly what a
// picker drawing over a list of every other node in row-major order
// picks, for every source of a 4×4 mesh and several seeds, and on a 1×1
// mesh returns the source.
func TestUniformDstMatchesListPicker(t *testing.T) {
	listPicker := func(net *mesh.Network, src mesh.Coord) DstPicker {
		var coords []mesh.Coord
		for _, c := range net.Coords() {
			if c != src {
				coords = append(coords, c)
			}
		}
		return func(rng *rand.Rand) mesh.Coord {
			if len(coords) == 0 {
				return src
			}
			return coords[rng.Intn(len(coords))]
		}
	}
	for _, dim := range []int{4, 1} {
		net := mesh.MustNew(dim, dim, router.DefaultConfig())
		for _, src := range net.Coords() {
			for seed := int64(1); seed <= 3; seed++ {
				got, want := UniformDst(net, src), listPicker(net, src)
				rg, rw := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				for i := 0; i < 100; i++ {
					if g, w := got(rg), want(rw); g != w {
						t.Fatalf("%dx%d, source %s, seed %d, pick %d: %s, want %s", dim, dim, src, seed, i, g, w)
					}
				}
			}
		}
	}
}

func TestSizePickers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if FixedSize(64)(rng) != 64 {
		t.Error("fixed size wrong")
	}
	u := UniformSize(10, 20)
	for i := 0; i < 100; i++ {
		if s := u(rng); s < 10 || s > 20 {
			t.Fatalf("uniform size %d out of range", s)
		}
	}
}

func TestBEAppRate(t *testing.T) {
	net := mesh.MustNew(2, 1, router.DefaultConfig())
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 1, Y: 0}
	app, err := NewBEApp("be", net, src, FixedDst(dst), FixedSize(60), 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewSink("sink", net.Router(dst))
	net.Kernel.Register(app)
	net.Kernel.Register(sink)
	net.Run(20000)
	// Rate 0.5 bytes/cycle → ≈10000 bytes in 20000 cycles.
	if app.InjectedBytes < 9000 || app.InjectedBytes > 10100 {
		t.Errorf("injected %d bytes at rate 0.5 over 20000 cycles", app.InjectedBytes)
	}
	if sink.BECount == 0 {
		t.Fatal("nothing delivered")
	}
	if sink.BELatency.N() == 0 {
		t.Fatal("no latency samples decoded")
	}
}

func TestBEAppErrors(t *testing.T) {
	net := mesh.MustNew(2, 1, router.DefaultConfig())
	if _, err := NewBEApp("x", net, mesh.Coord{X: 9, Y: 9}, nil, nil, 1, 1); err == nil {
		t.Error("source outside mesh accepted")
	}
	if _, err := NewBEApp("x", net, mesh.Coord{X: 0, Y: 0}, FixedDst(mesh.Coord{X: 1, Y: 0}), FixedSize(10), 0, 1); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestSinkObservers(t *testing.T) {
	net := mesh.MustNew(1, 1, router.DefaultConfig())
	r := net.Router(mesh.Coord{X: 0, Y: 0})
	var tcSeen, beSeen int
	sink := NewSink("s", r)
	sink.OnTC = func(router.DeliveredTC) { tcSeen++ }
	sink.OnBE = func(router.DeliveredBE) { beSeen++ }
	net.Kernel.Register(sink)
	if err := r.SetConnection(1, 2, 5, 1<<router.PortLocal); err != nil {
		t.Fatal(err)
	}
	r.InjectTC(packet.TCPacket{Conn: 1, Stamp: 0})
	frame, _ := packet.NewBE(0, 0, make([]byte, ProbeBytes))
	r.InjectBE(frame)
	net.Run(500)
	if tcSeen != 1 || beSeen != 1 {
		t.Errorf("observers saw tc=%d be=%d, want 1,1", tcSeen, beSeen)
	}
}

func TestTCAppProbeLatencyIsPositive(t *testing.T) {
	spec := rtc.Spec{Imin: 6, Smax: 18, D: 6}
	rig := newPacedRig(t, spec, Periodic, 0)
	rig.k.Run(50 * packet.TCBytes)
	if rig.sink.TCLatency.N() == 0 {
		t.Fatal("no latency samples")
	}
	if rig.sink.TCLatency.Min() <= 0 {
		t.Errorf("nonpositive latency sample: %v", rig.sink.TCLatency.Min())
	}
	// Slot arithmetic sanity: all below D+2 slots of cycles plus hop
	// pipeline.
	limit := float64((spec.D + 2) * timing.SlotsPerPacket * 2)
	if rig.sink.TCLatency.Max() > limit {
		t.Errorf("latency %v beyond deadline regime %v", rig.sink.TCLatency.Max(), limit)
	}
}
