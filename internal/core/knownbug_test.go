package core

import (
	"fmt"
	"testing"

	"repro/internal/mesh"
	"repro/internal/rtc"
	"repro/internal/traffic"
)

// knownMisses is the number of hop-deadline misses the known-bug probe
// below measures today. Admission accepted every one of these channels,
// so the paper's guarantee says it should be 0; the fix of the soundness
// gap sets it to 0.
const knownMisses = 21

// TestKnownDeadlineMisses pins the soundness gap as a known bug: on the
// performance ledger's request stream with the tight deadline rule
// D = 8·hops + 16 slots (16×16 mesh, seed 3, 3000 requests, a periodic
// full-Smax source per admitted channel, best-effort traffic off),
// admitted channels miss deadlines on the cycle-accurate dataplane. The
// run is 5000 cycles of warm-up, ResetStats, then 24 000 measured cycles,
// and the test asserts today's exact miss count — neither more nor fewer.
// It keeps its own copy of the ledger's request formula (knownBugRequest)
// so it depends on nothing outside the module.
func TestKnownDeadlineMisses(t *testing.T) {
	if testing.Short() || raceEnabled {
		// One sequential kernel: the race detector has nothing to find.
		t.Skip("known-bug probe: a 16×16 mesh for 29 000 cycles")
	}
	const w, h, seed, requests = 16, 16, 3, 3000
	sys, err := NewMesh(w, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	admitted := 0
	for i := 0; i < requests; i++ {
		r := knownBugRequest(seed, i, w, h)
		spec := rtc.Spec{Imin: r.imin, Smax: r.smax, D: r.d}
		src := mesh.Coord{X: r.sx, Y: r.sy}
		ch, err := sys.OpenChannel(src, []mesh.Coord{{X: r.dx, Y: r.dy}}, spec)
		if err != nil {
			continue
		}
		app, err := traffic.NewTCApp(fmt.Sprintf("tc%d", i), ch, spec, traffic.Periodic, spec.Smax)
		if err != nil {
			t.Fatal(err)
		}
		sys.RegisterNode(src, app)
		admitted++
	}
	sys.Run(5000)
	sys.ResetStats()
	sys.Run(24000)
	sum := sys.Summarize()
	t.Logf("%d of %d requests admitted; %d delivered, %d missed, %d dropped",
		admitted, requests, sum.TCDelivered, sum.TCMisses, sum.TCDrops)
	if sum.TCDelivered < 40000 || sum.TCDrops != 0 {
		t.Fatalf("probe drifted: %d delivered, %d dropped", sum.TCDelivered, sum.TCDrops)
	}
	if sum.TCMisses != knownMisses {
		t.Errorf("%d deadline misses, want the known %d: a change moved the soundness gap", sum.TCMisses, knownMisses)
	}
}

// knownBugReq is one generated channel request.
type knownBugReq struct {
	sx, sy, dx, dy int
	imin           int64
	smax           int
	d              int64
}

// knownBugRequest is the performance ledger's request generator (a pure
// function of seed and index, drawn from a splitmix64 stream) with its
// default 25 % hot-spot share and 15 % transpose share, but the deadline
// rule D = 8·hops + 16 slots, hops being the Manhattan distance plus one.
func knownBugRequest(seed uint64, index, w, h int) knownBugReq {
	s := seed*0xd1342543de82ef95 + uint64(index)
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	intn := func(n int) int { return int(next() % uint64(n)) }
	next()
	r := knownBugReq{sx: intn(w), sy: intn(h)}
	switch p := intn(100); {
	case p < 25:
		hot := [4][2]int{{w / 4, h / 4}, {3 * w / 4, h / 4}, {w / 4, 3 * h / 4}, {3 * w / 4, 3 * h / 4}}[intn(4)]
		r.dx, r.dy = hot[0], hot[1]
	case p < 25+15 && r.sx < h && r.sy < w:
		r.dx, r.dy = r.sy, r.sx
	default:
		r.dx, r.dy = intn(w), intn(h)
	}
	if r.dx == r.sx && r.dy == r.sy {
		r.dx = (r.sx + 1 + intn(w-1)) % w
	}
	c := [...]struct {
		imin int64
		smax int
	}{{16, 18}, {24, 18}, {48, 18}, {32, 36}}[intn(4)]
	r.imin, r.smax = c.imin, c.smax
	r.d = int64(8*(abs(r.dx-r.sx)+abs(r.dy-r.sy)+1) + 16)
	return r
}
