package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/router"
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
// and the test asserts today's exact miss count — neither more nor fewer —
// and how late each missed transmission started, in slots past its hop
// deadline (knownLateness). It runs twice, plain and with the
// slack-attribution engine attached, and both runs must agree miss for
// miss; the second logs which stall causes the missed packets waited on
// at the hop they missed (DESIGN §5 reads its numbers off this log). It
// keeps its own copy of the ledger's request formula (knownBugRequest)
// so it depends on nothing outside the module.
func TestKnownDeadlineMisses(t *testing.T) {
	if testing.Short() || raceEnabled {
		// One sequential kernel: the race detector has nothing to find.
		t.Skip("known-bug probe: a 16×16 mesh for 29 000 cycles, twice")
	}
	plain := knownBugRun(t, nil, nil)
	if len(plain) != knownMisses {
		t.Errorf("%d deadline misses, want the known %d: a change moved the soundness gap", len(plain), knownMisses)
	}
	late := make([]int64, len(plain))
	for i, m := range plain {
		late[i] = m.late
	}
	slices.Sort(late)
	if !slices.Equal(late, knownLateness) {
		t.Errorf("missed transmissions started %v slots late, want the known %v", late, knownLateness)
	}

	// The attributed run keeps the stall episodes of each miss's victim at
	// the port it missed on, and charges the cycles that overlap the
	// packet's wait to their causes.
	sites := make(map[knownSite]bool)
	for _, m := range plain {
		sites[m.knownSite] = true
	}
	var eps []router.LifecycleEvent
	attributed := knownBugRun(t, obs.NewForensics(), func(e router.LifecycleEvent) {
		if e.Kind == router.EvStall && sites[knownSite{e.Router, e.Port, e.InConn}] {
			eps = append(eps, e)
		}
	})
	if !slices.Equal(attributed, plain) {
		t.Fatalf("attribution moved the misses:\n%+v\nwithout it\n%+v", attributed, plain)
	}
	byCause := make(map[router.StallCause]int64)
	var waited int64
	for _, m := range plain {
		from := m.cycle - m.wait
		waited += m.wait
		for _, e := range eps {
			if e.Router == m.router && e.Port == m.port && e.InConn == m.conn {
				if n := min(e.Cycle, m.cycle) - max(e.Cycle-e.Wait, from); n > 0 {
					byCause[e.Cause] += n
				}
			}
		}
	}
	t.Logf("missed transmissions, slots late: %v; %d cycles waited at the missing hops, by stall cause: %v", late, waited, byCause)
}

// knownLateness is how many slots past its hop deadline each of the
// knownMisses missed transmissions started, in ascending order: every
// one of them by exactly one slot.
var knownLateness = []int64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}

// knownSite is an output port of one router and a connection arriving
// there.
type knownSite struct {
	router string
	port   int
	conn   uint8
}

// knownMiss is one transmission that started after its hop deadline.
type knownMiss struct {
	knownSite
	cycle int64 // the transmission start
	wait  int64 // cycles from the leaf's install to cycle
	late  int64 // slots past the hop deadline
}

// knownBugRun plays the known-bug probe with fns attached (nil: no
// attribution), passes every lifecycle event of the measured window to
// tap (when set), and returns the window's missed transmissions in the
// order they started. It fails the test if the probe drifted.
func knownBugRun(t *testing.T, fns *obs.Forensics, tap func(router.LifecycleEvent)) []knownMiss {
	t.Helper()
	const w, h, seed, requests = 16, 16, 3, 3000
	sys, err := NewMesh(w, h, Options{Forensics: fns})
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
	var (
		misses   []knownMiss
		measured bool
	)
	for _, c := range sys.Net.Coords() {
		rt := sys.Router(c)
		prev := rt.OnLifecycle
		rt.OnLifecycle = func(e router.LifecycleEvent) {
			if prev != nil {
				prev(e)
			}
			if !measured {
				return
			}
			if e.Kind == router.EvTransmit && e.Missed {
				misses = append(misses, knownMiss{knownSite{e.Router, e.Port, e.InConn}, e.Cycle, e.Wait, -e.Slack})
			}
			if tap != nil {
				tap(e)
			}
		}
	}
	sys.Run(5000)
	sys.ResetStats()
	measured = true
	sys.Run(24000)
	if fns != nil {
		fns.Flush()
	}
	sum := sys.Summarize()
	t.Logf("%d of %d requests admitted; %d delivered, %d missed, %d dropped",
		admitted, requests, sum.TCDelivered, sum.TCMisses, sum.TCDrops)
	if sum.TCDelivered < 40000 || sum.TCDrops != 0 {
		t.Fatalf("probe drifted: %d delivered, %d dropped", sum.TCDelivered, sum.TCDrops)
	}
	if int(sum.TCMisses) != len(misses) {
		t.Fatalf("%d misses counted, %d missed transmissions traced", sum.TCMisses, len(misses))
	}
	return misses
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
