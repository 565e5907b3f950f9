package admission

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mesh"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/sched"
)

func newNet(t *testing.T, w, h int) *mesh.Network {
	t.Helper()
	return mesh.MustNew(w, h, router.DefaultConfig())
}

func TestEDFFeasibleBasics(t *testing.T) {
	if !edfFeasible(nil) {
		t.Error("empty set infeasible")
	}
	// One task using the whole link periodically, D = T.
	if !edfFeasible([]task{{C: 4, T: 4, D: 4}}) {
		t.Error("single saturating task rejected")
	}
	// Utilization over one.
	if edfFeasible([]task{{C: 3, T: 4, D: 4}, {C: 2, T: 4, D: 4}}) {
		t.Error("overloaded link accepted")
	}
	// C > D can never meet its bound.
	if edfFeasible([]task{{C: 5, T: 10, D: 4}}) {
		t.Error("C>D accepted")
	}
	// Degenerate parameters.
	if edfFeasible([]task{{C: 0, T: 4, D: 4}}) {
		t.Error("zero-cost task accepted (invalid)")
	}
}

func TestEDFDeadlineConstrained(t *testing.T) {
	// Two tasks, each C=2, T=8, but both with D=4: demand at t=4 is 4,
	// fine; with three such tasks demand at t=4 is 6 > 4: infeasible even
	// though utilization is only 3/4.
	two := []task{{C: 2, T: 8, D: 4}, {C: 2, T: 8, D: 4}}
	if !edfFeasible(two) {
		t.Error("two-task constrained set rejected")
	}
	three := append(two, task{C: 2, T: 8, D: 4})
	if edfFeasible(three) {
		t.Error("constrained-deadline overload accepted (dbf(4)=6>4)")
	}
}

func TestEDFFigure7Set(t *testing.T) {
	// The three backlogged connections of Figure 7 (d = Imin ∈ {4,8,16})
	// plus their aggregate utilization 1/4+1/8+1/16 = 7/16: comfortably
	// feasible on one link.
	set := []task{
		{C: 1, T: 4, D: 4},
		{C: 1, T: 8, D: 8},
		{C: 1, T: 16, D: 16},
	}
	if !edfFeasible(set) {
		t.Error("Figure 7 connection set rejected")
	}
}

func TestControllerAdmitUnicast(t *testing.T) {
	n := newNet(t, 4, 4)
	c, err := New(n, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := rtc.Spec{Imin: 8, Smax: 18, D: 40}
	ch, err := c.Admit(mesh.Coord{X: 0, Y: 0}, []mesh.Coord{{X: 2, Y: 1}}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.Active() != 1 {
		t.Errorf("Active = %d, want 1", c.Active())
	}
	// Route 0,0 → 2,1 has 4 segments; D=40 → d=10 each.
	if ch.LocalD != 10 {
		t.Errorf("LocalD = %d, want 10", ch.LocalD)
	}
	// The tables must be programmed along the XY route.
	ent := n.Router(mesh.Coord{X: 0, Y: 0}).Connection(ch.SrcConn)
	if !ent.Valid || !ent.Mask.Has(router.PortXPlus) {
		t.Errorf("source entry %+v", ent)
	}
	// Walk the chain: every hop's entry must exist and feed the next.
	at := mesh.Coord{X: 0, Y: 0}
	in := ch.SrcConn
	for hops := 0; hops < 10; hops++ {
		e := n.Router(at).Connection(in)
		if !e.Valid {
			t.Fatalf("missing entry at %s id %d", at, in)
		}
		if e.Mask.Has(router.PortLocal) {
			if at != (mesh.Coord{X: 2, Y: 1}) {
				t.Fatalf("local delivery at %s, want (2,1)", at)
			}
			if e.Out != ch.DstConn[0] {
				t.Fatalf("delivery id %d, want %d", e.Out, ch.DstConn[0])
			}
			return
		}
		moved := false
		for p := 0; p < router.NumLinks; p++ {
			if e.Mask.Has(p) {
				at = at.Add(p)
				in = e.Out
				moved = true
				break
			}
		}
		if !moved {
			t.Fatalf("entry at %s has empty mask", at)
		}
	}
	t.Fatal("route never reached local delivery")
}

func TestControllerAdmitMulticast(t *testing.T) {
	n := newNet(t, 4, 4)
	c, err := New(n, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := rtc.Spec{Imin: 8, Smax: 18, D: 48}
	dsts := []mesh.Coord{{X: 2, Y: 0}, {X: 2, Y: 2}, {X: 0, Y: 2}}
	ch, err := c.Admit(mesh.Coord{X: 0, Y: 0}, dsts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.DstConn) != 3 {
		t.Fatalf("DstConn = %v", ch.DstConn)
	}
	// Every branch of the tree must reach exactly one local delivery.
	findEntryFor(t, n, ch)
}

// findEntryFor walks from the source checking every reachable hop entry
// is valid; returns the source entry.
func findEntryFor(t *testing.T, n *mesh.Network, ch *Channel) router.ConnEntry {
	t.Helper()
	type visit struct {
		at mesh.Coord
		in uint8
	}
	stack := []visit{{ch.Src, ch.SrcConn}}
	locals := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		e := n.Router(v.at).Connection(v.in)
		if !e.Valid {
			t.Fatalf("invalid entry at %s id %d", v.at, v.in)
		}
		for p := 0; p < router.NumPorts; p++ {
			if !e.Mask.Has(p) {
				continue
			}
			if p == router.PortLocal {
				locals++
				continue
			}
			stack = append(stack, visit{v.at.Add(p), e.Out})
		}
	}
	if locals != len(ch.Dsts) {
		t.Fatalf("tree delivers to %d locals, want %d", locals, len(ch.Dsts))
	}
	return n.Router(ch.Src).Connection(ch.SrcConn)
}

func TestAdmitRejectsOverload(t *testing.T) {
	n := newNet(t, 2, 1)
	c, err := New(n, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Each channel uses 1 slot every 4 with d=4 on the (0,0)→+x link:
	// the link saturates after a few.
	spec := rtc.Spec{Imin: 4, Smax: 18, D: 8}
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 1, Y: 0}
	admitted := 0
	for i := 0; i < 10; i++ {
		if _, err := c.Admit(src, []mesh.Coord{dst}, spec); err != nil {
			break
		}
		admitted++
	}
	// d=4, T=4, C=1: dbf(4) = n·1 ≤ 4 → at most 4 connections.
	if admitted != 4 {
		t.Errorf("admitted %d channels, want 4 (EDF bound)", admitted)
	}
}

func TestAdmitRejectsBadInput(t *testing.T) {
	n := newNet(t, 2, 2)
	c, _ := New(n, DefaultConfig())
	good := rtc.Spec{Imin: 8, Smax: 18, D: 40}
	if _, err := c.Admit(mesh.Coord{X: 0, Y: 0}, nil, good); err == nil {
		t.Error("no destinations accepted")
	}
	if _, err := c.Admit(mesh.Coord{X: 5, Y: 5}, []mesh.Coord{{X: 0, Y: 0}}, good); err == nil {
		t.Error("source outside mesh accepted")
	}
	if _, err := c.Admit(mesh.Coord{X: 0, Y: 0}, []mesh.Coord{{X: 5, Y: 0}}, good); err == nil {
		t.Error("destination outside mesh accepted")
	}
	if _, err := c.Admit(mesh.Coord{X: 0, Y: 0}, []mesh.Coord{{X: 1, Y: 0}, {X: 1, Y: 0}}, good); err == nil {
		t.Error("duplicate destination accepted")
	}
	if _, err := c.Admit(mesh.Coord{X: 0, Y: 0}, []mesh.Coord{{X: 1, Y: 0}}, rtc.Spec{}); err == nil {
		t.Error("invalid spec accepted")
	}
	// Delay bound too tight for the distance.
	tight := rtc.Spec{Imin: 8, Smax: 18, D: 1}
	if _, err := c.Admit(mesh.Coord{X: 0, Y: 0}, []mesh.Coord{{X: 1, Y: 1}}, tight); err == nil {
		t.Error("over-tight bound accepted")
	}
}

func TestTeardownReleasesResources(t *testing.T) {
	n := newNet(t, 2, 1)
	c, _ := New(n, DefaultConfig())
	spec := rtc.Spec{Imin: 4, Smax: 18, D: 8}
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 1, Y: 0}
	var chans []*Channel
	for {
		ch, err := c.Admit(src, []mesh.Coord{dst}, spec)
		if err != nil {
			break
		}
		chans = append(chans, ch)
	}
	full := len(chans)
	if full == 0 {
		t.Fatal("nothing admitted")
	}
	// Tear one down: exactly one more fits again.
	if err := c.Teardown(chans[0]); err != nil {
		t.Fatal(err)
	}
	if c.Active() != full-1 {
		t.Errorf("Active = %d, want %d", c.Active(), full-1)
	}
	if _, err := c.Admit(src, []mesh.Coord{dst}, spec); err != nil {
		t.Errorf("re-admission after teardown failed: %v", err)
	}
	if _, err := c.Admit(src, []mesh.Coord{dst}, spec); err == nil {
		t.Error("admission beyond capacity accepted after teardown")
	}
	// Double teardown errors.
	if err := c.Teardown(chans[0]); err == nil {
		t.Error("double teardown accepted")
	}
	// The torn-down entry must be gone from the chip.
	if n.Router(src).Connection(chans[0].SrcConn).Valid {
		// The id may have been reused by the re-admission; only check
		// when it was not.
		reused := false
		for _, ch := range chans[1:] {
			if ch.SrcConn == chans[0].SrcConn {
				reused = true
			}
		}
		if !reused && c.Active() < full {
			t.Log("entry reprogrammed by re-admission; acceptable")
		}
	}
}

func TestBufferPolicyDifferences(t *testing.T) {
	// With a huge source window the buffer demand per channel is large;
	// partitioned accounting exhausts one port's share well before the
	// shared pool does.
	admitCount := func(policy BufferPolicy) int {
		n := newNet(t, 2, 1)
		cfg := DefaultConfig()
		cfg.Policy = policy
		cfg.SourceWindow = 100
		c, err := New(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Window 100 + d 20 → 15 buffers per channel at the source
		// router: the +x partition (51 slots) binds long before EDF
		// (which allows 8 of these) or the shared pool (256 slots).
		spec := rtc.Spec{Imin: 8, Smax: 18, D: 40}
		count := 0
		for i := 0; i < 300; i++ {
			if _, err := c.Admit(mesh.Coord{X: 0, Y: 0}, []mesh.Coord{{X: 1, Y: 0}}, spec); err != nil {
				break
			}
			count++
		}
		return count
	}
	part := admitCount(Partitioned)
	shared := admitCount(SharedPool)
	if part == 0 || shared == 0 {
		t.Fatalf("no channels admitted: part=%d shared=%d", part, shared)
	}
	if shared <= part {
		t.Errorf("shared pool (%d) should admit more than partitioned (%d) under asymmetric load",
			shared, part)
	}
}

func TestAdmitRespectsRolloverWindow(t *testing.T) {
	n := newNet(t, 2, 1)
	cfg := DefaultConfig()
	cfg.SourceWindow = 100
	c, err := New(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// d = 120/2 = 60; window 100 + 60 = 160 ≥ 128: must be rejected.
	spec := rtc.Spec{Imin: 120, Smax: 18, D: 120}
	if _, err := c.Admit(mesh.Coord{X: 0, Y: 0}, []mesh.Coord{{X: 1, Y: 0}}, spec); err == nil {
		t.Error("rollover-violating window accepted")
	}
}

// TestDelayRange holds the two admission doors and the exported range
// to one rule for a hop's delay bound d: lo is the message service
// time, hi the largest d whose early window (the horizon, and at the
// source also the source window) plus d stays inside half the clock
// range. For every clock, window and horizon it probes d = lo−1, lo,
// hi and hi+1 as the uniform bound (with and without a remainder slot
// in D, which the door never programs) and as one hop of an explicit
// split, at the source and downstream. Each door admits exactly the
// bounds inside the range, no bound refusal is a typed resource
// rejection, and each refusal keeps its text. DoorsAgree sweeps the
// range, RefusalTexts pins the texts, Remainder the D mod segs case.
func TestDelayRange(t *testing.T) {
	const segs = 4
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: segs - 1, Y: 0}
	route := mesh.XYRoute(src, dst)
	spec := rtc.Spec{Imin: 100, Smax: 36} // two-slot messages: lo = 2
	check := func(t *testing.T, door string, err error, legal bool) {
		t.Helper()
		if legal && err != nil {
			t.Errorf("%s: refused a bound inside the range: %v", door, err)
		}
		if !legal && err == nil {
			t.Errorf("%s: admitted a bound outside the range", door)
		}
		if _, typed := Explain(err); typed {
			t.Errorf("%s: a bound refusal is a resource rejection: %v", door, err)
		}
	}
	t.Run("DoorsAgree", func(t *testing.T) {
		for _, bits := range []uint{8, 6} {
			for _, window := range []int64{0, 8} {
				for _, horizon := range []uint32{0, 5} {
					rcfg := router.DefaultConfig()
					rcfg.ClockBits = bits
					c, err := New(mesh.MustNew(segs, 1, rcfg), Config{SourceWindow: window, Horizon: horizon})
					if err != nil {
						t.Fatal(err)
					}
					half := int64(1) << (bits - 1)
					lo, hi0 := c.DelayRange(src, spec, 0)
					_, hi1 := c.DelayRange(src, spec, 1)
					if lo != 2 || hi0 != half-1-max(window, int64(horizon)) || hi1 != half-1-int64(horizon) {
						t.Fatalf("bits %d window %d horizon %d: DelayRange = [%d, %d] at the source, hi %d downstream",
							bits, window, horizon, lo, hi0, hi1)
					}
					for _, rem := range []int64{0, segs - 1} {
						for _, d := range []int64{lo - 1, lo, hi0, hi0 + 1} {
							spec.D = d*segs + rem
							name := fmt.Sprintf("bits %d window %d horizon %d D %d", bits, window, horizon, spec.D)
							legal := lo <= d && d <= hi0
							ch, err := c.plan(src, []mesh.Coord{dst}, spec)
							check(t, name+": uniform door", err, legal)
							if err == nil && ch.LocalD != d {
								t.Errorf("%s: uniform door programs %d, want %d", name, ch.LocalD, d)
							}
							_, err = c.PlanLayout(PlanSpec{Src: src, Dst: dst, Spec: spec, Route: route, DSplit: []int64{d, d, d, d}})
							check(t, name+": PlanLayout uniform split", err, legal)
						}
					}
					for j, hi := range []int64{hi0, hi1} {
						for _, d := range []int64{lo - 1, lo, hi, hi + 1} {
							split := []int64{lo, lo, lo, lo}
							split[j] = d
							spec.D = d + 3*lo
							_, err := c.PlanLayout(PlanSpec{Src: src, Dst: dst, Spec: spec, Route: route, DSplit: split})
							check(t, fmt.Sprintf("bits %d window %d horizon %d: PlanLayout hop %d bound %d",
								bits, window, horizon, j, d), err, lo <= d && d <= hi)
						}
					}
				}
			}
		}
	})

	// The refusal texts: the uniform door names the first limit a bound
	// passes (service time, half the clock range, source window,
	// horizon), the layout door the hop below service, the horizon, then
	// the source window.
	cases := []struct {
		name    string
		window  int64
		horizon uint32
		segs    int
		spec    rtc.Spec
		split   []int64 // nil: the uniform door
		want    string
	}{
		{"uniform too tight", 8, 0, 4, rtc.Spec{Imin: 10, Smax: 18, D: 3}, nil,
			"rtc: delay bound 3 too tight for 4 hops of 1-slot messages"},
		{"uniform past half range", 0, 0, 2, rtc.Spec{Imin: 200, Smax: 18, D: 300}, nil,
			"rtc: local delay bound 150 exceeds half the clock range (128)"},
		{"uniform past source window", 8, 5, 2, rtc.Spec{Imin: 200, Smax: 18, D: 250}, nil,
			"admission: source window 8 + d 125 exceeds half clock range"},
		{"uniform past horizon", 0, 5, 2, rtc.Spec{Imin: 200, Smax: 18, D: 250}, nil,
			"admission: horizon 5 + d 125 exceeds half clock range"},
		{"layout below service", 8, 5, 2, rtc.Spec{Imin: 200, Smax: 36, D: 250}, []int64{1, 2},
			"admission: layout: hop 0 bound 1 below message service time 2"},
		{"layout past horizon", 8, 5, 2, rtc.Spec{Imin: 200, Smax: 18, D: 250}, []int64{10, 123},
			"admission: horizon 5 + d 123 exceeds half clock range"},
		// The source window is checked after every hop's own range.
		{"layout past source window", 8, 5, 2, rtc.Spec{Imin: 200, Smax: 18, D: 250}, []int64{120, 10},
			"admission: source window 8 + d 120 exceeds half clock range"},
		{"layout hop before source window", 8, 5, 2, rtc.Spec{Imin: 200, Smax: 36, D: 250}, []int64{120, 1},
			"admission: layout: hop 1 bound 1 below message service time 2"},
	}
	t.Run("RefusalTexts", func(t *testing.T) {
		for _, tc := range cases {
			c, err := New(newNet(t, tc.segs, 1), Config{SourceWindow: tc.window, Horizon: tc.horizon})
			if err != nil {
				t.Fatal(err)
			}
			dst := mesh.Coord{X: tc.segs - 1, Y: 0}
			if tc.split == nil {
				_, err = c.Admit(src, []mesh.Coord{dst}, tc.spec)
			} else {
				_, err = c.PlanLayout(PlanSpec{Src: src, Dst: dst, Spec: tc.spec, Route: mesh.XYRoute(src, dst), DSplit: tc.split})
			}
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
			}
		}
	})

	// A remainder in D is no bound the door programs: D = 17 over four
	// routers is four slots per hop.
	t.Run("Remainder", func(t *testing.T) {
		c, err := New(newNet(t, 4, 1), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		ch, err := c.Admit(src, []mesh.Coord{{X: 3, Y: 0}}, rtc.Spec{Imin: 10, Smax: 18, D: 17})
		if err != nil || ch.LocalD != 4 {
			t.Fatalf("D = 17 over 4 hops: got %v, %v; want LocalD 4", ch, err)
		}
	})
}

func TestHorizonValidation(t *testing.T) {
	n := newNet(t, 2, 1)
	cfg := DefaultConfig()
	cfg.Horizon = 200
	if _, err := New(n, cfg); err == nil {
		t.Error("horizon beyond half clock range accepted")
	}
	cfg.Horizon = 0
	cfg.SourceWindow = -1
	if _, err := New(n, cfg); err == nil {
		t.Error("negative source window accepted")
	}
}

func TestIDExhaustion(t *testing.T) {
	n := mesh.MustNew(2, 1, func() router.Config {
		c := router.DefaultConfig()
		c.Conns = 3
		return c
	}())
	c, _ := New(n, Config{Policy: SharedPool, SourceWindow: 0})
	spec := rtc.Spec{Imin: 100, Smax: 18, D: 200}
	admitted := 0
	for i := 0; i < 10; i++ {
		if _, err := c.Admit(mesh.Coord{X: 0, Y: 0}, []mesh.Coord{{X: 1, Y: 0}}, spec); err != nil {
			break
		}
		admitted++
	}
	// Each channel consumes an incoming id plus a distinct delivery id
	// at the destination router, so a 3-entry table fits one channel.
	if admitted != 1 {
		t.Errorf("admitted %d with a 3-entry table, want 1", admitted)
	}
}

// TestFirstFreeIDOracle diffs the bitmap first-fit against the linear
// scan it replaced, at table sizes on both sides of every word boundary:
// alone, and as a hop's outgoing id — the union over 0–4 link children,
// plus the router itself with its incoming id excepted when the hop
// delivers locally.
func TestFirstFreeIDOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// fill draws one id set: random density, every id below conns taken,
	// exactly one free below conns, or a full prefix with free above it.
	fill := func(s *idSet, kind, conns int) {
		*s = idSet{}
		switch kind {
		case 0:
			density := rng.Intn(101)
			for v := 0; v < 256; v++ {
				if rng.Intn(100) < density {
					s.add(uint8(v))
				}
			}
		case 1, 2:
			for v := 0; v < conns; v++ {
				s.add(uint8(v))
			}
			if kind == 2 {
				s.del(uint8(rng.Intn(conns)))
			}
		case 3:
			for v, n := 0, rng.Intn(conns+1); v < n; v++ {
				s.add(uint8(v))
			}
		}
	}
	scan := func(free func(v int) bool, conns int) (uint8, bool) {
		for v := 0; v < conns; v++ {
			if free(v) {
				return uint8(v), true
			}
		}
		return 0, false
	}
	c, err := New(newNet(t, 3, 3), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	at := mesh.Coord{X: 1, Y: 1}
	for _, conns := range []int{1, 63, 64, 65, 255, 256} {
		for trial := 0; trial < 200; trial++ {
			var used idSet
			fill(&used, trial%4, conns)
			only, _ := scan(func(v int) bool { return !used.has(uint8(v)) }, conns)
			for _, except := range []int{-1, 0, 63, 64, int(only)} {
				gotID, gotOK := firstFreeID(&used, conns, except)
				wantID, wantOK := scan(func(v int) bool { return v != except && !used.has(uint8(v)) }, conns)
				if gotOK != wantOK || (wantOK && gotID != wantID) {
					t.Fatalf("conns %d except %d set %x: bitmap says (%d, %v), scan says (%d, %v)",
						conns, except, used, gotID, gotOK, wantID, wantOK)
				}
			}

			// Fan-out: a random subset of at's four links, with or without
			// local delivery, every router's set drawn independently.
			mask := sched.PortMask(rng.Intn(1 << router.NumPorts))
			for p := 0; p < router.NumLinks; p++ {
				fill(&c.node(at.Add(p)).usedIDs, rng.Intn(4), conns)
			}
			fill(&c.node(at).usedIDs, rng.Intn(4), conns)
			in := uint8(rng.Intn(conns))
			local := mask.Has(router.PortLocal)
			gotID, gotOK := c.outID(at, mask, in, conns)
			wantID, wantOK := scan(func(v int) bool {
				for p := 0; p < router.NumLinks; p++ {
					if mask.Has(p) && c.node(at.Add(p)).usedIDs.has(uint8(v)) {
						return false
					}
				}
				return !local || (v != int(in) && !c.node(at).usedIDs.has(uint8(v)))
			}, conns)
			if gotOK != wantOK || (wantOK && gotID != wantID) {
				t.Fatalf("conns %d mask %05b in %d: bitmap says (%d, %v), scan says (%d, %v)",
					conns, mask, in, gotID, gotOK, wantID, wantOK)
			}
		}
	}
}

func TestChannelBound(t *testing.T) {
	n := newNet(t, 4, 4)
	c, _ := New(n, DefaultConfig())
	ch, err := c.Admit(mesh.Coord{X: 0, Y: 0}, []mesh.Coord{{X: 2, Y: 1}},
		rtc.Spec{Imin: 8, Smax: 18, D: 40})
	if err != nil {
		t.Fatal(err)
	}
	if ch.Hops() != 4 {
		t.Errorf("Hops = %d, want 4", ch.Hops())
	}
	if ch.Bound() != 40 {
		t.Errorf("Bound = %d, want 40 (4 hops × d=10)", ch.Bound())
	}
	if ch.Bound() > ch.Spec.D {
		t.Error("reserved bound exceeds the requested bound")
	}
	// Multicast: the deepest branch governs.
	mc, err := c.Admit(mesh.Coord{X: 0, Y: 0}, []mesh.Coord{{X: 1, Y: 0}, {X: 3, Y: 3}},
		rtc.Spec{Imin: 8, Smax: 18, D: 70})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Hops() != 7 {
		t.Errorf("multicast Hops = %d, want 7", mc.Hops())
	}
}
