package admission

import (
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
