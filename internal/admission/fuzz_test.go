package admission

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mesh"
	"repro/internal/router"
	"repro/internal/rtc"
)

// TestAdmitTeardownFuzz runs random interleavings of admissions and
// teardowns and checks the controller's accounting stays consistent:
// after tearing everything down, every router's table is empty, every
// id is free, and the original capacity is available again.
func TestAdmitTeardownFuzz(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := mesh.MustNew(3, 3, router.DefaultConfig())
		c, err := New(n, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var live []*Channel
		for op := 0; op < 120; op++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				idx := rng.Intn(len(live))
				if err := c.Teardown(live[idx]); err != nil {
					t.Fatalf("seed %d op %d: teardown: %v", seed, op, err)
				}
				live = append(live[:idx], live[idx+1:]...)
				continue
			}
			src := mesh.Coord{X: rng.Intn(3), Y: rng.Intn(3)}
			nd := 1
			if rng.Intn(4) == 0 {
				nd = 2 + rng.Intn(2)
			}
			var dsts []mesh.Coord
			seen := map[mesh.Coord]bool{src: true}
			for len(dsts) < nd {
				d := mesh.Coord{X: rng.Intn(3), Y: rng.Intn(3)}
				if seen[d] {
					break
				}
				seen[d] = true
				dsts = append(dsts, d)
			}
			if len(dsts) == 0 {
				continue
			}
			imin := int64(4 + rng.Intn(28))
			spec := rtc.Spec{
				Imin: imin,
				Smax: 1 + rng.Intn(36),
				D:    int64(5+rng.Intn(20)) * int64(4+rng.Intn(6)),
			}
			if spec.MessageSlots() > spec.Imin {
				continue
			}
			ch, err := c.Admit(src, dsts, spec)
			if err != nil {
				continue // rejections are fine
			}
			live = append(live, ch)
			if op%8 == 0 {
				if err := c.VerifyLedger(); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			}
		}
		if err := c.VerifyLedger(); err != nil {
			t.Fatalf("seed %d: conservation before drain: %v", seed, err)
		}
		for _, ch := range live {
			if err := c.Teardown(ch); err != nil {
				t.Fatalf("seed %d: final teardown: %v", seed, err)
			}
		}
		if c.Active() != 0 {
			t.Fatalf("seed %d: %d channels still active", seed, c.Active())
		}
		if err := c.VerifyLedger(); err != nil {
			t.Fatalf("seed %d: conservation after drain: %v", seed, err)
		}
		if snap := c.Seal(); len(snap.Links) != 0 || snap.Channels != 0 {
			t.Fatalf("seed %d: drained ledger still holds %d links, %d channels",
				seed, len(snap.Links), snap.Channels)
		}
		// Every router table empty again.
		for _, coord := range n.Coords() {
			r := n.Router(coord)
			for id := 0; id < r.Config().Conns; id++ {
				if r.Connection(uint8(id)).Valid {
					t.Fatalf("seed %d: stale table entry at %s id %d", seed, coord, id)
				}
			}
		}
		// Full capacity restored: the canonical filler fits its EDF bound
		// again on a previously used link.
		filler := rtc.Spec{Imin: 4, Smax: 18, D: 8}
		got := 0
		for {
			if _, err := c.Admit(mesh.Coord{X: 0, Y: 0}, []mesh.Coord{{X: 1, Y: 0}}, filler); err != nil {
				break
			}
			got++
		}
		if got != 4 {
			t.Fatalf("seed %d: capacity after churn = %d channels, want 4", seed, got)
		}
	}
}

// TestAdmissionDifferentialFuzz runs the differential op driver
// (runAdmissionOps) over four seeded programs of 150 ops each.
func TestAdmissionDifferentialFuzz(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		runAdmissionOps(t, seedProgram(100+seed, 4096), 150)
	}
}

// FuzzAdmissionOps feeds arbitrary byte streams to the differential op
// driver: every program is valid (an exhausted stream reads as zeros),
// and each must keep the standard and Reference controllers identical.
// Seeds and programs stay short (64 bytes, 64 ops, about a millisecond a
// run): the engine minimizes every input that finds new coverage, and
// long programs would spend a short run minimizing instead of fuzzing.
//
//	go test -fuzz=FuzzAdmissionOps -fuzztime=20s -run '^$' ./internal/admission/
func FuzzAdmissionOps(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seedProgram(100+seed, 64))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		runAdmissionOps(t, prog, 64)
	})
}

// seedProgram is n pseudo-random program bytes from seed.
func seedProgram(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// opStream hands the driver its choices from a byte stream; past the end
// it reads zeros.
type opStream []byte

// intn is a choice in [0, n), taking one byte per 8 bits n needs.
func (s *opStream) intn(n int) int {
	if n <= 1 {
		return 0
	}
	v := 0
	for k := n - 1; k > 0; k >>= 8 {
		v <<= 8
		if len(*s) > 0 {
			v |= int((*s)[0])
			*s = (*s)[1:]
		}
	}
	return v % n
}

// runAdmissionOps drives a standard controller and a Reference-mode
// shadow (every fast path disabled: no EDF cache, so no verdict memo)
// through the op program in prog — admissions (unicast and multicast),
// teardowns, reroutes, link failures/repairs, AdmitBatch rounds, and
// PlanLayout/AdmitLayout on a random staircase route with a non-uniform
// split — for up to maxOps ops or until the program runs out. It demands
// identical decisions, errors, channel parameters, and sealed ledger
// bytes throughout. This is the oracle for the whole incremental
// machinery.
func runAdmissionOps(t testing.TB, prog []byte, maxOps int) {
	t.Helper()

	s := opStream(prog)
	fast, err := New(mesh.MustNew(4, 4, router.DefaultConfig()), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	refCfg := DefaultConfig()
	refCfg.Reference = true
	ref, err := New(mesh.MustNew(4, 4, router.DefaultConfig()), refCfg)
	if err != nil {
		t.Fatal(err)
	}

	randSpec := func() rtc.Spec {
		return rtc.Spec{
			Imin: int64(4 + s.intn(28)),
			Smax: 1 + s.intn(36),
			D:    int64(5+s.intn(20)) * int64(4+s.intn(6)),
		}
	}
	randCoord := func() mesh.Coord { return mesh.Coord{X: s.intn(4), Y: s.intn(4)} }
	randEndpoints := func() (mesh.Coord, []mesh.Coord) {
		src := randCoord()
		nd := 1
		if s.intn(5) == 0 {
			nd = 2 + s.intn(2)
		}
		var dsts []mesh.Coord
		seen := map[mesh.Coord]bool{src: true}
		for len(dsts) < nd {
			d := randCoord()
			if seen[d] {
				break
			}
			seen[d] = true
			dsts = append(dsts, d)
		}
		return src, dsts
	}
	// randLayout walks a random monotone staircase from src to dst — a
	// simple path by construction — and splits D over its hops
	// uniformly, then moves budget between random hops.
	randLayout := func() PlanSpec {
		ps := PlanSpec{Src: randCoord(), Dst: randCoord(), Spec: randSpec()}
		if ps.Dst == ps.Src {
			ps.Dst.X = (ps.Dst.X + 1) % 4
		}
		dx, dy := ps.Dst.X-ps.Src.X, ps.Dst.Y-ps.Src.Y
		px, py := router.PortXPlus, router.PortYPlus
		if dx < 0 {
			px, dx = router.PortXMinus, -dx
		}
		if dy < 0 {
			py, dy = router.PortYMinus, -dy
		}
		for dx+dy > 0 {
			if dy == 0 || (dx > 0 && s.intn(2) == 0) {
				ps.Route, dx = append(ps.Route, px), dx-1
			} else {
				ps.Route, dy = append(ps.Route, py), dy-1
			}
		}
		ps.Route = append(ps.Route, router.PortLocal)
		hops := len(ps.Route)
		per := ps.Spec.D / int64(hops)
		for range hops {
			ps.DSplit = append(ps.DSplit, per)
		}
		for m := 1 + s.intn(2); m > 0; m-- {
			amt := int64(s.intn(int(per) + 1))
			ps.DSplit[s.intn(hops)] -= amt
			ps.DSplit[s.intn(hops)] += amt
		}
		return ps
	}
	sameErr := func(op string, fe, re error) {
		t.Helper()
		if (fe == nil) != (re == nil) {
			t.Fatalf("%s: fast err=%v, reference err=%v", op, fe, re)
		}
		if fe != nil && fe.Error() != re.Error() {
			t.Fatalf("%s: fast rejection %q, reference %q", op, fe, re)
		}
	}
	sameOutcome := func(op string, fc, rc *Channel, fe, re error) {
		t.Helper()
		sameErr(op, fe, re)
		if fe == nil && (fc.ID != rc.ID || fc.Margin != rc.Margin || fc.LocalD != rc.LocalD ||
			fc.SrcConn != rc.SrcConn || fc.Route() != rc.Route() || !slices.Equal(fc.DSplit, rc.DSplit)) {
			t.Fatalf("%s: fast channel %+v, reference %+v", op, fc, rc)
		}
	}

	var fastLive, refLive []*Channel
	var failedLinks []linkKey
	for op := 0; op < maxOps && len(s) > 0; op++ {
		switch k := s.intn(11); {
		case k == 0 && len(fastLive) > 0: // teardown
			i := s.intn(len(fastLive))
			fe, re := fast.Teardown(fastLive[i]), ref.Teardown(refLive[i])
			if (fe == nil) != (re == nil) {
				t.Fatalf("op %d teardown: fast %v, reference %v", op, fe, re)
			}
			fastLive = append(fastLive[:i], fastLive[i+1:]...)
			refLive = append(refLive[:i], refLive[i+1:]...)
		case k == 1 && len(fastLive) > 0: // reroute
			i := s.intn(len(fastLive))
			fc, fe := fast.Reroute(fastLive[i])
			rc, re := ref.Reroute(refLive[i])
			sameOutcome("reroute", fc, rc, fe, re)
			if fe == nil {
				fastLive[i], refLive[i] = fc, rc
			}
		case k == 2: // flip one link's failure state on both
			lk := linkKey{mesh.Coord{X: s.intn(3), Y: s.intn(3)}, router.PortXPlus}
			if s.intn(2) == 0 {
				lk.port = router.PortYPlus
			}
			if len(failedLinks) > 0 && s.intn(2) == 0 {
				lk = failedLinks[s.intn(len(failedLinks))]
				setLinkDown(t, fast, lk, false)
				setLinkDown(t, ref, lk, false)
			} else {
				setLinkDown(t, fast, lk, true)
				setLinkDown(t, ref, lk, true)
				failedLinks = append(failedLinks, lk)
			}
		case k == 3: // AdmitBatch round vs sequential reference loop
			var reqs []Request
			for range 12 {
				if src, dsts := randEndpoints(); len(dsts) > 0 {
					reqs = append(reqs, Request{Src: src, Dsts: dsts, Spec: randSpec()})
				}
			}
			res := fast.AdmitBatch(reqs, 1+s.intn(4))
			for i, r := range reqs {
				rc, re := ref.Admit(r.Src, r.Dsts, r.Spec)
				sameOutcome("batch", res.Channels[i], rc, res.Errs[i], re)
				if re == nil {
					fastLive = append(fastLive, res.Channels[i])
					refLive = append(refLive, rc)
				}
			}
		case k == 4: // explicit layout: a what-if probe or a commit
			ps := randLayout()
			if s.intn(2) == 0 {
				fm, fe := fast.PlanLayout(ps)
				rm, re := ref.PlanLayout(ps)
				sameErr("plan_layout", fe, re)
				if fm != rm {
					t.Fatalf("op %d plan_layout: fast margin %d, reference %d (%+v)", op, fm, rm, ps)
				}
				break
			}
			fc, fe := fast.AdmitLayout(ps)
			rc, re := ref.AdmitLayout(ps)
			sameOutcome("admit_layout", fc, rc, fe, re)
			if fe == nil {
				fastLive = append(fastLive, fc)
				refLive = append(refLive, rc)
			}
		default: // single admit
			src, dsts := randEndpoints()
			if len(dsts) == 0 {
				continue
			}
			spec := randSpec()
			fc, fe := fast.Admit(src, dsts, spec)
			rc, re := ref.Admit(src, dsts, spec)
			sameOutcome("admit", fc, rc, fe, re)
			if fe == nil {
				fastLive = append(fastLive, fc)
				refLive = append(refLive, rc)
			}
		}
		if op%10 == 0 || len(s) == 0 {
			sameLedgers(t, fast, ref)
		}
	}
	sameLedgers(t, fast, ref)
}

// sameLedgers verifies both controllers' ledgers and demands
// byte-identical sealed snapshots.
func sameLedgers(t testing.TB, fast, ref *Controller) {
	t.Helper()
	if err := fast.VerifyLedger(); err != nil {
		t.Fatalf("fast ledger: %v", err)
	}
	if err := ref.VerifyLedger(); err != nil {
		t.Fatalf("reference ledger: %v", err)
	}
	fj, err := json.Marshal(fast.Seal())
	if err != nil {
		t.Fatal(err)
	}
	rj, err := json.Marshal(ref.Seal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fj, rj) {
		t.Fatalf("sealed ledgers diverge:\nfast %s\nref  %s", fj, rj)
	}
}
