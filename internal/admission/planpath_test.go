package admission

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/sched"
)

// TestDoorsShareOneWalk: the default planner and the explicit-layout
// door are one resource walk (planHops) behind two validators. Twin
// loaded 8×8 controllers see the same request stream, A through Admit
// and B through AdmitLayout with A's route and the uniform split: every
// grant must match hop for hop (ids, margin, programmed table entries,
// sealed ledger bytes), and every typed XY rejection must come back from
// PlanLayout(XY, uniform) with the byte-identical message.
func TestDoorsShareOneWalk(t *testing.T) {
	netA := mesh.MustNew(8, 8, router.DefaultConfig())
	netB := mesh.MustNew(8, 8, router.DefaultConfig())
	a, err := New(netA, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(netB, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range batchFamily("uniform", 8, 8, 160) {
		_, ea := a.Admit(r.Src, r.Dsts, r.Spec)
		_, eb := b.Admit(r.Src, r.Dsts, r.Spec)
		if (ea == nil) != (eb == nil) {
			t.Fatalf("background load diverged: %v vs %v", ea, eb)
		}
	}
	seal := func(c *Controller) []byte {
		j, err := json.Marshal(c.Seal())
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	uniform := func(d int64, n int) []int64 {
		ds := make([]int64, n)
		for i := range ds {
			ds[i] = d
		}
		return ds
	}

	rng := rand.New(rand.NewSource(12))
	var liveA, liveB []*Channel
	grants, rejections := 0, 0
	for i := 0; i < 400; i++ {
		if len(liveA) > 0 && rng.Intn(4) == 0 {
			k := rng.Intn(len(liveA))
			if ea, eb := a.Teardown(liveA[k]), b.Teardown(liveB[k]); ea != nil || eb != nil {
				t.Fatalf("req %d: teardown: %v / %v", i, ea, eb)
			}
			liveA = append(liveA[:k], liveA[k+1:]...)
			liveB = append(liveB[:k], liveB[k+1:]...)
		}
		src := mesh.Coord{X: rng.Intn(8), Y: rng.Intn(8)}
		dst := mesh.Coord{X: rng.Intn(8), Y: rng.Intn(8)}
		if src == dst {
			continue
		}
		spec := rtc.Spec{Imin: int64(8 + 8*rng.Intn(5)), Smax: 18, D: int64(8*(abs(dst.X-src.X)+abs(dst.Y-src.Y)+1) + rng.Intn(40))}

		chA, err := a.Admit(src, []mesh.Coord{dst}, spec)
		if err != nil {
			if _, typed := Explain(err); !typed {
				continue
			}
			route := mesh.XYRoute(src, dst)
			d := spec.D / int64(len(route))
			if lo, hi := b.DelayRange(src, spec, 0); d < lo || d > hi {
				t.Fatalf("req %d: typed rejection %v but the uniform bound %d is outside [%d, %d]", i, err, d, lo, hi)
			}
			_, perr := b.PlanLayout(PlanSpec{Src: src, Dst: dst, Spec: spec, Route: route, DSplit: uniform(d, len(route))})
			if perr == nil || perr.Error() != err.Error() {
				t.Fatalf("req %d: Admit rejects with %q, PlanLayout(XY, uniform) says %v", i, err, perr)
			}
			rejections++
			continue
		}
		route := make([]int, len(chA.hops))
		for j, h := range chA.hops {
			route[j] = h.mask.Ports(nil)[0]
		}
		chB, err := b.AdmitLayout(PlanSpec{Src: src, Dst: dst, Spec: spec, Route: route, DSplit: uniform(chA.LocalD, len(route))})
		if err != nil {
			t.Fatalf("req %d: Admit grants %s, AdmitLayout refuses the same layout: %v", i, chA.Route(), err)
		}
		if chA.Margin != chB.Margin || chA.ID != chB.ID {
			t.Fatalf("req %d: margin/id %d/%d vs %d/%d", i, chA.Margin, chA.ID, chB.Margin, chB.ID)
		}
		idsA, idsB := chA.HopIDs(), chB.HopIDs()
		if len(idsA) != len(idsB) {
			t.Fatalf("req %d: %d hops vs %d", i, len(idsA), len(idsB))
		}
		for j := range idsA {
			if idsA[j] != idsB[j] {
				t.Fatalf("req %d hop %d: %+v vs %+v", i, j, idsA[j], idsB[j])
			}
			ea := netA.Router(idsA[j].Node).Connection(idsA[j].In)
			eb := netB.Router(idsB[j].Node).Connection(idsB[j].In)
			if !ea.Valid || ea != eb {
				t.Fatalf("req %d hop %d: table entry %+v vs %+v", i, j, ea, eb)
			}
		}
		if !bytes.Equal(seal(a), seal(b)) {
			t.Fatalf("req %d: sealed ledgers diverge after the grant", i)
		}
		liveA, liveB = append(liveA, chA), append(liveB, chB)
		grants++
	}
	if grants < 20 || rejections < 20 {
		t.Fatalf("degenerate stream: %d grants, %d typed rejections", grants, rejections)
	}
	for _, c := range []*Controller{a, b} {
		if err := c.VerifyLedger(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlannerDecisionsPinned pins every phase-1 decision of a seeded
// op stream — unicast and multicast requests (fan-out 2–6, the source
// among its own destinations, a destination on the path to another,
// duplicate and off-mesh destinations) interleaved with teardowns,
// reroutes and link failures/repairs — as one FNV digest per mesh and
// table size, identical for a standard and a Reference controller. The
// digests were recorded while multicast (and all of Reference mode) still
// ran on a tree planner of its own; a 4-entry connection table forces
// both identifier exhaustions, the common-id one on a fan-out router.
func TestPlannerDecisionsPinned(t *testing.T) {
	tiny := router.DefaultConfig()
	tiny.Conns = 4
	for _, leg := range []struct {
		name string
		size int
		cfg  router.Config
		want uint64
	}{
		{"4x4", 4, router.DefaultConfig(), 0xcdf575a2e2cbb5f8},
		{"6x6", 6, router.DefaultConfig(), 0x7f40df52598155c5},
		{"4x4/conns4", 4, tiny, 0x9ba28a57b51b7ba6},
		{"6x6/conns4", 6, tiny, 0x571967efea4b92ae},
	} {
		for _, reference := range []bool{false, true} {
			got, seen := pinnedDecisions(t, leg.size, leg.cfg, reference)
			t.Logf("%s reference=%v: digest %#x, %v", leg.name, reference, got, seen)
			if got != leg.want {
				t.Errorf("%s reference=%v: digest %#x, want %#x", leg.name, reference, got, leg.want)
			}
			need := []string{"multicast", "multicast_refused", "src_in_dsts", "relay", "duplicate", "off_mesh"}
			if leg.cfg.Conns == 4 {
				need = append(need, "ids_exhausted", "no_common_id_fanout")
			}
			for _, k := range need {
				if seen[k] == 0 {
					t.Errorf("%s reference=%v: the stream never produced %s", leg.name, reference, k)
				}
			}
		}
	}
}

// pinnedDecisions runs TestPlannerDecisionsPinned's op stream on a fresh
// size×size controller, returning the digest and how often each case the
// test must cover occurred.
func pinnedDecisions(t *testing.T, size int, rcfg router.Config, reference bool) (uint64, map[string]int) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Reference = reference
	c, err := New(mesh.MustNew(size, size, rcfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(7*size + rcfg.Conns)))
	h := fnv.New64a()
	seen := map[string]int{}
	note := func(ch *Channel, err error) {
		if err != nil {
			fmt.Fprintf(h, "err %s\n", err)
			return
		}
		fmt.Fprintf(h, "ok %s %v %v %d %d\n", ch.Route(), ch.HopIDs(), ch.DstConn, ch.Margin, ch.LocalD)
	}
	var live []*Channel
	var failed []linkKey
	for op := 0; op < 400; op++ {
		switch k := rng.Intn(12); {
		case k == 0 && len(live) > 0:
			i := rng.Intn(len(live))
			fmt.Fprintf(h, "teardown %v\n", c.Teardown(live[i]))
			live = append(live[:i], live[i+1:]...)
		case k == 1 && len(live) > 0:
			i := rng.Intn(len(live))
			ch, err := c.Reroute(live[i])
			note(ch, err)
			if err == nil {
				live[i] = ch
			}
		case k == 2:
			if len(failed) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(failed))
				setLinkDown(t, c, failed[i], false)
				failed = append(failed[:i], failed[i+1:]...)
			} else {
				lk := linkKey{mesh.Coord{X: rng.Intn(size - 1), Y: rng.Intn(size - 1)}, router.PortXPlus}
				if rng.Intn(2) == 0 {
					lk.port = router.PortYPlus
				}
				setLinkDown(t, c, lk, true)
				failed = append(failed, lk)
			}
			// Every link op succeeds; its line keeps the pinned digests.
			fmt.Fprintln(h, "link <nil>")
		default:
			src, dsts := pinnedRequest(rng, size)
			far := 0
			for _, d := range dsts {
				far = max(far, abs(d.X-src.X)+abs(d.Y-src.Y))
			}
			spec := rtc.Spec{Imin: int64(8 + 4*rng.Intn(8)), Smax: 1 + rng.Intn(36), D: int64(far+1) * int64(3+rng.Intn(12))}
			if rng.Intn(30) == 0 {
				spec.D = int64(far+1) * 140 // past the rollover window
			}
			ch, err := c.Admit(src, dsts, spec)
			note(ch, err)
			if err == nil {
				live = append(live, ch)
				if len(dsts) > 1 {
					seen["multicast"]++
				}
				for j, hop := range ch.hops {
					if j > 0 && hop.mask.Has(router.PortLocal) && hop.mask.Count() > 1 {
						seen["relay"]++
					}
				}
				for _, d := range dsts {
					if d == src {
						seen["src_in_dsts"]++
					}
				}
				break
			}
			var ide *ErrIDExhausted
			switch {
			case strings.Contains(err.Error(), "duplicate destination"):
				seen["duplicate"]++
			case strings.Contains(err.Error(), "outside mesh"):
				seen["off_mesh"]++
			case errors.As(err, &ide) && !ide.Common:
				seen["ids_exhausted"]++
			case errors.As(err, &ide) && xyFanout(src, dsts, ide.Node) > 1:
				seen["no_common_id_fanout"]++
			case ide == nil && len(dsts) > 1:
				if _, typed := Explain(err); typed {
					seen["multicast_refused"]++
				}
			}
		}
	}
	return h.Sum64(), seen
}

// pinnedRequest draws one request for pinnedDecisions: unicast half the
// time, otherwise fan-out 2–6, each destination now and then the source
// itself, a repeat, an off-mesh router or a router on the XY path to an
// earlier destination.
func pinnedRequest(rng *rand.Rand, size int) (mesh.Coord, []mesh.Coord) {
	src := mesh.Coord{X: rng.Intn(size), Y: rng.Intn(size)}
	nd := 1
	if rng.Intn(2) == 0 {
		nd = 2 + rng.Intn(5)
	}
	dsts := make([]mesh.Coord, 0, nd)
	has := func(d mesh.Coord) bool {
		for _, e := range dsts {
			if e == d {
				return true
			}
		}
		return false
	}
	for len(dsts) < nd {
		d := mesh.Coord{X: rng.Intn(size), Y: rng.Intn(size)}
		switch r := rng.Intn(24); {
		case r == 0:
			d = src
		case r == 1 && len(dsts) > 0:
			dsts = append(dsts, dsts[rng.Intn(len(dsts))])
			continue
		case r == 2:
			d = mesh.Coord{X: size, Y: rng.Intn(size)}
		case r < 8 && len(dsts) > 0:
			on := RouteCoords(nil, src, mesh.XYRoute(src, dsts[rng.Intn(len(dsts))]))
			d = on[rng.Intn(len(on))]
		}
		if !has(d) {
			dsts = append(dsts, d)
		}
	}
	return src, dsts
}

// xyFanout counts the output ports the XY multicast tree src→dsts uses
// at the router named node.
func xyFanout(src mesh.Coord, dsts []mesh.Coord, node string) int {
	var mask sched.PortMask
	for _, d := range dsts {
		at := src
		for _, p := range mesh.XYRoute(src, d) {
			if at.String() == node {
				mask |= 1 << p
			}
			at = at.Add(p)
		}
	}
	return mask.Count()
}

// TestNotActiveChannelRefused: Teardown and Reroute identify a channel
// by pointer, not by id — ids are only unique per controller. A nil
// channel, another controller's channel with a colliding id, and a
// channel already torn down all come back as *ErrNotActive, and none of
// them may touch the ledger.
func TestNotActiveChannelRefused(t *testing.T) {
	a, _ := New(newNet(t, 3, 3), DefaultConfig())
	b, _ := New(newNet(t, 3, 3), DefaultConfig())
	src, dsts := mesh.Coord{X: 0, Y: 0}, []mesh.Coord{{X: 2, Y: 1}}
	spec := rtc.Spec{Imin: 8, Smax: 18, D: 60}
	own, err := a.Admit(src, dsts, spec)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := b.Admit(src, dsts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if foreign.ID != own.ID {
		t.Fatalf("test needs colliding ids, got %d and %d", own.ID, foreign.ID)
	}
	stale, err := a.Admit(src, dsts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Teardown(stale); err != nil {
		t.Fatal(err)
	}
	before := sealJSON(t, a)
	for name, ch := range map[string]*Channel{"nil": nil, "foreign": foreign, "torn down": stale} {
		_, rerr := a.Reroute(ch)
		for op, err := range map[string]error{"Teardown": a.Teardown(ch), "Reroute": rerr} {
			var na *ErrNotActive
			if !errors.As(err, &na) {
				t.Fatalf("%s(%s channel) = %v, want *ErrNotActive", op, name, err)
			}
		}
		if a.Active() != 1 {
			t.Fatalf("%s channel: Active = %d, want 1", name, a.Active())
		}
		if err := a.VerifyLedger(); err != nil {
			t.Fatalf("%s channel: %v", name, err)
		}
		if !bytes.Equal(before, sealJSON(t, a)) {
			t.Fatalf("%s channel: refused call mutated the ledger", name)
		}
	}
	if err := a.Teardown(own); err != nil {
		t.Fatalf("own channel no longer tears down: %v", err)
	}
	if err := b.Teardown(foreign); err != nil {
		t.Fatalf("the other controller's channel was disturbed: %v", err)
	}
}

// TestAuditOffMeshSource: one record builder, one shard rule. A request
// whose source lies outside the mesh has no source shard, so both
// admission doors file its rejection under shard 0 — and the two
// records differ only in Op.
func TestAuditOffMeshSource(t *testing.T) {
	c, _ := New(newNet(t, 3, 3), DefaultConfig())
	log := obs.NewAuditLog()
	c.AttachAudit(log)
	dst := mesh.Coord{X: 1, Y: 1}
	spec := rtc.Spec{Imin: 8, Smax: 18, D: 60}
	for _, src := range []mesh.Coord{{X: 7, Y: 0}, {X: -1, Y: 0}} {
		log.Reset()
		if _, err := c.Admit(src, []mesh.Coord{dst}, spec); err == nil {
			t.Fatalf("off-mesh source %s admitted", src)
		}
		if _, err := c.AdmitLayout(PlanSpec{Src: src, Dst: dst, Spec: spec,
			Route: []int{router.PortLocal}, DSplit: []int64{60}}); err == nil {
			t.Fatalf("off-mesh source %s admitted by layout", src)
		}
		recs := log.Merged()
		if len(recs) != 2 {
			t.Fatalf("source %s: %d records, want 2", src, len(recs))
		}
		admit, layout := recs[0], recs[1]
		if admit.Node != 0 || layout.Node != 0 {
			t.Errorf("source %s: records sharded to nodes %d and %d, want 0 and 0", src, admit.Node, layout.Node)
		}
		if admit.Op != "admit" || layout.Op != "admit_layout" {
			t.Errorf("source %s: ops %q and %q", src, admit.Op, layout.Op)
		}
		layout.Op, layout.Seq, layout.NodeSeq = admit.Op, admit.Seq, admit.NodeSeq
		if admit != layout {
			t.Errorf("source %s: records differ beyond Op:\n%+v\n%+v", src, admit, layout)
		}
	}
}

// TestCommitFailureReturnsProgrammingError pins what a refused control
// write means now that admit is plan + commit: the plan that passed is
// the decision, so both Admit and AdmitBatch return the programming
// error with every debit unwound — neither falls through to the YX
// order. The controller is made to
// believe the source's tables hold 8 identifiers where the routers hold
// 4, so the XY plan passes on an id the third router cannot store.
func TestCommitFailureReturnsProgrammingError(t *testing.T) {
	cfg := router.DefaultConfig()
	cfg.Conns = 4
	build := func() *Controller {
		c, err := New(mesh.MustNew(3, 3, cfg), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		// Two deliveries into (2,0) take all four of its identifiers.
		for i := 0; i < 2; i++ {
			if _, err := c.Admit(mesh.Coord{X: 2, Y: 1}, []mesh.Coord{{X: 2, Y: 0}}, rtc.Spec{Imin: 32, Smax: 18, D: 60}); err != nil {
				t.Fatal(err)
			}
		}
		c.node(mesh.Coord{X: 0, Y: 0}).conns = 8
		return c
	}
	src, dsts := mesh.Coord{X: 0, Y: 0}, []mesh.Coord{{X: 2, Y: 2}}
	spec := rtc.Spec{Imin: 32, Smax: 18, D: 100}
	check := func(door string, c *Controller, err error) string {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "admission: programming (1,0)") {
			t.Fatalf("%s: err = %v, want the programming error at (1,0)", door, err)
		}
		if _, typed := Explain(err); typed {
			t.Fatalf("%s: programming failure explained as a resource rejection", door)
		}
		if c.Active() != 2 {
			t.Fatalf("%s: Active = %d, want the 2 background channels", door, c.Active())
		}
		if c.net.Router(src).Connection(0).Valid {
			t.Fatalf("%s: source table entry survived the unwind", door)
		}
		if err := c.VerifyLedger(); err != nil {
			t.Fatalf("%s: %v", door, err)
		}
		return err.Error()
	}
	c := build()
	_, err := c.Admit(src, dsts, spec)
	single := check("Admit", c, err)

	c = build()
	res := c.AdmitBatch([]Request{{Src: src, Dsts: dsts, Spec: spec}, {Src: src, Dsts: dsts, Spec: spec}}, 2)
	if batch := check("AdmitBatch", c, res.Errs[0]); batch != single {
		t.Fatalf("AdmitBatch says %q, Admit %q", batch, single)
	}
}
