package admission

import (
	"math/rand"
	"slices"
	"testing"
)

// randTask draws parameters inside the router's 7-bit range, skewed so
// feasible, utilization-failing, and busy-period-failing candidates all
// occur.
func randTask(rng *rand.Rand) task {
	c := int64(1 + rng.Intn(12))
	d := c + int64(rng.Intn(100))
	return task{C: c, T: c + int64(rng.Intn(120)), D: d}
}

// TestEDFCacheDifferential drives an edfCache through random add/remove
// sequences and, after every mutation, checks random candidates against
// the from-scratch analysis. The contract is exact equality of the whole
// report: verdict, bitwise utilization, headroom, and the failing step
// point in edfAnalyze's own iteration order.
func TestEDFCacheDifferential(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ec edfCache
		ec.rebuild(nil)
		var tasks []task
		var sc evalScratch
		for op := 0; op < 80; op++ {
			if len(tasks) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(tasks))
				tk := tasks[i]
				tasks = append(tasks[:i], tasks[i+1:]...)
				ec.removeTask(tasks, tk)
			} else {
				tk := randTask(rng)
				if !edfFeasible(append(append([]task(nil), tasks...), tk)) && rng.Intn(2) == 0 {
					continue // keep the committed set mostly feasible, like real ledgers
				}
				tasks = append(tasks, tk)
				ec.addTask(tasks, tk)
			}
			for trial := 0; trial < 4; trial++ {
				cand := randTask(rng)
				if trial == 3 {
					// An invalid candidate must reproduce the "validity"
					// failure with util summed over the committed set only.
					cand = task{C: 5, T: 4, D: 3}
				}
				got := ec.check(tasks, cand, &sc)
				want := edfAnalyze(append(append([]task(nil), tasks...), cand))
				if got != want {
					t.Fatalf("seed %d op %d: cache check %+v, edfAnalyze %+v\ntasks=%v cand=%+v",
						seed, op, got, want, tasks, cand)
				}
			}
		}
	}
	diffFailReports(t)
	diffLayouts(t)
}

// diffLayouts drives one link's demand array through seeded fill-and-drain
// sequences: a family of implicit-deadline tasks at utilization 43/112 +
// 77/125 = 0.99993, committed in random order with light tasks added and
// removed between its members, so the coverage crosses coverFor's
// doublings up to coverCap; then the family drains to an empty array.
// Last, 256 tasks that all step at t = coverCap — the most the int32
// slots ever hold. After every mutation the arrays must equal a fresh lay
// (sameLayout, verifyCache's check) and check must equal edfAnalyze.
func diffLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	var ec edfCache
	var tasks []task
	step := func(what string) {
		t.Helper()
		if err := ec.sameLayout(tasks); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got, want := ec.committedReport(tasks), edfAnalyze(tasks); got != want {
			t.Fatalf("%s: committed report %+v, edfAnalyze %+v", what, got, want)
		}
		for trial := 0; trial < 3; trial++ {
			cand := randTask(rng)
			got := ec.check(tasks, cand, new(evalScratch))
			if want := edfAnalyze(append(append([]task(nil), tasks...), cand)); got != want {
				t.Fatalf("%s: cache check %+v, edfAnalyze %+v\ntasks=%v cand=%+v", what, got, want, tasks, cand)
			}
		}
	}
	add := func(tk task) {
		tasks = append(tasks, tk)
		ec.addTask(tasks, tk)
		step("add")
	}
	remove := func(i int) {
		tk := tasks[i]
		tasks = append(tasks[:i], tasks[i+1:]...)
		ec.removeTask(tasks, tk)
		step("remove")
	}
	family := []task{{C: 10, T: 112}, {C: 11, T: 112}, {C: 12, T: 112}, {C: 10, T: 112},
		{C: 20, T: 125}, {C: 20, T: 125}, {C: 20, T: 125}, {C: 17, T: 125}}
	for seed := 0; seed < 6; seed++ {
		ec.rebuild(nil)
		covers := map[int64]bool{}
		for _, i := range rng.Perm(len(family)) {
			tk := family[i]
			tk.D = tk.T
			add(tk)
			covers[ec.cover] = true
			for light := rng.Intn(3); light > 0; light-- {
				T := int64(64 + rng.Intn(64))
				if tk := (task{C: 1, T: T, D: T - int64(rng.Intn(8))}); edfFeasible(append(append([]task(nil), tasks...), tk)) {
					add(tk)
					covers[ec.cover] = true
				}
			}
			for len(tasks) > 0 && tasks[len(tasks)-1].C == 1 {
				remove(len(tasks) - 1)
			}
		}
		if ec.cover != coverCap || ec.util < 0.9999 || len(covers) < 4 {
			t.Fatalf("seed %d: saturated family at utilization %v covers (0,%d], coverages seen %v; want ≥ 0.9999, (0,%d] and ≥ 4 doublings",
				seed, ec.util, ec.cover, covers, coverCap)
		}
		for len(tasks) > 0 {
			remove(rng.Intn(len(tasks)))
		}
		if ec.n != 0 || ec.total != 0 || slices.ContainsFunc(ec.set, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("seed %d: drained cache holds %d points summing to %d", seed, ec.n, ec.total)
		}
	}

	// Every task steps at coverCap: the fullest slot the layout allows.
	ec.rebuild(nil)
	for i := 0; i < 256; i++ {
		add(task{C: coverCap, T: 256 * coverCap, D: coverCap})
	}
	if ec.cover != coverCap || ec.n != 1 || int64(ec.w[coverCap]) != 256*coverCap {
		t.Fatalf("256 tasks at t=%d: cover %d, %d points, w[t] = %d; want one point holding %d",
			coverCap, ec.cover, ec.n, ec.w[coverCap], 256*coverCap)
	}
	for len(tasks) > 0 {
		remove(rng.Intn(len(tasks)))
	}
	if ec.n != 0 || ec.w[coverCap] != 0 {
		t.Fatalf("drained: %d points, w[%d] = %d", ec.n, coverCap, ec.w[coverCap])
	}
}

// diffFailReports aims rejecting candidates at failReport's two ways of
// reading committed demand: (a) a first violated step that falls between
// two cached points, where dbf(t) is the prefix of w through an empty
// slot, and (b) one past coverCap on a set near utilization 1, where it falls
// back to demandAt. Each must equal edfAnalyze's report field for field.
func diffFailReports(t *testing.T) {
	build := func(tasks []task) *edfCache {
		ec := new(edfCache)
		ec.rebuild(nil)
		for i, tk := range tasks {
			ec.addTask(tasks[:i+1], tk)
		}
		return ec
	}
	diff := func(ec *edfCache, tasks []task, cand task) edfReport {
		t.Helper()
		got := ec.check(tasks, cand, new(evalScratch))
		want := edfAnalyze(append(append([]task(nil), tasks...), cand))
		if got != want {
			t.Fatalf("cache check %+v, edfAnalyze %+v\ntasks=%v cand=%+v", got, want, tasks, cand)
		}
		return got
	}

	// (a) Sparse committed ladders (long periods, short deadlines) and a
	// candidate whose own early step tips the demand over.
	rng := rand.New(rand.NewSource(99))
	between := 0
	for trial := 0; trial < 400; trial++ {
		var tasks []task
		for len(tasks) < 1+rng.Intn(4) {
			c := int64(2 + rng.Intn(6))
			tk := task{C: c, T: 60 + int64(rng.Intn(60)), D: c + int64(rng.Intn(12))}
			if edfFeasible(append(append([]task(nil), tasks...), tk)) {
				tasks = append(tasks, tk)
			}
		}
		ec := build(tasks)
		c := int64(2 + rng.Intn(6))
		rep := diff(ec, tasks, task{C: c, T: 60 + int64(rng.Intn(60)), D: c + int64(rng.Intn(12))})
		if rep.test != "busy_period" || rep.at > ec.cover {
			continue
		}
		if ec.w[rep.at] == 0 {
			between++
		}
	}
	if between < 20 {
		t.Fatalf("only %d rejections failed between two cached points; the generator no longer reaches that case", between)
	}

	// (b) Sets found by search: utilization within 2e-4 of 1 with the
	// candidate, first violation far past the coverage.
	late := []struct {
		tasks []task
		cand  task
		at    int64
	}{
		{[]task{{C: 2, T: 10, D: 8}, {C: 2, T: 11, D: 9}, {C: 1, T: 13, D: 12}, {C: 2, T: 5, D: 3},
			{C: 3, T: 91, D: 91}, {C: 1, T: 25, D: 24}, {C: 3, T: 60, D: 58}}, task{C: 1, T: 55, D: 53}, 5278},
		{[]task{{C: 1, T: 50, D: 50}, {C: 2, T: 53, D: 51}, {C: 3, T: 47, D: 46}, {C: 2, T: 4, D: 2},
			{C: 3, T: 9, D: 7}, {C: 2, T: 70, D: 68}}, task{C: 2, T: 121, D: 119}, 22750},
		{[]task{{C: 1, T: 32, D: 32}, {C: 2, T: 53, D: 52}, {C: 2, T: 8, D: 6}, {C: 3, T: 5, D: 3},
			{C: 1, T: 89, D: 87}, {C: 3, T: 85, D: 85}}, task{C: 2, T: 58, D: 58}, 45478},
	}
	for _, tc := range late {
		rep := diff(build(tc.tasks), tc.tasks, tc.cand)
		if rep.test != "busy_period" || rep.at != tc.at || rep.at <= coverCap {
			t.Fatalf("late case: report %+v, want a busy_period failure at %d, past the cover cap", rep, tc.at)
		}
	}
}

// TestVerdictTableCollisions checks several hundred distinct (cache,
// epoch, C, T, D) keys in random order against a verdict table held at
// its minimum size — so entries collide and evict one another — and then
// through a resize: every answer, hit or miss, must be checkFull's. The
// shared empty-link cache rides along: below memoWorth points its checks
// bypass the table, and must come out the same.
func TestVerdictTableCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type link struct {
		ec    *edfCache
		tasks []task
	}
	links := []link{{ec: emptyLinkCache}}
	for len(links) < 12 {
		l := link{ec: new(edfCache)}
		l.ec.rebuild(nil)
		// Light short-period tasks until the set holds enough points for
		// check to go to the table at all; how many that takes varies, so
		// epochs differ across links.
		for tries, need := 0, memoWorth+rng.Intn(64); l.ec.n <= need; tries++ {
			if tries == 1000 {
				t.Fatalf("link saturated at %d cached points", l.ec.n)
			}
			T := int64(16 + rng.Intn(48))
			tk := task{C: 1, T: T, D: T - int64(rng.Intn(4))}
			if edfFeasible(append(append([]task(nil), l.tasks...), tk)) {
				l.tasks = append(l.tasks, tk)
				l.ec.addTask(l.tasks, tk)
			}
		}
		links = append(links, l)
	}
	type probe struct {
		link
		cand task
		want edfReport
	}
	var probes []probe
	for _, l := range links {
		for i := 0; i < 50; i++ {
			cand := randTask(rng)
			probes = append(probes, probe{l, cand, l.ec.checkFull(l.tasks, cand, new(evalScratch))})
		}
	}
	var sc evalScratch
	sweep := func(stage string) {
		t.Helper()
		for _, i := range rng.Perm(len(probes)) {
			p := probes[i]
			if got := p.ec.check(p.tasks, p.cand, &sc); got != p.want {
				t.Fatalf("%s: table answered %+v, checkFull %+v (tasks=%v cand=%+v)", stage, got, p.want, p.tasks, p.cand)
			}
		}
	}
	for round := 0; round < 8; round++ {
		sc.evicted = 0 // never lets the growth rule fire
		sweep("pinned")
		if len(sc.memo) != memoMin {
			t.Fatalf("table grew to %d while pinned", len(sc.memo))
		}
	}
	if sc.evicted == 0 {
		t.Fatalf("%d keys never collided in %d slots; the test exercises no eviction", len(probes), memoMin)
	}
	for len(sc.memo) == memoMin {
		sweep("growing")
	}
	if len(sc.memo) != 2*memoMin || sc.evicted >= len(sc.memo) {
		t.Fatalf("after a resize: %d slots, %d evictions counted", len(sc.memo), sc.evicted)
	}
	// A resize re-places every live verdict: the wider index extends the
	// old one, so entries that did not share a slot before cannot now.
	held := func(p probe) bool {
		return sc.lookup(checkKey{p.ec, p.ec.epoch, p.cand.C, p.cand.T, p.cand.D}) != nil
	}
	var before []probe
	for _, p := range probes {
		if held(p) {
			before = append(before, p)
		}
	}
	if len(before) < len(probes)/2 {
		t.Fatalf("only %d of %d verdicts in a table of %d", len(before), len(probes), len(sc.memo))
	}
	sc.growMemo()
	for _, p := range before {
		if !held(p) {
			t.Fatalf("resize to %d slots dropped a live verdict (cand %+v)", len(sc.memo), p.cand)
		}
	}
	sweep("resized")
}

// TestEDFCacheRemoveCompaction pins the stale-point hazard: after the
// only committed task is removed, its leftover step points must not
// surface slack values edfAnalyze never evaluates.
func TestEDFCacheRemoveCompaction(t *testing.T) {
	var ec edfCache
	tk := task{C: 2, T: 10, D: 5}
	tasks := []task{tk}
	ec.rebuild(tasks)
	tasks = tasks[:0]
	ec.removeTask(tasks, tk)
	if ec.n != 0 {
		t.Fatalf("removed task left %d step points in the cache", ec.n)
	}
	var sc evalScratch
	cand := task{C: 1, T: 200, D: 100}
	got := ec.check(tasks, cand, &sc)
	want := edfAnalyze([]task{cand})
	if got != want {
		t.Fatalf("post-removal check %+v, edfAnalyze %+v", got, want)
	}
	if got.headroom != 99 {
		t.Fatalf("headroom %d contaminated by stale points, want 99", got.headroom)
	}
}

// TestEDFCacheUtilBitExact removes tasks in an order that would diverge
// under subtract-style float updates and checks the utilization float
// stays bitwise equal to the in-order sum.
func TestEDFCacheUtilBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ec edfCache
	ec.rebuild(nil)
	var tasks []task
	for i := 0; i < 30; i++ {
		tk := task{C: 1 + int64(rng.Intn(3)), T: 3 + int64(rng.Intn(97)), D: 3 + int64(rng.Intn(60))}
		if tk.C > tk.D {
			tk.D = tk.C
		}
		tasks = append(tasks, tk)
		ec.addTask(tasks, tk)
	}
	for len(tasks) > 0 {
		i := rng.Intn(len(tasks))
		tk := tasks[i]
		tasks = append(tasks[:i], tasks[i+1:]...)
		ec.removeTask(tasks, tk)
		var want float64
		for _, s := range tasks {
			want += float64(s.C) / float64(s.T)
		}
		if ec.util != want {
			t.Fatalf("after %d removals: cache util %v, in-order sum %v", 30-len(tasks), ec.util, want)
		}
	}
}

// BenchmarkLinkCheckCached measures one candidate check against a link
// holding many committed channels — the operation the incremental cache
// exists to flatten — with the from-scratch path as the contrast.
func BenchmarkLinkCheckCached(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var tasks []task
	var ec edfCache
	ec.rebuild(nil)
	for len(tasks) < 24 {
		tk := task{C: 1, T: 40 + int64(rng.Intn(80)), D: 30 + int64(rng.Intn(60))}
		if !edfFeasible(append(append([]task(nil), tasks...), tk)) {
			continue
		}
		tasks = append(tasks, tk)
		ec.addTask(tasks, tk)
	}
	cand := task{C: 1, T: 96, D: 48}
	var sc evalScratch
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ec.check(tasks, cand, &sc)
		}
	})
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc.tasks = append(append(sc.tasks[:0], tasks...), cand)
			edfAnalyze(sc.tasks)
		}
	})
}
