package admission

import (
	"math/bits"
	"slices"
	"sync/atomic"
)

// Incremental EDF analysis. edfAnalyze re-enumerates every step point of
// every committed task on every check, which makes admission cost grow
// superlinearly with admitted channels. The edfCache keeps, per link, the
// committed task set's analysis pre-digested — the sorted union of its
// step points t = D_i + k·T_i with the demand-bound function dbf(t)
// prefix-summed at each — so checking a candidate costs O(cached points +
// candidate's own steps) instead of O(points × tasks).
//
// The cache is bound by the byte-identity contract: for any committed set
// and candidate, check() must return exactly the edfReport that
// edfAnalyze(append(tasks, cand)) would — same verdict, same headroom,
// same failing step point, and a bitwise-equal utilization float. That
// last part dictates the update discipline: util is a float sum in task-
// slice order, so removals re-sum the survivors in order rather than
// subtracting (float subtraction does not invert float addition).
//
// check() is strictly read-only on both the cache and the controller, so
// batch admission can evaluate many candidates concurrently against one
// frozen ledger; all mutation happens in addTask/removeTask, called only
// from the serial commit/teardown paths.

// stepPoint is one absolute deadline in the committed set's analysis
// window: w is the demand that arrives exactly at t (the sum of C over
// tasks with a step there).
type stepPoint struct {
	t, w int64
}

// evalScratch holds the per-caller scratch buffers a check needs, so the
// hot path allocates nothing and concurrent checkers never share state.
type evalScratch struct {
	next  []int64 // per-task next release, for minSlack's walk past the coverage
	tasks []task
	// hops is the hop skeleton the doors lay out and planHops fills in; a
	// channel only copies it out once the plan passes every check. route
	// is planUniform's port-sequence buffer.
	hops  []hopRef
	route []int
	// memo caches full check verdicts keyed by (cache identity, cache
	// epoch, candidate parameters). Mass admission re-checks the same few
	// candidate shapes against the same committed sets thousands of times
	// — every request in a traffic family shares one Spec, and per-hop
	// deadlines only take a handful of values — so most checks of a loaded
	// link become one table probe (lightly loaded and reservation-free
	// links are cheaper to analyse than to probe; see memoWorth). Exact by
	// construction: check is a pure function of the committed set (named by
	// cache+epoch) and the candidate, and a slot only hits on a full key
	// match. Direct-mapped (see remember); evicted counts the still-live
	// entries overwritten since the last resize.
	memo    []memoEntry
	evicted int
}

type edfCache struct {
	built bool
	// id names the cache in the verdict table's slot hash: a small integer
	// handed out at first build mixes better, and cheaper, than the
	// cache's address would.
	id uint32
	// epoch counts mutations (rebuild/addTask/removeTask). Together with
	// the cache's identity it names one exact committed set, which is
	// what lets evalScratch memoize check verdicts across calls.
	epoch uint64
	// degenerate marks a committed set that failed task validity; every
	// check falls back to the from-scratch analysis until a rebuild. It
	// cannot happen through the normal admit path (only valid tasks
	// commit) and exists purely as a safety net.
	degenerate bool
	sumC       int64
	util       float64 // ΣC/T in task-slice order, bit-exact vs edfAnalyze
	maxD       int64
	// points/prefix cover every committed step point in (0, cover], with
	// prefix[i] = dbf(points[i].t) over the committed set. cover is kept
	// ahead of the committed busy-period bound so candidate checks, whose
	// bound is necessarily larger, usually stay inside the cache.
	cover  int64
	points []stepPoint
	prefix []int64
	// spare and raw are mutation-path scratch (mergeIn double-buffers
	// points through spare; add/rebuild gather new steps into raw), so a
	// warm cache's updates allocate nothing. check() never touches them —
	// concurrent checkers use their own evalScratch.
	spare []stepPoint
	raw   []stepPoint
}

// busyBoundFrom is busyPeriodBound with the scalars already in hand.
func busyBoundFrom(maxD, sumC int64, util float64) int64 {
	if util >= 1.0-1e-9 {
		return maxAnalysisHorizon
	}
	bp := int64(float64(sumC)/(1.0-util)) + 1
	if bp < maxD {
		bp = maxD
	}
	if bp > maxAnalysisHorizon {
		bp = maxAnalysisHorizon
	}
	return bp
}

// coverCap bounds the cached coverage. Near utilization 1 the busy-period
// bound explodes toward maxAnalysisHorizon, and materializing that many
// step points makes every commit-time re-merge O(tasks × horizon / T) —
// while candidate checks rarely reach that deep (a rejection stops at its
// first violated step point). Beyond the cap, check and committedReport
// merge the committed ladders on the fly instead — an O(tasks) min-scan
// per point, far cheaper than keeping (and re-sorting) the points
// resident.
const coverCap = 4096

// coverFor picks the cache coverage for a committed busy-period bound:
// doubled (within the cap) so the typical candidate check — whose own
// bound exceeds the committed one — finds every point it needs already
// cached instead of walking the ladders past the coverage.
func coverFor(limit int64) int64 {
	c := 2 * limit
	if c < 256 {
		c = 256
	}
	if c > coverCap {
		c = coverCap
	}
	return c
}

func validTask(tk task) bool {
	return tk.C >= 1 && tk.T >= 1 && tk.D >= 1 && tk.C <= tk.D
}

// stepsInto appends every step point t = D + k·T of tk with lo < t ≤ hi.
func stepsInto(buf []stepPoint, tk task, lo, hi int64) []stepPoint {
	t := tk.D
	if lo >= tk.D {
		t = tk.D + ((lo-tk.D)/tk.T+1)*tk.T
	}
	for ; t <= hi; t += tk.T {
		buf = append(buf, stepPoint{t, tk.C})
	}
	return buf
}

// sortSteps orders points by t without allocating (heapsort; the inputs
// are concatenations of short ascending runs, and sizes stay small).
// Only a gather of several tasks' ladders needs it: one task's ladder
// comes out of stepsInto already ascending.
func sortSteps(s []stepPoint) {
	n := len(s)
	for i := n/2 - 1; i >= 0; i-- {
		siftStep(s, i, n)
	}
	for i := n - 1; i > 0; i-- {
		s[0], s[i] = s[i], s[0]
		siftStep(s, 0, i)
	}
}

func siftStep(s []stepPoint, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && s[child+1].t > s[child].t {
			child++
		}
		if s[root].t >= s[child].t {
			return
		}
		s[root], s[child] = s[child], s[root]
		root = child
	}
}

// rebuild computes the cache from scratch off the committed set.
func (ec *edfCache) rebuild(tasks []task) {
	if ec.id == 0 {
		ec.id = cacheIDs.Add(1)
	}
	ec.epoch++
	ec.built = true
	ec.degenerate = false
	ec.sumC, ec.util, ec.maxD = 0, 0, 0
	ec.points = ec.points[:0]
	ec.prefix = ec.prefix[:0]
	for _, tk := range tasks {
		if !validTask(tk) {
			ec.degenerate = true
			return
		}
		ec.sumC += tk.C
		ec.util += float64(tk.C) / float64(tk.T)
		if tk.D > ec.maxD {
			ec.maxD = tk.D
		}
	}
	ec.cover = coverFor(busyBoundFrom(ec.maxD, ec.sumC, ec.util))
	raw := ec.raw[:0]
	for i := range tasks {
		raw = stepsInto(raw, tasks[i], 0, ec.cover)
	}
	ec.raw = raw
	if len(tasks) > 1 {
		sortSteps(raw)
	}
	ec.mergeIn(raw)
}

// mergeIn folds raw — step points ascending in t, repeats allowed — into
// the sorted unique points/prefix arrays, summing weights at equal t.
func (ec *edfCache) mergeIn(raw []stepPoint) {
	if len(raw) > 0 {
		merged := slices.Grow(ec.spare[:0], len(ec.points)+len(raw))
		i, j := 0, 0
		for i < len(ec.points) || j < len(raw) {
			switch {
			case j == len(raw) || (i < len(ec.points) && ec.points[i].t < raw[j].t):
				merged = append(merged, ec.points[i])
				i++
			case i == len(ec.points) || raw[j].t < ec.points[i].t:
				p := raw[j]
				j++
				for j < len(raw) && raw[j].t == p.t {
					p.w += raw[j].w
					j++
				}
				merged = append(merged, p)
			default: // equal t
				p := ec.points[i]
				i++
				for j < len(raw) && raw[j].t == p.t {
					p.w += raw[j].w
					j++
				}
				merged = append(merged, p)
			}
		}
		ec.points, ec.spare = merged, ec.points[:0]
	}
	ec.prefix = slices.Grow(ec.prefix[:0], len(ec.points))
	var run int64
	for _, p := range ec.points {
		run += p.w
		ec.prefix = append(ec.prefix, run)
	}
}

// addTask updates the cache after tk was appended to the committed set;
// tasks is the post-append slice (tk last).
func (ec *edfCache) addTask(tasks []task, tk task) {
	ec.epoch++
	if !ec.built {
		ec.rebuild(tasks)
		return
	}
	if ec.degenerate {
		return
	}
	if !validTask(tk) {
		ec.degenerate = true
		return
	}
	ec.sumC += tk.C
	ec.util += float64(tk.C) / float64(tk.T)
	if tk.D > ec.maxD {
		ec.maxD = tk.D
	}
	// Extend coverage only when the committed bound actually outgrows it,
	// and then jump to double the bound (coverFor). Tracking coverFor
	// continuously would re-merge the whole point array on every admit as
	// the bound creeps upward; extending geometrically amortizes those
	// re-merges the way a growing slice amortizes appends.
	target := ec.cover
	if need := busyBoundFrom(ec.maxD, ec.sumC, ec.util); need > ec.cover {
		target = coverFor(need)
	}
	raw := ec.raw[:0]
	if target > ec.cover {
		// Extend the survivors' coverage first, then lay in the new task.
		for i := range tasks[:len(tasks)-1] {
			raw = stepsInto(raw, tasks[i], ec.cover, target)
		}
	}
	extended := len(raw) > 0
	raw = stepsInto(raw, tk, 0, target)
	ec.raw = raw
	ec.cover = target
	if extended {
		// Several ladders end to end; the common case — tk's ladder alone
		// — is already in order.
		sortSteps(raw)
	}
	ec.mergeIn(raw)
}

// removeTask updates the cache after tk was removed from the committed
// set; tasks is the post-removal slice. Zero-weight points are compacted
// out: a stale point would otherwise surface a slack value edfAnalyze
// never evaluates, corrupting the headroom minimum.
func (ec *edfCache) removeTask(tasks []task, tk task) {
	ec.epoch++
	if !ec.built {
		return
	}
	if ec.degenerate {
		ec.rebuild(tasks)
		return
	}
	ec.sumC -= tk.C
	ec.util, ec.maxD = 0, 0
	for _, t := range tasks {
		ec.util += float64(t.C) / float64(t.T)
		if t.D > ec.maxD {
			ec.maxD = t.D
		}
	}
	out := ec.points[:0]
	next := tk.D
	for _, p := range ec.points {
		if p.t == next {
			p.w -= tk.C
			next += tk.T
		}
		if p.w > 0 {
			out = append(out, p)
		}
	}
	ec.points = out
	ec.mergeIn(nil) // rebuild prefix
	// cover only ever shrinks the committed bound, so coverage stays valid.
}

// candContrib is the candidate's demand due by t: max(0, ⌊(t−D)/T⌋+1)·C.
func candContrib(cand task, t int64) int64 {
	if t < cand.D {
		return 0
	}
	return ((t-cand.D)/cand.T + 1) * cand.C
}

// checkKey names one memoizable check: the cache pointer plus its
// mutation epoch pin the committed set, the three integers pin the
// candidate.
type checkKey struct {
	ec      *edfCache
	epoch   uint64
	c, t, d int64
}

// slot is the key's index in a verdict table of 1<<(64-shift) entries:
// the five integers that name the check, each spread by its own odd
// multiplier, folded once so the high bits see every input.
func (k checkKey) slot(shift uint) int {
	h := uint64(k.ec.id)*0x9e3779b97f4a7c15 ^ k.epoch*0xbf58476d1ce4e5b9 ^
		uint64(k.c)*0x94d049bb133111eb ^ uint64(k.t)*0xd6e8feb86659fd93 ^ uint64(k.d)*0xff51afd7ed558ccd
	h ^= h >> 29
	return int(h * 0x9e3779b97f4a7c15 >> shift)
}

// memoEntry is one verdict-table slot; a nil key.ec marks it empty.
type memoEntry struct {
	key checkKey
	rep edfReport
}

// live reports whether the entry can still hit: its cache has not been
// mutated since the verdict was stored.
func (e *memoEntry) live() bool { return e.key.ec != nil && e.key.ec.epoch == e.key.epoch }

// The verdict table starts at memoMin entries and doubles, up to memoCap,
// whenever the live entries overwritten since the last resize reach its
// size: a controller that is filling or churning (whose entries die with
// every commit) keeps a table that fits the cache, a saturated one under
// a rejection storm grows it to its working set. Past memoCap a colliding
// entry simply replaces the old one.
const (
	memoMin = 1 << 10
	memoCap = 1 << 15
)

// memoWorth is the committed-set size, in cached step points, up to which
// check skips the table: walking that few points costs less than the
// probe — a cold cache line or two — and the store after a miss, which is
// all a filling or churning controller ever gets out of the memo on its
// lightly loaded links. The saturated links a rejection storm re-checks
// hold hundreds of points. (32 / 64 / 128 measured: storm prefers the
// small end, churn the large, fill is flat from 64 up.)
const memoWorth = 64

// cacheIDs hands out edfCache.id values (atomic: controllers on
// different goroutines build caches independently).
var cacheIDs atomic.Uint32

func memoShift(size int) uint { return uint(64 - bits.TrailingZeros(uint(size))) }

// lookup returns the stored verdict for key, nil if the table does not
// hold it.
func (sc *evalScratch) lookup(key checkKey) *edfReport {
	if sc.memo == nil {
		return nil
	}
	if e := &sc.memo[key.slot(memoShift(len(sc.memo)))]; e.key == key {
		return &e.rep
	}
	return nil
}

// remember stores a verdict lookup just missed, growing the table first
// if collisions among live entries say it is too small.
func (sc *evalScratch) remember(key checkKey, rep edfReport) {
	if sc.memo == nil {
		sc.memo = make([]memoEntry, memoMin)
	}
	e := &sc.memo[key.slot(memoShift(len(sc.memo)))]
	if e.live() {
		sc.evicted++
		if sc.evicted >= len(sc.memo) && len(sc.memo) < memoCap {
			sc.growMemo()
			e = &sc.memo[key.slot(memoShift(len(sc.memo)))]
		}
	}
	*e = memoEntry{key, rep}
}

// growMemo doubles the table and re-places the entries still live.
func (sc *evalScratch) growMemo() {
	old := sc.memo
	sc.memo = make([]memoEntry, 2*len(old))
	sc.evicted = 0
	shift := memoShift(len(sc.memo))
	for i := range old {
		if e := &old[i]; e.live() {
			sc.memo[e.key.slot(shift)] = *e
		}
	}
}

// check analyzes the committed set plus one candidate, returning exactly
// what edfAnalyze(append(tasks, cand)) returns. Read-only on the cache
// and the task slice; sc supplies the scratch buffers and the verdict
// memo.
func (ec *edfCache) check(tasks []task, cand task, sc *evalScratch) edfReport {
	if !ec.built || ec.degenerate {
		sc.tasks = append(append(sc.tasks[:0], tasks...), cand)
		return edfAnalyze(sc.tasks)
	}
	if len(ec.points) <= memoWorth {
		return ec.checkFull(tasks, cand, sc)
	}
	key := checkKey{ec, ec.epoch, cand.C, cand.T, cand.D}
	if rep := sc.lookup(key); rep != nil {
		return *rep
	}
	rep := ec.checkFull(tasks, cand, sc)
	sc.remember(key, rep)
	return rep
}

// checkFull is the uncached analysis behind check, on a built,
// non-degenerate cache.
func (ec *edfCache) checkFull(tasks []task, cand task, sc *evalScratch) edfReport {
	if !validTask(cand) {
		// edfAnalyze sums utilization up to (not including) the bad task;
		// the candidate is last, so that sum is the full committed util.
		return edfReport{test: "validity", util: ec.util, margin: -1}
	}
	sumC := ec.sumC + cand.C
	util := ec.util + float64(cand.C)/float64(cand.T)
	if util > 1.0+1e-9 {
		return edfReport{test: "utilization", util: util, margin: 1.0 - util}
	}
	limit := busyBoundFrom(max(ec.maxD, cand.D), sumC, util)
	headroom, ok := ec.minSlack(tasks, cand, limit, sc)
	if !ok {
		return ec.failReport(tasks, cand, limit, util)
	}
	return edfReport{feasible: true, util: util, headroom: headroom,
		margin: float64(headroom)}
}

// minSlack walks the union of the committed set's and the candidate's
// step points ≤ limit in ascending t and returns the minimum slack
// t − dbf(t) over them — the same point set edfAnalyze visits, so the
// minimum is identical — or false at the first negative slack. A zero
// cand (C = 0) means no candidate: the committed set alone. dbf at a
// committed point is the cached prefix inside the coverage and a running
// sum past it; the candidate's own contribution is a running sum too —
// both walks ascend, so each candidate step adds one C instead of paying
// candContrib's division per point.
func (ec *edfCache) minSlack(tasks []task, cand task, limit int64, sc *evalScratch) (int64, bool) {
	headroom := int64(maxAnalysisHorizon)
	dbfC := int64(0) // committed dbf at the last committed point visited
	nc := cand.D     // next candidate step not yet visited
	cc := int64(0)   // candidate demand from steps before nc
	if cand.C == 0 {
		nc = limit + 1
	}
	// candTo visits the candidate's steps before t; it and visit report
	// false once a slack goes negative.
	candTo := func(t int64) bool {
		for ; nc < t && nc <= limit; nc += cand.T {
			cc += cand.C
			s := nc - dbfC - cc
			if s < 0 {
				return false
			}
			headroom = min(headroom, s)
		}
		return true
	}
	visit := func(t, committed int64) bool {
		if !candTo(t) {
			return false
		}
		dbfC = committed
		s := t - committed - cc
		if nc == t {
			// The candidate also steps exactly at t; count it, but leave
			// nc for the next catch-up so its own visit still happens.
			s -= cand.C
		}
		if s < 0 {
			return false
		}
		headroom = min(headroom, s)
		return true
	}
	for i := range ec.points {
		if ec.points[i].t > limit {
			break
		}
		if !visit(ec.points[i].t, ec.prefix[i]) {
			return 0, false
		}
	}
	if limit > ec.cover {
		// Committed step points past the cache coverage: a set near the
		// utilization ceiling drives the bound far past it. Rather than
		// materializing and sorting that tail (it can hold tens of
		// thousands of points), merge the tasks' ladders on the fly —
		// each ladder is ascending, and per-link task counts are small,
		// so an O(tasks) min-scan per point beats any sort.
		nx := sc.next[:0]
		for _, tk := range tasks {
			t := tk.D
			if ec.cover >= t {
				t += ((ec.cover-tk.D)/tk.T + 1) * tk.T
			}
			nx = append(nx, t)
		}
		sc.next = nx
		base := int64(0)
		if n := len(ec.prefix); n > 0 {
			base = ec.prefix[n-1]
		}
		for {
			mt := limit + 1
			for _, t := range nx {
				mt = min(mt, t)
			}
			if mt > limit {
				break
			}
			for i := range nx {
				if nx[i] == mt {
					base += tasks[i].C
					nx[i] += tasks[i].T
				}
			}
			if !visit(mt, base) {
				return 0, false
			}
		}
	}
	if !candTo(limit + 1) {
		return 0, false
	}
	return headroom, true
}

// failReport reproduces edfAnalyze's busy-period failure byte for byte:
// the violation reported is the first one in edfAnalyze's own iteration
// order (task slice order, then k ascending), which is not necessarily
// the earliest t. Called only after minSlack proved a violation exists,
// so the scan always finds one. Committed demand at t is read off the
// cache — the prefix at the last cached point ≤ t, found by a cursor
// that moves forward with each ascending ladder — and only past the
// coverage recomputed by demandAt.
func (ec *edfCache) failReport(tasks []task, cand task, limit int64, util float64) edfReport {
	for i := 0; i <= len(tasks); i++ {
		tk := cand
		if i < len(tasks) {
			tk = tasks[i]
		}
		cur := 0 // points[:cur] are the cached points ≤ t
		for t := tk.D; t <= limit; t += tk.T {
			var d int64
			if t <= ec.cover {
				for cur < len(ec.points) && ec.points[cur].t <= t {
					cur++
				}
				if cur > 0 {
					d = ec.prefix[cur-1]
				}
			} else {
				d = demandAt(tasks, t)
			}
			d += candContrib(cand, t)
			if slack := t - d; slack < 0 {
				return edfReport{test: "busy_period", util: util,
					at: t, demand: d, margin: float64(slack)}
			}
		}
	}
	// Unreachable: minSlack found a negative-slack point over the same
	// union of steps.
	return edfReport{test: "busy_period", util: util, margin: -1}
}

// committedReport analyzes the committed set alone off the cache,
// returning what edfAnalyze(tasks) would. Used by VerifyLedger's
// cross-check (cold path, so it brings a throwaway scratch).
func (ec *edfCache) committedReport(tasks []task) edfReport {
	if !ec.built || ec.degenerate || len(tasks) == 0 || ec.util > 1.0+1e-9 {
		return edfAnalyze(tasks)
	}
	headroom, ok := ec.minSlack(tasks, task{}, busyBoundFrom(ec.maxD, ec.sumC, ec.util), new(evalScratch))
	if !ok {
		// A committed set is feasible by construction; if one ever is
		// not, defer to the exact scan for the failure report.
		return edfAnalyze(tasks)
	}
	return edfReport{feasible: true, util: ec.util, headroom: headroom,
		margin: float64(headroom)}
}

// emptyLinkCache is the shared read-only cache for links with no
// reservations (a nil linkState); check on it never mutates.
var emptyLinkCache = func() *edfCache {
	ec := &edfCache{}
	ec.rebuild(nil)
	return ec
}()
