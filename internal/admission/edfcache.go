package admission

import (
	"math/bits"
	"slices"
	"sync/atomic"
)

// Incremental EDF analysis. edfAnalyze re-enumerates every step point of
// every committed task on every check, which makes admission cost grow
// superlinearly with admitted channels. The edfCache keeps, per link, the
// committed task set's demand laid out by time slot — w[t] is the demand
// that falls due exactly at t, the sum of C over the tasks with a step
// t = D_i + k·T_i there — beside a bitmap of the occupied slots, so
// checking a candidate walks the committed step points in ascending t with
// dbf(t) as a running sum: O(cached points + candidate's own steps)
// instead of O(points × tasks). A commit or teardown adds or subtracts C
// at its own task's steps and touches no other slot.
//
// The cache is bound by the byte-identity contract: for any committed set
// and candidate, check() must return exactly the edfReport that
// edfAnalyze(append(tasks, cand)) would — same verdict, same headroom,
// same failing step point, and a bitwise-equal utilization float. That
// last part dictates the update discipline: util is a float sum in task-
// slice order, so removals re-sum the survivors in order rather than
// subtracting (float subtraction does not invert float addition).
//
// check() is read-only on the cache, so a rejected or probed candidate
// leaves nothing behind; all mutation happens in addTask/removeTask,
// called only from the commit/teardown paths.

// evalScratch holds the scratch buffers a check needs, so the hot path
// allocates nothing. The controller owns one (Controller.sc).
type evalScratch struct {
	next  []int64 // per-task next release, for minSlack's walk past the coverage
	dbf   []int64 // failReport's committed dbf(t) over the coverage
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
	// hyperOf and hyperEpoch name the committed set whose hyperperiod
	// (hyperH, hyperD) was last folded (see hyperCut). The pair lives
	// here, not on the cache: emptyLinkCache is shared across
	// controllers, and a check never writes to a cache.
	hyperOf        *edfCache
	hyperEpoch     uint64
	hyperH, hyperD int64
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
	// w[t] is the committed demand due exactly at t, for t in (0, cover]
	// (w[0] is unused). Bit t of set is on iff w[t] > 0, n counts those
	// slots and total is their sum, dbf(cover). cover is kept ahead of the
	// committed busy-period bound so candidate checks, whose bound is
	// necessarily larger, usually stay inside the cache.
	//
	// int32 is enough: only steps t ≤ cover ≤ coverCap are laid, and a
	// task's C ≤ D ≤ t, so each contributes at most 2¹²; at most Conns ≤
	// 256 channels share a link (each holds one of the downstream router's
	// 8-bit ids), so w[t] ≤ 2²⁰ (TestEDFCacheDifferential lays that case).
	cover int64
	w     []int32
	set   []uint64
	n     int
	total int64
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
// bound explodes toward maxAnalysisHorizon, and laying demand that far
// makes every commit and teardown O(horizon / T) and every link's array
// 2¹⁶ slots — while candidate checks rarely reach that deep (a rejection
// stops at its first violated step point). Beyond the cap, check and
// committedReport merge the committed ladders on the fly instead — an
// O(tasks) min-scan per point.
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

// lay adds sign·C at every step t = D + k·T of tk with lo < t ≤ hi
// (hi ≤ cover), keeping the bitmap, point count and total in step. A
// removal (sign −1) clears the bit of a slot it empties, so no stale
// point can surface a slack value edfAnalyze never evaluates.
func (ec *edfCache) lay(tk task, lo, hi int64, sign int32) {
	t := tk.D
	if lo >= tk.D {
		t += ((lo-tk.D)/tk.T + 1) * tk.T
	}
	c := sign * int32(tk.C)
	for ; t <= hi; t += tk.T {
		was := ec.w[t]
		ec.w[t] = was + c
		if was == 0 || was+c == 0 {
			ec.set[t>>6] ^= 1 << (t & 63)
			ec.n += int(sign)
		}
		ec.total += int64(c)
	}
}

// extend grows the coverage to (0, cover] with the new slots empty; the
// caller lays the committed steps that fall in them.
func (ec *edfCache) extend(cover int64) {
	ec.w = append(ec.w, make([]int32, cover+1-int64(len(ec.w)))...)
	ec.set = append(ec.set, make([]uint64, int(cover>>6)+1-len(ec.set))...)
	ec.cover = cover
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
	ec.cover, ec.w, ec.set, ec.n, ec.total = 0, ec.w[:0], ec.set[:0], 0, 0
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
	ec.extend(coverFor(busyBoundFrom(ec.maxD, ec.sumC, ec.util)))
	for _, tk := range tasks {
		ec.lay(tk, 0, ec.cover, 1)
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
	// and then jump to double the bound (coverFor): growing geometrically,
	// the way a slice's appends do, lays each survivor's steps into a new
	// slot range once per doubling rather than on every admit as the
	// bound creeps upward.
	if need := busyBoundFrom(ec.maxD, ec.sumC, ec.util); need > ec.cover && ec.cover < coverCap {
		old := ec.cover
		ec.extend(coverFor(need))
		for _, s := range tasks[:len(tasks)-1] {
			ec.lay(s, old, ec.cover, 1)
		}
	}
	ec.lay(tk, 0, ec.cover, 1)
}

// removeTask updates the cache after tk was removed from the committed
// set; tasks is the post-removal slice. The coverage stays: removal only
// ever shrinks the committed bound.
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
	ec.lay(tk, 0, ec.cover, -1)
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

// memoWorth is the committed-set size, in occupied slots (n), up to which
// check skips the table for a walk that stays inside the coverage:
// walking that few points costs less than the probe — a cold cache line
// or two — and the store after a miss, which is all a filling or churning
// controller ever gets out of the memo on its lightly loaded links. The
// saturated links a rejection storm re-checks hold hundreds of points.
// (32 / 64 / 128 measured on the bitmap walk: 32 loses on all three
// ledger admission workloads, 128 gains 4–5 % on fill and churn but loses
// 8 % on storm; DESIGN §8.) A candidate whose busy bound, after the
// hyperperiod cut, passes the coverage always goes to the table, however
// few points the link holds: near utilization 1 the bound runs to
// thousands of slots (maxAnalysisHorizon where the cut does not apply),
// and the walk merges that many ladder points past the coverage.
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
// memo. The validity, utilization and busy-bound tests cost a few
// scalar operations and run on every call; the verdict table only keys
// the step-point walk behind them, and only when that walk is long (see
// memoWorth).
func (ec *edfCache) check(tasks []task, cand task, sc *evalScratch) edfReport {
	if !ec.built || ec.degenerate {
		sc.tasks = append(append(sc.tasks[:0], tasks...), cand)
		return edfAnalyze(sc.tasks)
	}
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
	maxD := max(ec.maxD, cand.D)
	limit := busyBoundFrom(maxD, sumC, util)
	if limit > ec.cover {
		limit = sc.cut(ec, tasks, cand, maxD, limit)
	}
	memo := ec.n > memoWorth || limit > ec.cover
	key := checkKey{ec, ec.epoch, cand.C, cand.T, cand.D}
	if memo {
		if rep := sc.lookup(key); rep != nil {
			return *rep
		}
	}
	var rep edfReport
	if headroom, ok := ec.minSlack(tasks, cand, limit, sc); ok {
		rep = edfReport{feasible: true, util: util, headroom: headroom,
			margin: float64(headroom)}
	} else {
		rep = ec.failReport(tasks, cand, limit, util, sc)
	}
	if memo {
		sc.remember(key, rep)
	}
	return rep
}

// cut applies hyperCut to a check of cand against ec's committed set,
// folding the set's hyperperiod into the scratch once per (cache, epoch).
// It stays out of line: inlined into check, its body made check's common
// path, which never gets here, 5 ns slower (BenchmarkLinkCheckCached,
// 35 → 40 ns a check).
func (sc *evalScratch) cut(ec *edfCache, tasks []task, cand task, maxD, limit int64) int64 {
	if sc.hyperOf != ec || sc.hyperEpoch != ec.epoch {
		sc.hyperOf, sc.hyperEpoch = ec, ec.epoch
		sc.hyperH, sc.hyperD = hyperperiod(tasks)
	}
	h, dh := hyperFold(sc.hyperH, sc.hyperD, cand)
	return hyperCut(limit, maxD, h, dh)
}

// hyperperiod returns the hyperperiod H = lcm(T) of tasks and the demand
// D_H = Σ C·H/T each hyperperiod brings, or (0, 0) once H passes coverCap.
func hyperperiod(tasks []task) (h, dh int64) {
	h = 1
	for _, tk := range tasks {
		h, dh = hyperFold(h, dh, tk)
	}
	return h, dh
}

// hyperFold adds tk to a set of hyperperiod h and hyperperiod demand dh.
func hyperFold(h, dh int64, tk task) (int64, int64) {
	if h == 0 {
		return 0, 0
	}
	a, b := h, tk.T
	for b != 0 {
		a, b = b, a%b
	}
	nh := h / a * tk.T
	if nh > coverCap {
		return 0, 0
	}
	return nh, dh*(nh/h) + tk.C*(nh/tk.T)
}

// hyperCut shortens a busy-period bound at utilization exactly 1. There
// busyBoundFrom returns maxAnalysisHorizon, yet for t ≥ maxD every task's
// term of dbf is active, so dbf(t+H) = dbf(t) + D_H = dbf(t) + H and
// slack(t+H) = slack(t). Every step point t ≥ maxD+H has a twin t−H ≥
// maxD on the same ladder (H is a multiple of every period) with the same
// slack, so the minimum slack, and each ladder's first violation in
// edfAnalyze's order, lie below maxD+H. D_H == H decides utilization 1 in
// integers; h == 0 (a hyperperiod past coverCap) never cuts.
func hyperCut(limit, maxD, h, dh int64) int64 {
	if h != 0 && dh == h {
		return min(limit, maxD+h-1)
	}
	return limit
}

// minSlack walks the union of the committed set's and the candidate's
// step points ≤ limit in ascending t and returns the minimum slack
// t − dbf(t) over them — the same point set edfAnalyze visits, so the
// minimum is identical — or false at the first negative slack. A zero
// cand (C = 0) means no candidate: the committed set alone. Inside the
// coverage the committed points are the bitmap's set bits and dbf is a
// running sum of w over them; past it the running sum starts from total
// and follows the merged ladders. The candidate's own contribution is a
// running sum too — both walks ascend, so each candidate step adds one C
// instead of paying candContrib's division per point.
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
	dbf, lim := int64(0), min(limit, ec.cover)
	for i, word := range ec.set[:lim>>6+1] {
		for ; word != 0; word &= word - 1 {
			t := int64(i)<<6 | int64(bits.TrailingZeros64(word))
			if t > lim {
				break // only in the last word
			}
			dbf += int64(ec.w[t])
			if !visit(t, dbf) {
				return 0, false
			}
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
		base := ec.total
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
// so the scan always finds one. Inside the coverage the committed demand
// at t is read from dbf, w prefix-summed once per call into sc (one pass
// over the slots, where a running sum per ladder would walk them once per
// ladder). Only past the coverage is it recomputed by demandAt.
func (ec *edfCache) failReport(tasks []task, cand task, limit int64, util float64, sc *evalScratch) edfReport {
	lim := min(limit, ec.cover)
	dbf := slices.Grow(sc.dbf[:0], int(lim)+1)[:lim+1]
	var run int64
	for t, w := range ec.w[:lim+1] {
		run += int64(w)
		dbf[t] = run
	}
	sc.dbf = dbf
	for i := 0; i <= len(tasks); i++ {
		tk := cand
		if i < len(tasks) {
			tk = tasks[i]
		}
		for t := tk.D; t <= limit; t += tk.T {
			var d int64
			if t <= lim {
				d = dbf[t]
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
	limit := busyBoundFrom(ec.maxD, ec.sumC, ec.util)
	if limit > ec.cover {
		h, dh := hyperperiod(tasks)
		limit = hyperCut(limit, ec.maxD, h, dh)
	}
	headroom, ok := ec.minSlack(tasks, task{}, limit, new(evalScratch))
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
