package admission

import (
	"sync"
	"sync/atomic"

	"repro/internal/mesh"
	"repro/internal/router"
	"repro/internal/rtc"
)

// Request is one channel-establishment request for AdmitBatch.
type Request struct {
	Src  mesh.Coord
	Dsts []mesh.Coord
	Spec rtc.Spec
}

// BatchResult reports a batch admission outcome per request, in request
// order: exactly one of Channels[i], Errs[i] is non-nil.
type BatchResult struct {
	Channels []*Channel
	Errs     []error
	Admitted int
	Rejected int
	// Replans counts requests whose speculative plan was invalidated by
	// an earlier commit in the same chunk and re-ran serially.
	Replans int
}

// batchChunkSize is how many requests AdmitBatch speculates on per
// round. Larger chunks amortize worker handoff; smaller chunks shrink
// the window in which commits invalidate speculative plans. A var so
// tests can force heavy conflict traffic.
var batchChunkSize = 1024

// AdmitBatch admits a slice of requests with the exact same outcomes,
// ledger state, decision counters, and audit trail as calling Admit on
// each in order — at any worker count. It works in chunks: workers plan
// requests speculatively (read-only, against the state as of the chunk
// start), then a serial pass finalizes them in request order. A
// speculative outcome is reused only when no earlier commit touched any
// node the request's planning could have consulted (its link, buffer,
// and identifier state are all node-keyed); otherwise the request is
// re-planned serially, which is always correct and merely slower.
//
// workers ≤ 1 (or Reference mode) runs the plain sequential loop.
func (c *Controller) AdmitBatch(reqs []Request, workers int) BatchResult {
	res := BatchResult{
		Channels: make([]*Channel, len(reqs)),
		Errs:     make([]error, len(reqs)),
	}
	c.stats.batchRequests.Add(int64(len(reqs)))
	if workers > len(reqs) {
		workers = len(reqs)
	}
	if workers <= 1 || c.cfg.Reference {
		for i := range reqs {
			r := &reqs[i]
			ch, err := c.Admit(r.Src, r.Dsts, r.Spec)
			res.note(i, ch, err)
		}
		return res
	}

	words := (c.net.W*c.net.H + 63) / 64
	dirty := make([]uint64, words)
	specs := make([]specPlan, batchChunkSize)
	for base := 0; base < len(reqs); base += batchChunkSize {
		end := base + batchChunkSize
		if end > len(reqs) {
			end = len(reqs)
		}
		n := end - base
		c.stats.batchChunks.Add(1)
		// This chunk's speculation sees every earlier chunk's commits, so
		// only commits made while finalizing it can stale a plan.
		clear(dirty)

		// Speculation: workers race down the chunk planning read-only.
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var sc evalScratch
				for {
					i := int(cursor.Add(1)) - 1
					if i >= n {
						return
					}
					r := &reqs[base+i]
					sp := &specs[i]
					sp.fp = c.footprint(sp.fp[:0], r.Src, r.Dsts)
					sp.plan, sp.err = c.plan(r.Src, r.Dsts, r.Spec, &sc)
				}
			}()
		}
		wg.Wait()

		// Finalize: strict request order, so ids, channel numbers, audit
		// sequence, and every tie-break match the sequential loop.
		for i := 0; i < n; i++ {
			r := &reqs[base+i]
			sp := &specs[i]
			var ch *Channel
			var err error
			switch {
			case intersects(dirty, sp.fp):
				// An earlier commit touched this request's footprint; its
				// speculative answer may be stale either way. Re-run the
				// whole decision against current state.
				c.stats.batchReplans.Add(1)
				res.Replans++
				ch, err = c.admit(r.Src, r.Dsts, r.Spec)
			case sp.err != nil:
				err = sp.err
			default:
				ch, err = c.commitPlan(sp.plan)
			}
			if ch != nil {
				// Only successful commits mutate reservation state (a
				// failed commit unwinds verbatim), and they mutate only
				// nodes inside the request's own footprint.
				orBits(dirty, sp.fp, words)
			}
			c.recordAdmit("admit", r.Src, r.Dsts, r.Spec, ch, err)
			res.note(base+i, ch, err)
		}
	}
	return res
}

func (r *BatchResult) note(i int, ch *Channel, err error) {
	r.Channels[i], r.Errs[i] = ch, err
	if err != nil {
		r.Rejected++
	} else {
		r.Admitted++
	}
}

// specPlan is one request's speculative outcome plus the node bitset its
// planning could have consulted.
type specPlan struct {
	plan *Channel
	err  error
	fp   []uint64
}

// footprint appends the node-index bitset covering every router whose
// state planning src→dsts may read or commit may write: the XY route
// tree, plus the YX path when the unicast fallback applies. Requests the
// validator rejects before touching the mesh get an empty (always-clean)
// footprint, which is correct because their outcome is state-independent.
func (c *Controller) footprint(fp []uint64, src mesh.Coord, dsts []mesh.Coord) []uint64 {
	words := (c.net.W*c.net.H + 63) / 64
	for len(fp) < words {
		fp = append(fp, 0)
	}
	if !c.net.Contains(src) {
		return fp
	}
	mark := func(co mesh.Coord) {
		idx := c.net.Shard(co)
		fp[idx>>6] |= 1 << (uint(idx) & 63)
	}
	walk := func(order routeOrder, dst mesh.Coord) {
		at := src
		mark(at)
		for _, p := range order.appendRoute(nil, src, dst) {
			if p != router.PortLocal {
				at = at.Add(p)
				mark(at)
			}
		}
	}
	for _, dst := range dsts {
		if !c.net.Contains(dst) {
			return fp
		}
		walk(xyOrder, dst)
	}
	if len(dsts) == 1 && src.X != dsts[0].X && src.Y != dsts[0].Y {
		walk(yxOrder, dsts[0])
	}
	return fp
}

func intersects(dirty, fp []uint64) bool {
	for i := range fp {
		if dirty[i]&fp[i] != 0 {
			return true
		}
	}
	return false
}

func orBits(dirty, fp []uint64, words int) {
	for i := 0; i < words; i++ {
		dirty[i] |= fp[i]
	}
}
