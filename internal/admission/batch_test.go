package admission

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/rtc"
)

// batchFamily generates the request families the admission campaign
// uses, scaled down for tests: uniform scatter, hotspot funnel into the
// mesh center, and transpose.
func batchFamily(name string, w, h, count int) []Request {
	n := w * h
	coord := func(i int) mesh.Coord { return mesh.Coord{X: i % w, Y: (i / w) % h} }
	reqs := make([]Request, 0, count)
	for i := 0; i < count; i++ {
		var src, dst mesh.Coord
		var spec rtc.Spec
		switch name {
		case "hotspot":
			src = coord((i*11 + 1) % n)
			dst = mesh.Coord{X: w / 2, Y: h / 2}
			spec = rtc.Spec{Imin: 24, Smax: 18, D: 96}
		case "transpose":
			src = coord(i % n)
			dst = mesh.Coord{X: src.Y % w, Y: src.X % h}
			spec = rtc.Spec{Imin: 16, Smax: 18, D: 64}
		default: // uniform
			src = coord((i*7 + 3) % n)
			dst = coord((i*13 + 5) % n)
			spec = rtc.Spec{Imin: 16, Smax: 18, D: 64}
		}
		if src == dst {
			continue
		}
		reqs = append(reqs, Request{Src: src, Dsts: []mesh.Coord{dst}, Spec: spec})
	}
	return reqs
}

// TestAdmitBatchIdentity is the PR's determinism contract: for each
// request family, the admitted set, the sealed capacity ledger, and the
// audit log must be byte-identical between the sequential Admit loop and
// AdmitBatch at workers 1, 2, and 4. Runs under -race in CI, so it also
// proves the speculative planners share no mutable state.
func TestAdmitBatchIdentity(t *testing.T) {
	defer func(n int) { batchChunkSize = n }(batchChunkSize)
	batchChunkSize = 32 // force many chunk boundaries and replans

	for _, family := range []string{"uniform", "hotspot", "transpose"} {
		reqs := batchFamily(family, 6, 6, 192)

		run := func(workers int) (*Controller, *obs.AuditLog, BatchResult) {
			n := mesh.MustNew(6, 6, router.DefaultConfig())
			c, err := New(n, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			aud := obs.NewAuditLog()
			c.AttachAudit(aud)
			var res BatchResult
			if workers == 0 { // plain sequential Admit loop
				res = BatchResult{Channels: make([]*Channel, len(reqs)), Errs: make([]error, len(reqs))}
				for i, r := range reqs {
					ch, err := c.Admit(r.Src, r.Dsts, r.Spec)
					res.note(i, ch, err)
				}
			} else {
				res = c.AdmitBatch(reqs, workers)
			}
			if err := c.VerifyLedger(); err != nil {
				t.Fatalf("%s workers=%d: %v", family, workers, err)
			}
			return c, aud, res
		}

		refC, refAud, refRes := run(0)
		refSeal, err := json.Marshal(refC.Seal())
		if err != nil {
			t.Fatal(err)
		}
		if refRes.Admitted == 0 || refRes.Rejected == 0 {
			t.Fatalf("%s: degenerate family (admitted=%d rejected=%d); identity check needs both outcomes",
				family, refRes.Admitted, refRes.Rejected)
		}

		for _, workers := range []int{1, 2, 4} {
			c, aud, res := run(workers)
			if res.Admitted != refRes.Admitted || res.Rejected != refRes.Rejected {
				t.Fatalf("%s workers=%d: admitted/rejected %d/%d, sequential %d/%d",
					family, workers, res.Admitted, res.Rejected, refRes.Admitted, refRes.Rejected)
			}
			for i := range reqs {
				rch, ch := refRes.Channels[i], res.Channels[i]
				if (rch == nil) != (ch == nil) {
					t.Fatalf("%s workers=%d req %d: outcome differs from sequential", family, workers, i)
				}
				if rch == nil {
					if res.Errs[i].Error() != refRes.Errs[i].Error() {
						t.Fatalf("%s workers=%d req %d: rejection %q, sequential %q",
							family, workers, i, res.Errs[i], refRes.Errs[i])
					}
					continue
				}
				if ch.ID != rch.ID || ch.Margin != rch.Margin || ch.LocalD != rch.LocalD ||
					ch.SrcConn != rch.SrcConn || ch.Route() != rch.Route() {
					t.Fatalf("%s workers=%d req %d: channel %+v, sequential %+v",
						family, workers, i, ch, rch)
				}
			}
			seal, err := json.Marshal(c.Seal())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(seal, refSeal) {
				t.Fatalf("%s workers=%d: sealed ledger differs from sequential", family, workers)
			}
			if aud.Len() != refAud.Len() || aud.DumpHash() != refAud.DumpHash() {
				t.Fatalf("%s workers=%d: audit log differs from sequential (%d/%d records, hash %x vs %x)",
					family, workers, aud.Len(), refAud.Len(), aud.DumpHash(), refAud.DumpHash())
			}
			st := c.Stats()
			if st.Admits != int64(refRes.Admitted) || st.Rejects != int64(refRes.Rejected) {
				t.Fatalf("%s workers=%d: stats %d/%d, want %d/%d",
					family, workers, st.Admits, st.Rejects, refRes.Admitted, refRes.Rejected)
			}
		}
	}
}

// TestAdmitBatchChunkFootprint: a chunk's speculation already sees every
// earlier chunk's commits, so only commits made while finalizing the
// same chunk can stale a plan. Chunk 1 admits one channel per mesh row;
// chunk 2 repeats the requests — each footprint was touched by chunk 1
// alone, so none of them may be re-planned.
func TestAdmitBatchChunkFootprint(t *testing.T) {
	defer func(n int) { batchChunkSize = n }(batchChunkSize)
	batchChunkSize = 4

	var reqs []Request
	for chunk := 0; chunk < 2; chunk++ {
		for y := 0; y < 4; y++ {
			reqs = append(reqs, Request{Src: mesh.Coord{X: 0, Y: y}, Dsts: []mesh.Coord{{X: 3, Y: y}},
				Spec: rtc.Spec{Imin: 16, Smax: 18, D: 64}})
		}
	}
	c, err := New(mesh.MustNew(4, 4, router.DefaultConfig()), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := c.AdmitBatch(reqs, 2)
	if res.Admitted != len(reqs) {
		t.Fatalf("admitted %d of %d row channels: %v", res.Admitted, len(reqs), res.Errs)
	}
	if res.Replans != 0 || c.Stats().BatchReplans != 0 {
		t.Fatalf("replans = %d (stats %d): chunk 2 re-planned requests only chunk 1 had touched",
			res.Replans, c.Stats().BatchReplans)
	}
	if err := c.VerifyLedger(); err != nil {
		t.Fatal(err)
	}
}

// TestAdmitBatchEmptyAndSingle covers the degenerate shapes: an empty
// batch and a batch smaller than the worker count.
func TestAdmitBatchEmptyAndSingle(t *testing.T) {
	n := mesh.MustNew(3, 3, router.DefaultConfig())
	c, err := New(n, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res := c.AdmitBatch(nil, 4); res.Admitted != 0 || res.Rejected != 0 {
		t.Fatalf("empty batch reported %d/%d", res.Admitted, res.Rejected)
	}
	one := []Request{{Src: mesh.Coord{X: 0, Y: 0}, Dsts: []mesh.Coord{{X: 2, Y: 1}},
		Spec: rtc.Spec{Imin: 16, Smax: 18, D: 64}}}
	res := c.AdmitBatch(one, 8)
	if res.Admitted != 1 || res.Channels[0] == nil {
		t.Fatalf("single-request batch: %+v, err=%v", res, res.Errs[0])
	}
	if err := c.VerifyLedger(); err != nil {
		t.Fatal(err)
	}
}

// TestAdmitAllocs is the hot-path alloc gate: a steady-state
// admit/teardown cycle on a warm controller allocates exactly what an
// admitted channel is made of — the Channel, its Dsts and DstConn
// slices, and its copy of the hop records: four objects, none per route,
// link check or cached point. The ceiling leaves four for a map bucket
// or a slice regrowing mid-run.
func TestAdmitAllocs(t *testing.T) {
	n := mesh.MustNew(8, 8, router.DefaultConfig())
	c, err := New(n, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Background load so link caches and id maps are warm and non-empty.
	for _, r := range batchFamily("uniform", 8, 8, 48) {
		c.Admit(r.Src, r.Dsts, r.Spec)
	}
	src, dst := mesh.Coord{X: 1, Y: 2}, mesh.Coord{X: 6, Y: 5}
	spec := rtc.Spec{Imin: 32, Smax: 18, D: 96}
	dsts := []mesh.Coord{dst}
	if ch, err := c.Admit(src, dsts, spec); err != nil {
		t.Fatalf("probe admission rejected: %v", err)
	} else if err := c.Teardown(ch); err != nil {
		t.Fatal(err)
	}
	const ceiling = 8.0
	got := testing.AllocsPerRun(200, func() {
		ch, err := c.Admit(src, dsts, spec)
		if err != nil {
			t.Fatalf("admit: %v", err)
		}
		if err := c.Teardown(ch); err != nil {
			t.Fatalf("teardown: %v", err)
		}
	})
	if got > ceiling {
		t.Fatalf("admit+teardown allocates %.1f objects, ceiling %.0f", got, ceiling)
	}

	// Multicast leg: the same walk, so a four-leaf tree allocates the same
	// four objects — no map, no per-router node.
	src, dsts = mesh.Coord{X: 1, Y: 1}, []mesh.Coord{{X: 6, Y: 1}, {X: 6, Y: 6}, {X: 1, Y: 6}, {X: 3, Y: 4}}
	spec = rtc.Spec{Imin: 32, Smax: 18, D: 120}
	const multicastCeiling = 12.0
	plan := testing.AllocsPerRun(200, func() {
		if _, err := c.plan(src, dsts, spec, &c.sc); err != nil {
			t.Fatalf("multicast plan: %v", err)
		}
	})
	cycle := testing.AllocsPerRun(200, func() {
		ch, err := c.Admit(src, dsts, spec)
		if err != nil {
			t.Fatalf("multicast admit: %v", err)
		}
		if err := c.Teardown(ch); err != nil {
			t.Fatalf("multicast teardown: %v", err)
		}
	})
	t.Logf("multicast: %.1f allocs per plan, %.1f per admit+teardown", plan, cycle)
	if plan > multicastCeiling || cycle > multicastCeiling {
		t.Fatalf("multicast plan allocates %.1f objects and admit+teardown %.1f, ceiling %.0f", plan, cycle, multicastCeiling)
	}
}

// BenchmarkAdmit measures one warm-path admit+teardown cycle on a loaded
// 16x16 mesh.
func BenchmarkAdmit(b *testing.B) {
	n := mesh.MustNew(16, 16, router.DefaultConfig())
	c, err := New(n, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range batchFamily("uniform", 16, 16, 512) {
		c.Admit(r.Src, r.Dsts, r.Spec)
	}
	src, dst := mesh.Coord{X: 2, Y: 3}, mesh.Coord{X: 13, Y: 11}
	spec := rtc.Spec{Imin: 48, Smax: 18, D: 128}
	dsts := []mesh.Coord{dst}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, err := c.Admit(src, dsts, spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Teardown(ch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmitBatch measures batch throughput end to end: a fresh
// controller per iteration admitting a 2048-request uniform family.
func BenchmarkAdmitBatch(b *testing.B) {
	reqs := batchFamily("uniform", 16, 16, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n := mesh.MustNew(16, 16, router.DefaultConfig())
		c, err := New(n, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res := c.AdmitBatch(reqs, 4)
		if res.Admitted == 0 {
			b.Fatal("batch admitted nothing")
		}
	}
}

// mixedRequests is batchFamily's uniform scatter with the contract
// varied per request — four (Imin, Smax) pairs, the last a two-packet
// message, and a deadline that grows with the route — so per-link task
// sets mix periods and per-hop deadlines the way a real fill does.
func mixedRequests(w, h, count int) []Request {
	contracts := [...]struct {
		imin int64
		smax int
	}{{16, 18}, {24, 18}, {48, 18}, {32, 36}}
	reqs := batchFamily("uniform", w, h, count)
	for i := range reqs {
		r := &reqs[i]
		c := contracts[i%len(contracts)]
		hops := abs(r.Dsts[0].X-r.Src.X) + abs(r.Dsts[0].Y-r.Src.Y) + 1
		r.Spec = rtc.Spec{Imin: c.imin, Smax: c.smax, D: int64(12*hops + 16)}
	}
	return reqs
}

// BenchmarkAdmitFill measures the filling phase: a fresh 16x16
// controller per iteration (the mesh itself is built off the clock)
// taking 1500 mixed-contract requests, most of them accepted — every
// accept commits, mutates the per-link EDF caches and programs routers.
func BenchmarkAdmitFill(b *testing.B) {
	reqs := mixedRequests(16, 16, 1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n := mesh.MustNew(16, 16, router.DefaultConfig())
		b.StartTimer()
		c, err := New(n, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		admitted := 0
		for _, r := range reqs {
			if _, err := c.Admit(r.Src, r.Dsts, r.Spec); err == nil {
				admitted++
			}
		}
		if admitted < len(reqs)/2 {
			b.Fatalf("fill admitted %d of %d: not a filling workload", admitted, len(reqs))
		}
	}
	b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "requests/s")
}

// BenchmarkAdmitChurn measures the saturated steady state: each
// iteration tears down one live channel and offers three further
// requests, so every step invalidates what the read-mostly memos hold.
func BenchmarkAdmitChurn(b *testing.B) {
	n := mesh.MustNew(16, 16, router.DefaultConfig())
	c, err := New(n, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	reqs := mixedRequests(16, 16, 1<<15)
	var live []*Channel
	next := 0
	offer := func() {
		r := reqs[next%len(reqs)]
		next++
		if ch, err := c.Admit(r.Src, r.Dsts, r.Spec); err == nil {
			live = append(live, ch)
		}
	}
	for next < 12000 {
		offer()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pick := (i * 7919) % len(live)
		ch := live[pick]
		live[pick] = live[len(live)-1]
		live = live[:len(live)-1]
		if err := c.Teardown(ch); err != nil {
			b.Fatal(err)
		}
		for a := 0; a < 3; a++ {
			offer()
		}
	}
	b.StopTimer()
	if err := c.VerifyLedger(); err != nil {
		b.Fatal(err)
	}
}
