package admission

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/router"
)

// Seal builds an immutable capacity snapshot of the reservation ledger
// and publishes it as the controller's sealed state, returning it. The
// build is fully deterministic: links are ordered by (node, port), and
// per-link float sums run over tasks sorted by channel id, so two
// ledgers holding the same reservations render byte-identically no
// matter what admit/teardown/reroute history produced them.
//
// Seal is a host-side control-plane call (like Admit); the published
// pointer is what concurrent scrapers read via Sealed.
func (c *Controller) Seal() *metrics.CapacitySnapshot {
	snap := c.buildSnapshot()
	c.sealed.Store(snap)
	return snap
}

// Sealed returns the last snapshot published by Seal, nil before the
// first seal. This is the PR-6 scrape-safety contract: a live HTTP
// scrape observes only explicitly published ledger states, never a
// half-updated one. Wire it with metrics.Registry.SetCapacitySource.
func (c *Controller) Sealed() *metrics.CapacitySnapshot {
	return c.sealed.Load()
}

func (c *Controller) buildSnapshot() *metrics.CapacitySnapshot {
	snap := &metrics.CapacitySnapshot{Channels: len(c.chans)}
	// The dense link table ascends in (node.Y, node.X, port) order with
	// inject first — already the snapshot's publish order, no sort needed.
	keys := make([]linkKey, 0, 64)
	for i, ls := range c.links {
		if ls != nil && len(ls.tasks) > 0 {
			keys = append(keys, c.linkKeyAt(i))
		}
	}
	minHead := int64(-1)
	for _, k := range keys {
		tasks := append([]task(nil), c.linkAt(k).tasks...)
		sort.Slice(tasks, func(i, j int) bool { return tasks[i].chanID < tasks[j].chanID })
		rep := edfAnalyze(tasks)
		var reserved int64
		worst := int64(math.MaxInt64)
		for _, tk := range tasks {
			reserved += tk.C
			if ch := c.chans[tk.chanID]; ch != nil && ch.Margin < worst {
				worst = ch.Margin
			}
		}
		if worst == math.MaxInt64 {
			worst = 0
		}
		port := "inject"
		if k.port != portInject {
			port = router.PortName(k.port)
		}
		lc := metrics.LinkCapacity{
			Link: k.String(), NodeX: k.node.X, NodeY: k.node.Y, Port: port,
			Channels: len(tasks), Utilization: rep.util,
			ReservedSlots: reserved, HeadroomSlots: rep.headroom,
			WorstMarginSlots: worst,
		}
		snap.Links = append(snap.Links, lc)
		if lc.Utilization > snap.WorstUtilization {
			snap.WorstUtilization = lc.Utilization
			snap.WorstLink = lc.Link
		}
		if minHead < 0 || lc.HeadroomSlots < minHead {
			minHead = lc.HeadroomSlots
		}
	}
	if minHead >= 0 {
		snap.MinHeadroomSlots = minHead
	}
	for _, coord := range c.net.Coords() {
		ns := c.node(coord)
		used := ns.usedIDs.n()
		if ns.total == 0 && used == 0 {
			continue
		}
		cfg := c.net.Router(coord).Config()
		nc := metrics.NodeCapacity{
			Node: coord.String(), BuffersUsed: ns.total, BuffersLimit: cfg.Slots,
			ConnsUsed: used, ConnsLimit: cfg.Conns,
		}
		for p := 0; p < router.NumPorts; p++ {
			if ns.portBuffers[p] != 0 {
				if nc.PortBuffers == nil {
					nc.PortBuffers = make(map[string]int)
				}
				nc.PortBuffers[router.PortName(p)] = ns.portBuffers[p]
			}
		}
		snap.Nodes = append(snap.Nodes, nc)
	}
	return snap
}

// VerifyLedger checks the conservation invariant: the per-link task
// lists, per-node buffer debits, and identifier reservations must equal
// exactly the sum of the active channels' recorded reservations —
// nothing leaked on teardown, nothing double-counted on restore. It
// returns nil or the first discrepancy found.
func (c *Controller) VerifyLedger() error {
	type nodeWant struct {
		ports [router.NumPorts]int
		total int
		ids   idSet
	}
	wantLink := make(map[linkKey]map[int]task)
	want := make(map[mesh.Coord]*nodeWant)
	reserve := func(k linkKey, tk task) {
		m := wantLink[k]
		if m == nil {
			m = make(map[int]task)
			wantLink[k] = m
		}
		m[tk.chanID] = tk
	}
	getNode := func(co mesh.Coord) *nodeWant {
		n := want[co]
		if n == nil {
			n = &nodeWant{}
			want[co] = n
		}
		return n
	}
	for id, ch := range c.chans {
		if id != ch.ID {
			return fmt.Errorf("admission: ledger: channel %d keyed as %d", ch.ID, id)
		}
		// Per-hop deadlines: each hop's link tasks carry that hop's d
		// (uniform LocalD for default channels, DSplit[j] for layout
		// ones); the injection pseudo-link carries the source hop's.
		tk := task{C: ch.Spec.MessageSlots(), T: ch.Spec.Imin, D: ch.hops[0].d, chanID: ch.ID}
		reserve(linkKey{ch.Src, portInject}, tk)
		for _, h := range ch.hops {
			n := getNode(h.node)
			n.total += h.buffers
			n.ids.add(h.inConn)
			if h.mask.Has(router.PortLocal) {
				n.ids.add(h.outConn)
			}
			tk.D = h.d
			for p := 0; p < router.NumPorts; p++ {
				if !h.mask.Has(p) {
					continue
				}
				n.ports[p] += h.buffers
				reserve(linkKey{h.node, p}, tk)
			}
		}
	}
	for i, ls := range c.links {
		if ls == nil {
			continue
		}
		k := c.linkKeyAt(i)
		seen := make(map[int]bool, len(ls.tasks))
		for _, tk := range ls.tasks {
			w, ok := wantLink[k][tk.chanID]
			if !ok {
				return fmt.Errorf("admission: ledger: link %s carries a task for channel %d with no matching reservation", k, tk.chanID)
			}
			if seen[tk.chanID] {
				return fmt.Errorf("admission: ledger: link %s counts channel %d twice", k, tk.chanID)
			}
			seen[tk.chanID] = true
			if w != tk {
				return fmt.Errorf("admission: ledger: link %s channel %d holds task %+v, reservations say %+v", k, tk.chanID, tk, w)
			}
		}
		if len(seen) != len(wantLink[k]) {
			return fmt.Errorf("admission: ledger: link %s holds %d tasks, reservations say %d", k, len(seen), len(wantLink[k]))
		}
	}
	for k, m := range wantLink {
		if ls := c.linkAt(k); len(m) > 0 && (ls == nil || len(ls.tasks) == 0) {
			return fmt.Errorf("admission: ledger: link %s reservation missing from the ledger", k)
		}
	}
	for i, ns := range c.nodes {
		co := mesh.Coord{X: i % c.net.W, Y: i / c.net.W}
		var wantTotal int
		var wantPorts [router.NumPorts]int
		var wantIDs idSet
		if w := want[co]; w != nil {
			wantTotal, wantPorts, wantIDs = w.total, w.ports, w.ids
		}
		if ns.total != wantTotal {
			return fmt.Errorf("admission: ledger: %s buffer total %d, reservations say %d", co, ns.total, wantTotal)
		}
		if ns.portBuffers != wantPorts {
			return fmt.Errorf("admission: ledger: %s port buffers %v, reservations say %v", co, ns.portBuffers, wantPorts)
		}
		if ns.usedIDs.n() != wantIDs.n() {
			return fmt.Errorf("admission: ledger: %s holds %d connection ids, reservations say %d", co, ns.usedIDs.n(), wantIDs.n())
		}
		for w := range wantIDs {
			if missing := wantIDs[w] &^ ns.usedIDs[w]; missing != 0 {
				return fmt.Errorf("admission: ledger: %s id %d reserved by a channel but not held", co, w<<6+bits.TrailingZeros64(missing))
			}
		}
	}
	for i, ls := range c.links {
		if ls == nil {
			continue
		}
		if err := c.verifyCache(c.linkKeyAt(i), ls); err != nil {
			return err
		}
	}
	return nil
}

// verifyCache cross-checks one link's incremental EDF cache against a
// from-scratch recompute: scalars bit-exact (including the float
// utilization sum), the demand array, bitmap, point count and total
// exactly a fresh lay of the committed tasks over the cache's coverage,
// and the committed analysis verdict identical to edfAnalyze's.
func (c *Controller) verifyCache(k linkKey, ls *linkState) error {
	ec := &ls.cache
	if c.cfg.Reference {
		if ec.built {
			return fmt.Errorf("admission: ledger: link %s built an EDF cache in reference mode", k)
		}
		return nil
	}
	if !ec.built {
		return fmt.Errorf("admission: ledger: link %s has no built EDF cache", k)
	}
	if ec.degenerate {
		return fmt.Errorf("admission: ledger: link %s EDF cache degenerate (invalid committed task)", k)
	}
	var sumC int64
	var util float64
	var maxD int64
	for _, tk := range ls.tasks {
		if !validTask(tk) {
			return fmt.Errorf("admission: ledger: link %s committed invalid task %+v", k, tk)
		}
		sumC += tk.C
		util += float64(tk.C) / float64(tk.T)
		if tk.D > maxD {
			maxD = tk.D
		}
	}
	if ec.sumC != sumC {
		return fmt.Errorf("admission: ledger: link %s cache ΣC %d, tasks say %d", k, ec.sumC, sumC)
	}
	if ec.util != util {
		return fmt.Errorf("admission: ledger: link %s cache utilization %v, tasks say %v (bit-exact sum required)", k, ec.util, util)
	}
	if ec.maxD != maxD {
		return fmt.Errorf("admission: ledger: link %s cache maxD %d, tasks say %d", k, ec.maxD, maxD)
	}
	if want := busyBoundFrom(maxD, sumC, util); ec.cover < want && ec.cover < coverCap {
		return fmt.Errorf("admission: ledger: link %s cache covers (0,%d], committed busy-period bound is %d (cap %d)", k, ec.cover, want, coverCap)
	}
	if err := ec.sameLayout(ls.tasks); err != nil {
		return fmt.Errorf("admission: ledger: link %s %v", k, err)
	}
	if got, ref := ec.committedReport(ls.tasks), edfAnalyze(ls.tasks); got != ref {
		return fmt.Errorf("admission: ledger: link %s cached analysis %+v, edfAnalyze says %+v", k, got, ref)
	}
	return nil
}

// sameLayout compares the cache's demand layout with a fresh lay of the
// committed tasks over the same coverage, returning the first difference.
func (ec *edfCache) sameLayout(tasks []task) error {
	var want edfCache
	want.extend(ec.cover)
	for _, tk := range tasks {
		want.lay(tk, 0, ec.cover, 1)
	}
	if len(ec.w) != len(want.w) || len(ec.set) != len(want.set) {
		return fmt.Errorf("cache holds %d slots in %d bitmap words, coverage (0,%d] needs %d in %d",
			len(ec.w), len(ec.set), ec.cover, len(want.w), len(want.set))
	}
	for t := range want.w {
		if ec.w[t] != want.w[t] {
			return fmt.Errorf("cache demand at t=%d is %d, tasks say %d", t, ec.w[t], want.w[t])
		}
	}
	if !slices.Equal(ec.set, want.set) {
		return fmt.Errorf("cache occupancy bitmap disagrees with its demand array")
	}
	if ec.n != want.n || ec.total != want.total {
		return fmt.Errorf("cache counts %d points summing to %d, tasks say %d summing to %d", ec.n, ec.total, want.n, want.total)
	}
	return nil
}
