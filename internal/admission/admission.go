// Package admission implements connection establishment for real-time
// channels (Sections 2 and 4.1 of the paper): route selection (including
// multicast trees), decomposition of the end-to-end delay bound into
// per-hop bounds, the per-link schedulability test, buffer reservation
// against the routers' shared packet memories, and programming of the
// router connection tables through their control interfaces.
//
// The paper deliberately relegates this machinery to protocol software —
// it is computationally intensive but not time-critical — and that is
// exactly where it lives here: the Controller runs outside the
// cycle-accurate simulation and only touches the chips through the same
// control writes a host processor would issue.
package admission

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/sched"
	"repro/internal/timing"
)

// BufferPolicy selects how a router's shared packet memory is accounted
// during reservation (Section 3.4).
type BufferPolicy int

const (
	// Partitioned divides the memory evenly among the five output
	// ports; a connection's reservation must fit its ports' partitions.
	// This keeps any one link from starving the others' admissibility.
	Partitioned BufferPolicy = iota
	// SharedPool draws all reservations from one pool, maximizing
	// admissibility for asymmetric loads at the cost of fairness.
	SharedPool
)

func (p BufferPolicy) String() string {
	if p == Partitioned {
		return "partitioned"
	}
	return "shared"
}

// Config parameterizes the controller.
type Config struct {
	// Policy is the packet-memory accounting mode.
	Policy BufferPolicy
	// SourceWindow is how many slots ahead of ℓ0 the source regulator
	// may inject; it plays the role of h+d of a hop "before" the source
	// router in the buffer bound.
	SourceWindow int64
	// Horizon is the horizon parameter programmed on every output port.
	Horizon uint32
	// Reference turns the admission caches off: every link check runs the
	// from-scratch edfAnalyze (no incremental EDF cache, so no verdict
	// memo). Planning is the one walk either way. A Reference controller
	// must make exactly the same decisions as a standard one (the fuzz
	// harness diffs them); it is the differential-testing oracle for the
	// caches and the baseline the admission campaign times them against.
	Reference bool
}

// DefaultConfig returns partitioned buffers, a modest source window and
// a zero horizon (the paper's conservative baseline).
func DefaultConfig() Config {
	return Config{Policy: Partitioned, SourceWindow: 8}
}

// Controller owns the reservation state of one mesh and admits or
// rejects real-time channels against it.
type Controller struct {
	net *mesh.Network
	cfg Config
	// links is a dense table indexed by linkIdx — the mesh is a full W×H
	// rectangle, so a slice beats a map on the admission hot path
	// (linkCheckIn runs once per route hop per plan attempt).
	links []*linkState
	nodes []*nodeState
	chans map[int]*Channel
	seq   int
	// linkNames and nodeNames hold every link's and node's rendered name
	// (dense, same indexing as links/nodes) for rejections and audit
	// records. Filled once by New, so a rejection stamps a name without
	// rendering one.
	linkNames []string
	nodeNames []string

	// audit, when attached, receives one record per control-plane
	// decision (see AttachAudit).
	audit *obs.AuditLog
	// sealed holds the last published capacity snapshot (see Seal in
	// ledger.go); atomic so a live HTTP scrape never races a seal.
	sealed atomic.Pointer[metrics.CapacitySnapshot]
	// sc is the evaluation scratch every plan and link check runs in:
	// admission runs on one thread, so one set of buffers (and one verdict
	// memo) serves every door.
	sc evalScratch
	// lastSpec/lastSpecStr memoize the last audit spec rendering: a mass
	// admission run replays one traffic contract thousands of times.
	lastSpec    rtc.Spec
	lastSpecStr string
	// stats counts control-plane decisions for telemetry (see Stats).
	stats admStats
}

// AttachAudit wires an audit log to receive every Admit, Teardown,
// restore and Reroute decision. Admission runs host-side between kernel
// runs, so no synchronization is needed; pass nil to detach.
func (c *Controller) AttachAudit(log *obs.AuditLog) { c.audit = log }

// portInject is the pseudo-port of a node's time-constrained injection
// link: one byte per cycle shared by every channel sourced there, EDF-
// ordered by the source regulator, and therefore subject to the same
// schedulability test as the mesh links.
const portInject = -1

type linkKey struct {
	node mesh.Coord
	port int
}

func (k linkKey) String() string {
	if k.port == portInject {
		return k.node.String() + "→inject"
	}
	return k.node.String() + "→" + router.PortName(k.port)
}

// task is one connection's demand on a link: C slots every T slots with
// relative deadline D.
type task struct {
	C, T, D int64
	chanID  int
}

// hopTask is the link task a hop with delay bound d reserves for
// channel id: one message of C = spec.MessageSlots() slots every Imin,
// due d slots after its logical arrival. Every site that checks,
// reserves or verifies a hop's demand builds it here.
func hopTask(spec rtc.Spec, d int64, id int) task {
	return task{C: spec.MessageSlots(), T: spec.Imin, D: d, chanID: id}
}

// DelayRange returns the legal range [lo, hi] of the delay bound d_j at
// hop j (0 = the source router) of a channel with contract spec sourced
// at src. It is the one statement of the rule: d_j covers the message's
// service time (lo, §2), and what the next hop can see early — the
// horizon plus d_j, and at the source also the source window plus d_0 —
// stays a valid delay, strictly inside half the clock range (§4.3), so
// hi is the largest d with ValidDelay(early + d). Both admission doors
// check their bounds against it, and the layout synthesizer reads it to
// keep its splits legal.
func (c *Controller) DelayRange(src mesh.Coord, spec rtc.Spec, j int) (lo, hi int64) {
	early := int64(c.cfg.Horizon)
	if j == 0 {
		early = max(early, c.cfg.SourceWindow)
	}
	return spec.MessageSlots(), int64(c.node(src).wheel.HalfRange()) - 1 - early
}

type linkState struct {
	tasks []task
	// cache is the incremental EDF digest of tasks (edfcache.go), kept
	// current by every commit/teardown/restore/unwind; unused (left
	// unbuilt) when the controller runs in Reference mode.
	cache edfCache
}

// idSet is a set of 8-bit connection identifiers, one bit each.
type idSet [4]uint64

func (s *idSet) has(id uint8) bool { return s[id>>6]&(1<<(id&63)) != 0 }
func (s *idSet) add(id uint8)      { s[id>>6] |= 1 << (id & 63) }
func (s *idSet) del(id uint8)      { s[id>>6] &^= 1 << (id & 63) }

// or adds every id of t to s.
func (s *idSet) or(t *idSet) {
	for i := range s {
		s[i] |= t[i]
	}
}

// n is the number of ids in the set.
func (s *idSet) n() int {
	return bits.OnesCount64(s[0]) + bits.OnesCount64(s[1]) + bits.OnesCount64(s[2]) + bits.OnesCount64(s[3])
}

type nodeState struct {
	usedIDs     idSet
	portBuffers [router.NumPorts]int
	total       int
	// wheel, slots and conns cache the router's static configuration so
	// the per-hop admission checks never touch the router map or copy a
	// Config struct.
	wheel timing.Wheel
	slots int
	conns int
}

// New creates a controller for the given network and programs the
// configured horizon on every router port.
func New(net *mesh.Network, cfg Config) (*Controller, error) {
	if cfg.SourceWindow < 0 {
		return nil, fmt.Errorf("admission: negative source window")
	}
	c := &Controller{
		net:   net,
		cfg:   cfg,
		links: make([]*linkState, net.W*net.H*(router.NumPorts+1)),
		nodes: make([]*nodeState, net.W*net.H),
		chans: make(map[int]*Channel),
	}
	c.linkNames = make([]string, len(c.links))
	for i := range c.linkNames {
		c.linkNames[i] = c.linkKeyAt(i).String()
	}
	c.nodeNames = make([]string, len(c.nodes))
	for _, coord := range net.Coords() {
		c.nodeNames[net.Shard(coord)] = coord.String()
		r := net.Router(coord)
		if !r.Wheel().ValidDelay(int64(cfg.Horizon)) {
			return nil, fmt.Errorf("admission: horizon %d exceeds half clock range", cfg.Horizon)
		}
		if err := r.SetHorizon(sched.AllPortsMask(router.NumPorts), uint8(cfg.Horizon)); err != nil {
			return nil, err
		}
		cfgR := r.Config()
		c.nodes[net.Shard(coord)] = &nodeState{
			wheel: r.Wheel(), slots: cfgR.Slots, conns: cfgR.Conns,
		}
	}
	return c, nil
}

// linkIdx maps a directed link to its slot in the dense link tables;
// the injection pseudo-port (−1) occupies slot 0 of each node's
// NumPorts+1 stride.
func (c *Controller) linkIdx(k linkKey) int {
	return c.net.Shard(k.node)*(router.NumPorts+1) + k.port + 1
}

// linkKeyAt inverts linkIdx for table iteration. Ascending index order
// is (node.Y, node.X, port) order with inject first — exactly the
// deterministic link order Seal publishes.
func (c *Controller) linkKeyAt(i int) linkKey {
	n, p := i/(router.NumPorts+1), i%(router.NumPorts+1)-1
	return linkKey{mesh.Coord{X: n % c.net.W, Y: n / c.net.W}, p}
}

// linkAt returns the link's state without materializing one, nil if the
// link has never held a reservation.
func (c *Controller) linkAt(k linkKey) *linkState { return c.links[c.linkIdx(k)] }

// linkName returns k.String() from the name table: the rejection path
// stamps a link name on every refusal, and there are only
// W×H×(NumPorts+1) distinct names.
func (c *Controller) linkName(k linkKey) string { return c.linkNames[c.linkIdx(k)] }

// nodeName is linkName's per-router twin.
func (c *Controller) nodeName(co mesh.Coord) string { return c.nodeNames[c.net.Shard(co)] }

// node returns the router's reservation state (always materialized by
// the constructor).
func (c *Controller) node(co mesh.Coord) *nodeState { return c.nodes[c.net.Shard(co)] }

// Channel is an admitted real-time channel.
type Channel struct {
	ID      int
	Src     mesh.Coord
	Dsts    []mesh.Coord
	Spec    rtc.Spec
	SrcConn uint8   // connection id to stamp on injected packets
	DstConn []uint8 // delivery id at each destination, parallel to Dsts
	// LocalD is the uniform per-router delay bound d chosen by the
	// default planner. Zero when DSplit is set: a layout-admitted channel
	// has no single shared d.
	LocalD int64
	// DSplit is the explicit per-hop delay split d_j of a channel
	// admitted through AdmitLayout, source router first; nil for
	// channels admitted through the default planner (uniform LocalD at
	// every hop).
	DSplit []int64

	// Margin is the admission-time EDF headroom in slots: the minimum
	// t−dbf(t) over every link the schedulability test checked with this
	// channel included. It is fixed at admission and survives
	// teardown/restore verbatim, so ledger exports of "worst admitted
	// margin" are stable across reroute refusals.
	Margin int64

	hops []hopRef
}

// hopRef is one router traversal of a channel, as planned and as
// reserved: a door lays out the skeleton (node, mask, d, parent), the
// phase-1 walk fills in the rest, reserve and release walk them.
type hopRef struct {
	node    mesh.Coord
	inConn  uint8
	outConn uint8
	mask    sched.PortMask
	// parent is the index of the hop that forwards to this one, −1 at the
	// source; hops are stored parents first.
	parent  int32
	buffers int
	// d is the per-router delay bound reserved at this hop — LocalD for
	// default-planned channels, DSplit[j] for layout-admitted ones. It is
	// the deadline of this hop's link tasks and the value programmed into
	// the router's connection table, so teardown/restore and the ledger
	// verifier reconstruct reservations from it verbatim.
	d int64
}

// appendPath appends one skeleton hop per route entry — the router the
// route has reached, forwarding on that entry's port with bound d, fed by
// the hop before it (the first by none).
func appendPath(hops []hopRef, src mesh.Coord, route []int, d int64) []hopRef {
	at, parent := src, int32(-1)
	for _, port := range route {
		hops = append(hops, hopRef{node: at, mask: 1 << port, parent: parent, d: d})
		parent = int32(len(hops) - 1)
		at = at.Add(port)
	}
	return hops
}

// mergeTree folds concatenated dimension-order paths from src into one
// tree: one hop per router with the paths' port masks OR'd, breadth-first
// in (depth, Y, X) order, each pointing at the hop that forwards to it.
// Routes of one dimension order from one source reach a router at the
// same depth — its Manhattan distance — so the merge is exact.
func mergeTree(src mesh.Coord, hops []hopRef) []hopRef {
	depth := func(co mesh.Coord) int { return abs(co.X-src.X) + abs(co.Y-src.Y) }
	slices.SortFunc(hops, func(a, b hopRef) int {
		return cmp.Or(cmp.Compare(depth(a.node), depth(b.node)),
			cmp.Compare(a.node.Y, b.node.Y), cmp.Compare(a.node.X, b.node.X))
	})
	tree := hops[:0]
	for _, h := range hops {
		if n := len(tree); n > 0 && tree[n-1].node == h.node {
			tree[n-1].mask |= h.mask
			continue
		}
		tree = append(tree, h)
	}
	for i := 1; i < len(tree); i++ {
		j := i - 1
		for !tree[j].feeds(tree[i].node) {
			j--
		}
		tree[i].parent = int32(j)
	}
	return tree
}

// feeds reports whether the hop forwards to the router at co.
func (h *hopRef) feeds(co mesh.Coord) bool {
	for p := 0; p < router.NumLinks; p++ {
		if h.mask.Has(p) && h.node.Add(p) == co {
			return true
		}
	}
	return false
}

// Admit establishes a real-time channel from src to one or more
// destinations, or explains why it cannot. Route selection follows the
// paper's §3.3: the XY dimension order is tried first; for unicast
// channels the disjoint YX order serves as fallback when the XY path
// lacks resources or crosses failed links. On success the routers along
// the route(s) are programmed and resources are debited; the returned
// Channel carries the connection id the source must stamp.
func (c *Controller) Admit(src mesh.Coord, dsts []mesh.Coord, spec rtc.Spec) (*Channel, error) {
	ch, err := c.admit(src, dsts, spec)
	c.recordAdmit("admit", src, dsts, spec, ch, err)
	return ch, err
}

// recordAdmit counts one admission decision and audits it. Shared by
// Admit and AdmitLayout, so both doors leave the same trail.
func (c *Controller) recordAdmit(op string, src mesh.Coord, dsts []mesh.Coord, spec rtc.Spec, ch *Channel, err error) {
	outcome := "admitted"
	if err != nil {
		outcome = "rejected"
		c.stats.rejects.Add(1)
	} else {
		c.stats.admits.Add(1)
	}
	c.record(op, outcome, src, dsts, spec, ch, err)
}

// record files one control-plane decision in the attached audit log —
// the one record builder behind admit, admit_layout, reroute, restore
// and teardown. ch is the channel the decision concerns (nil when a
// refused admission created none); a refusal carries err's typed
// explanation, a grant ch's margin and — except on a teardown, whose
// channel is leaving — its route and delay split. Records file under
// the source node's shard, shard 0 for a source outside the mesh.
func (c *Controller) record(op, outcome string, src mesh.Coord, dsts []mesh.Coord, spec rtc.Spec, ch *Channel, err error) {
	if c.audit == nil {
		return
	}
	shard, srcName := 0, ""
	if c.net.Contains(src) {
		shard, srcName = c.net.Shard(src), c.nodeName(src)
	} else {
		srcName = src.String()
	}
	rec := obs.AuditRecord{
		Op: op, Outcome: outcome, Channel: -1,
		Src: srcName, Dst: c.dstName(dsts), Spec: c.specStr(spec),
	}
	if ch != nil {
		rec.Channel = ch.ID
	}
	if err != nil {
		rec.Err = err.Error()
		if rej, ok := Explain(err); ok {
			rec.Binding = rej.BindingResource()
			rec.Test = rej.FailingTest()
			rec.Margin = rej.FailMargin()
			rec.Router = rej.Router()
		}
	} else {
		rec.Margin = float64(ch.Margin)
		if op != "teardown" {
			rec.Route = ch.Route()
			rec.LocalD = ch.LocalD
			rec.DSplit = dsplitString(ch.DSplit)
			rec.Hops = ch.Hops()
		}
	}
	c.audit.Record(shard, rec)
}

// dsplitString renders a per-hop delay split for audit records, e.g.
// "5+7+5"; empty for default-planned channels.
func dsplitString(ds []int64) string {
	if len(ds) == 0 {
		return ""
	}
	b := make([]byte, 0, 4*len(ds))
	for i, d := range ds {
		if i > 0 {
			b = append(b, '+')
		}
		b = strconv.AppendInt(b, d, 10)
	}
	return string(b)
}

// admit is plan + commitPlan. A plan that passes is committed as
// planned: should a control write refuse it mid-commit, the programming
// error is returned (state unwound) rather than falling through to the
// other routing order: the plan that passed is the decision.
func (c *Controller) admit(src mesh.Coord, dsts []mesh.Coord, spec rtc.Spec) (*Channel, error) {
	p, err := c.plan(src, dsts, spec)
	if err != nil {
		return nil, err
	}
	return c.commitPlan(p)
}

// plan runs admission phase 1 only — route, delay split, schedulability,
// buffers, identifiers — without mutating any controller state,
// returning the channel commitPlan would establish. Every request goes
// through planUniform along the XY order; a unicast one that refuses
// falls back to the disjoint YX order — the only place that rule lives.
func (c *Controller) plan(src mesh.Coord, dsts []mesh.Coord, spec rtc.Spec) (*Channel, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(dsts) == 0 {
		return nil, fmt.Errorf("admission: no destinations")
	}
	p, errXY := c.planUniform(src, dsts, spec, xyOrder)
	if errXY == nil {
		return p, nil
	}
	if len(dsts) == 1 && src.X != dsts[0].X && src.Y != dsts[0].Y {
		if p, errYX := c.planUniform(src, dsts, spec, yxOrder); errYX == nil {
			return p, nil
		}
	}
	return nil, errXY
}

// dstName is dstString through the controller's rendered-name cache
// (identical bytes: nodeName caches Coord.String itself).
func (c *Controller) dstName(dsts []mesh.Coord) string {
	if len(dsts) == 1 && c.net.Contains(dsts[0]) {
		return c.nodeName(dsts[0])
	}
	return dstString(dsts)
}

// specStr is specString through the controller's single-entry memo.
func (c *Controller) specStr(spec rtc.Spec) string {
	if c.lastSpecStr == "" || spec != c.lastSpec {
		c.lastSpec, c.lastSpecStr = spec, specString(spec)
	}
	return c.lastSpecStr
}

// dstString renders a destination set for audit records.
func dstString(dsts []mesh.Coord) string {
	if len(dsts) == 1 {
		return dsts[0].String()
	}
	parts := make([]string, len(dsts))
	for i, d := range dsts {
		parts[i] = d.String()
	}
	return strings.Join(parts, "+")
}

// specString renders a traffic contract for audit records. strconv
// instead of fmt — one of these renders on every audited decision.
func specString(s rtc.Spec) string {
	b := make([]byte, 0, 48)
	b = append(b, "spec[Imin="...)
	b = strconv.AppendInt(b, s.Imin, 10)
	b = append(b, " Smax="...)
	b = strconv.AppendInt(b, int64(s.Smax), 10)
	b = append(b, " Bmax="...)
	b = strconv.AppendInt(b, int64(s.Bmax), 10)
	b = append(b, " D="...)
	b = strconv.AppendInt(b, s.D, 10)
	b = append(b, ']')
	return string(b)
}

// routeOrder selects the dimension order of the deterministic planner.
type routeOrder uint8

const (
	xyOrder routeOrder = iota
	yxOrder
)

// appendRoute appends the order's port sequence from src to dst to buf.
func (o routeOrder) appendRoute(buf []int, src, dst mesh.Coord) []int {
	if o == yxOrder {
		return mesh.AppendYXRoute(buf, src, dst)
	}
	return mesh.AppendXYRoute(buf, src, dst)
}

// rolloverError refuses a bound d above its DelayRange, naming the early
// window (the source window or the horizon) that d overruns.
func rolloverError(name string, early, d int64) error {
	return fmt.Errorf("admission: %s %d + d %d exceeds half clock range", name, early, d)
}

// uniformRangeError explains a uniform bound d above the source hop's
// DelayRange by the first limit it passes: half the clock range itself,
// then the source window, then the horizon.
func (c *Controller) uniformRangeError(src mesh.Coord, d int64) error {
	half := int64(c.node(src).wheel.HalfRange())
	switch {
	case d >= half:
		return fmt.Errorf("rtc: local delay bound %d exceeds half the clock range (%d)", d, half)
	case c.cfg.SourceWindow+d >= half:
		return rolloverError("source window", c.cfg.SourceWindow, d)
	}
	return rolloverError("horizon", int64(c.cfg.Horizon), d)
}

// endpointsOK refuses a request whose source or any destination lies
// outside the mesh, or that names one destination twice.
func (c *Controller) endpointsOK(src mesh.Coord, dsts []mesh.Coord) error {
	if !c.net.Contains(src) {
		return fmt.Errorf("admission: source %s outside mesh", src)
	}
	for i, dst := range dsts {
		if !c.net.Contains(dst) {
			return fmt.Errorf("admission: destination %s outside mesh", dst)
		}
		if slices.Contains(dsts[:i], dst) {
			return fmt.Errorf("admission: duplicate destination %s", dst)
		}
	}
	return nil
}

// planUniform is the default planner's door into planHops: the routing
// order's route to every destination, merged per router into one tree
// (a unicast route is a tree with one leaf), and one uniform per-router
// bound d — the hardware keeps one d per router for every branch, so the
// longest route sizes it, with the floor split of the deadline. d must
// lie in the source hop's DelayRange, the tightest of the route's.
func (c *Controller) planUniform(src mesh.Coord, dsts []mesh.Coord, spec rtc.Spec, order routeOrder) (*Channel, error) {
	if err := c.endpointsOK(src, dsts); err != nil {
		return nil, err
	}
	segs := 0 // routers on the longest (minimal) route
	for _, dst := range dsts {
		segs = max(segs, abs(dst.X-src.X)+abs(dst.Y-src.Y)+1)
	}
	d := spec.D / int64(segs)
	switch lo, hi := c.DelayRange(src, spec, 0); {
	case d < lo:
		return nil, fmt.Errorf("rtc: delay bound %d too tight for %d hops of %d-slot messages",
			spec.D, segs, lo)
	case d > hi:
		return nil, c.uniformRangeError(src, d)
	}
	sc := &c.sc
	hops := sc.hops[:0]
	for _, dst := range dsts {
		sc.route = order.appendRoute(sc.route[:0], src, dst)
		hops = appendPath(hops, src, sc.route, d)
	}
	if len(dsts) > 1 {
		hops = mergeTree(src, hops)
	}
	sc.hops = hops
	ch, err := c.planHops(src, dsts, spec)
	if err != nil {
		return nil, err
	}
	ch.LocalD = d
	return ch, nil
}

// planHops is admission phase 1 and the only resource walk there is:
// both doors — planUniform and the explicit-layout planLayout — lay out
// the hop skeleton in c.sc.hops (router, port mask, d, parent; parents
// first) and land here. Each hop checks its link tasks in ascending port
// order, carrying its own d (the injection pseudo-link the source hop's),
// then its buffer bound, with prev = SourceWindow at the source and
// Horizon + d of the parent hop downstream (Section 4.3's h+d with the
// upstream hop's actual bound). Every check runs against the scratch
// skeleton; the channel only materializes once the plan passes, so a
// rejected attempt allocates nothing here.
func (c *Controller) planHops(src mesh.Coord, dsts []mesh.Coord, spec rtc.Spec) (*Channel, error) {
	hops := c.sc.hops
	injKey := linkKey{src, portInject}
	rep := c.linkCheckIn(injKey, hopTask(spec, hops[0].d, 0))
	if !rep.feasible {
		return nil, overloadError(c.linkName(injKey), c.nodeName(src), rep, true)
	}
	margin := rep.headroom
	for i := range hops {
		h := &hops[i]
		tk := hopTask(spec, h.d, 0)
		for m := h.mask; m != 0; m &= m - 1 {
			key := linkKey{h.node, bits.TrailingZeros8(uint8(m))}
			rep := c.linkCheckIn(key, tk)
			if !rep.feasible {
				return nil, overloadError(c.linkName(key), c.nodeName(h.node), rep, false)
			}
			margin = min(margin, rep.headroom)
		}
		prev := c.cfg.SourceWindow
		if h.parent >= 0 {
			prev = int64(c.cfg.Horizon) + hops[h.parent].d
		}
		h.buffers = rtc.BufferBound(prev, h.d, spec)
		if err := c.buffersFit(h.node, h.mask, h.buffers); err != nil {
			return nil, err
		}
	}

	// Identifier assignment, parents first: the source picks its lowest
	// free id, every other hop arrives on its parent's outgoing id, and
	// each hop's outgoing id comes from outID.
	conns := c.node(src).conns
	srcIn, ok := firstFreeID(&c.node(src).usedIDs, conns, -1)
	if !ok {
		return nil, &ErrIDExhausted{
			Node: src.String(),
			msg:  fmt.Sprintf("admission: %s out of connection identifiers", src),
		}
	}
	for i := range hops {
		h := &hops[i]
		h.inConn = srcIn
		if h.parent >= 0 {
			h.inConn = hops[h.parent].outConn
		}
		if h.outConn, ok = c.outID(h.node, h.mask, h.inConn, conns); !ok {
			return nil, &ErrIDExhausted{
				Node: h.node.String(), Common: true,
				msg: fmt.Sprintf("admission: no common free id across children of %s", h.node),
			}
		}
	}
	ch := &Channel{Src: src, Dsts: append([]mesh.Coord(nil), dsts...), Spec: spec, Margin: margin,
		SrcConn: srcIn, DstConn: make([]uint8, len(dsts)), hops: append([]hopRef(nil), hops...)}
	for i, dst := range dsts {
		for j := len(hops) - 1; j >= 0; j-- {
			if hops[j].node == dst && hops[j].mask.Has(router.PortLocal) {
				ch.DstConn[i] = hops[j].outConn
				break
			}
		}
	}
	return ch, nil
}

// outID picks a hop's outgoing connection id. The table rewrites one id
// per entry whatever the fan-out, so it must be free as an incoming id at
// every link child — and, when the hop delivers locally, free at the
// router itself and distinct from the incoming id in, because the
// processor receives it as the delivery id and must tell connections
// apart.
func (c *Controller) outID(at mesh.Coord, mask sched.PortMask, in uint8, conns int) (uint8, bool) {
	var used idSet
	except := -1
	for p := 0; p < router.NumLinks; p++ {
		if mask.Has(p) {
			used.or(&c.node(at.Add(p)).usedIDs)
		}
	}
	if mask.Has(router.PortLocal) {
		used.or(&c.node(at).usedIDs)
		except = int(in)
	}
	return firstFreeID(&used, conns, except)
}

// firstFreeID returns the lowest connection id below conns not in used,
// skipping except (-1 for none).
func firstFreeID(used *idSet, conns int, except int) (uint8, bool) {
	for i, w := range used {
		free := ^w
		if except>>6 == i { // never for except = -1
			free &^= 1 << (except & 63)
		}
		if free != 0 {
			// The lowest free id overall: if it is not below conns, none is.
			v := i<<6 + bits.TrailingZeros64(free)
			return uint8(v), v < conns
		}
	}
	return 0, false
}

// commitPlan is admission phase 2: number the planned channel, debit
// its resources and program the chips exactly as planned. The plan must
// describe the controller's current state: every door commits straight
// after planning, with no other decision in between.
func (c *Controller) commitPlan(ch *Channel) (*Channel, error) {
	ch.ID = c.seq
	c.seq++
	if err := c.reserve(ch); err != nil {
		return nil, fmt.Errorf("admission: programming %w", err)
	}
	return ch, nil
}

// reserve debits everything ch's hop records name — connection ids,
// packet buffers, one EDF task per link (the injection pseudo-link
// carries the source hop's deadline; hops[0] is always the source) —
// and programs the routers' connection tables, then lists ch as active.
// It is the only walk that adds reservations: commitPlan runs it on a
// freshly planned channel, restore on one a Teardown released. A
// refused control write releases the hops already taken, so a failure
// leaves no debris; the error names the refusing router.
func (c *Controller) reserve(ch *Channel) error {
	c.addTask(linkKey{ch.Src, portInject}, hopTask(ch.Spec, ch.hops[0].d, ch.ID))
	for i, h := range ch.hops {
		if err := c.net.Router(h.node).SetConnection(h.inConn, h.outConn, uint8(h.d), h.mask); err != nil {
			// Clearing entries this walk just wrote cannot fail; the
			// refused write is the error to report.
			_ = c.release(ch, ch.hops[:i])
			return fmt.Errorf("%s: %w", h.node, err)
		}
		ns := c.node(h.node)
		ns.usedIDs.add(h.inConn)
		if h.mask.Has(router.PortLocal) {
			ns.usedIDs.add(h.outConn)
		}
		ns.total += h.buffers
		tk := hopTask(ch.Spec, h.d, ch.ID)
		for p := 0; p < router.NumPorts; p++ {
			if h.mask.Has(p) {
				ns.portBuffers[p] += h.buffers
				c.addTask(linkKey{h.node, p}, tk)
			}
		}
	}
	c.chans[ch.ID] = ch
	return nil
}

// release is reserve's inverse and the only walk that removes
// reservations: it clears the table entries and credits back the
// resources of the given hops — all of ch.hops on a teardown, the
// already-programmed prefix when reserve unwinds — plus the injection
// task, and delists ch. It finishes the walk even if a control write
// fails, returning the first such error.
func (c *Controller) release(ch *Channel, hops []hopRef) error {
	delete(c.chans, ch.ID)
	c.dropTask(linkKey{ch.Src, portInject}, ch.ID)
	var first error
	for _, h := range hops {
		if err := c.net.Router(h.node).ClearConnection(h.inConn); err != nil && first == nil {
			first = err
		}
		ns := c.node(h.node)
		ns.usedIDs.del(h.inConn)
		if h.mask.Has(router.PortLocal) {
			ns.usedIDs.del(h.outConn)
		}
		ns.total -= h.buffers
		for p := 0; p < router.NumPorts; p++ {
			if h.mask.Has(p) {
				ns.portBuffers[p] -= h.buffers
				c.dropTask(linkKey{h.node, p}, ch.ID)
			}
		}
	}
	return first
}

// addTask and dropTask edit one link's task list and keep its
// incremental EDF cache in step; Reference mode leaves caches unbuilt.
func (c *Controller) addTask(k linkKey, tk task) {
	ls := c.link(k)
	ls.tasks = append(ls.tasks, tk)
	if !c.cfg.Reference {
		ls.cache.addTask(ls.tasks, tk)
	}
}

func (c *Controller) dropTask(k linkKey, chanID int) {
	ls := c.link(k)
	for i, tk := range ls.tasks {
		if tk.chanID == chanID {
			ls.tasks = append(ls.tasks[:i], ls.tasks[i+1:]...)
			if !c.cfg.Reference {
				ls.cache.removeTask(ls.tasks, tk)
			}
			return
		}
	}
}

// active reports whether ch is a channel this controller currently
// holds. Channel ids are only unique per controller, so identity — not
// the id — decides.
func (c *Controller) active(ch *Channel) error {
	if ch == nil {
		return &ErrNotActive{ID: -1}
	}
	if c.chans[ch.ID] != ch {
		return &ErrNotActive{ID: ch.ID}
	}
	return nil
}

// Teardown releases an admitted channel's resources and invalidates its
// table entries. A nil channel, one already torn down, or one admitted
// by another controller is refused with *ErrNotActive, ledger untouched.
func (c *Controller) Teardown(ch *Channel) error {
	if err := c.active(ch); err != nil {
		return err
	}
	if err := c.release(ch, ch.hops); err != nil {
		return err
	}
	c.stats.teardowns.Add(1)
	c.record("teardown", "released", ch.Src, ch.Dsts, ch.Spec, ch, nil)
	return nil
}

// restore re-commits a channel's reservations exactly as they were
// before a Teardown, with no feasibility re-check: the resources were
// freed by that Teardown, so they are available by construction. It is
// the mechanical inverse of Teardown and backs the atomicity of Reroute.
func (c *Controller) restore(ch *Channel) error {
	if _, ok := c.chans[ch.ID]; ok {
		return fmt.Errorf("admission: channel %d already active", ch.ID)
	}
	if err := c.reserve(ch); err != nil {
		return fmt.Errorf("admission: restoring channel %d at %w", ch.ID, err)
	}
	c.stats.restores.Add(1)
	c.record("restore", "restored", ch.Src, ch.Dsts, ch.Spec, ch, nil)
	return nil
}

// Active returns the number of admitted channels.
func (c *Controller) Active() int { return len(c.chans) }

func (c *Controller) link(k linkKey) *linkState {
	i := c.linkIdx(k)
	ls := c.links[i]
	if ls == nil {
		ls = &linkState{}
		if !c.cfg.Reference {
			// Invariant of the incremental mode: every linkState the table
			// holds has a built cache, so a link check never has to build
			// one.
			ls.cache.rebuild(nil)
		}
		c.links[i] = ls
	}
	return ls
}

// linkCheckIn runs the EDF schedulability analysis for the link with the
// candidate task added; a link the mesh reports down (LinkDown) is
// never feasible and reports the "link_failed" pseudo-test. It never
// mutates reservation state, so PlanLayout's what-if probes leave the
// ledger as they found it: links with no reservations are analyzed
// against a shared pre-built empty cache instead of materializing a
// linkState.
func (c *Controller) linkCheckIn(k linkKey, cand task) edfReport {
	if c.net.LinkDown(k.node, k.port) {
		return edfReport{test: "link_failed", margin: -1}
	}
	if c.cfg.Reference {
		ls := c.link(k)
		tasks := make([]task, 0, len(ls.tasks)+1)
		tasks = append(tasks, ls.tasks...)
		tasks = append(tasks, cand)
		return edfAnalyze(tasks)
	}
	ls := c.linkAt(k)
	if ls == nil {
		return emptyLinkCache.check(nil, cand, &c.sc)
	}
	return ls.cache.check(ls.tasks, cand, &c.sc)
}

// buffersFit checks the packet-memory reservation at one router for a
// channel using the masked output ports.
func (c *Controller) buffersFit(co mesh.Coord, mask sched.PortMask, need int) error {
	ns := c.node(co)
	slots := ns.slots
	switch c.cfg.Policy {
	case SharedPool:
		if ns.total+need > slots {
			return &ErrBufferExhausted{
				node: c.nodeName(co), port: -1, Used: ns.total, Need: need, Limit: slots,
			}
		}
	default:
		per := slots / router.NumPorts
		for p := 0; p < router.NumPorts; p++ {
			if mask.Has(p) && ns.portBuffers[p]+need > per {
				return &ErrBufferExhausted{
					node: c.nodeName(co), port: p,
					Used: ns.portBuffers[p], Need: need, Limit: per,
				}
			}
		}
	}
	return nil
}

// Hops returns the number of routers on the channel's deepest branch —
// under single-dimension-order routing, the Manhattan distance to the
// farthest destination plus the source router itself.
func (ch *Channel) Hops() int {
	// A layout-admitted channel's route is explicit and need not be
	// Manhattan-minimal; count its actual hop records (one per traversed
	// router, delivery included).
	if len(ch.DSplit) > 0 {
		return len(ch.hops)
	}
	max := 0
	for _, d := range ch.Dsts {
		h := abs(d.X-ch.Src.X) + abs(d.Y-ch.Src.Y) + 1
		if h > max {
			max = h
		}
	}
	return max
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Bound returns the analytic end-to-end delay bound actually reserved:
// LocalD slots at each traversed router along the deepest branch, or the
// sum of the explicit per-hop split for a layout-admitted channel. It is
// at most the requested Spec.D (decomposition rounds down; layout
// validation enforces Σd_j ≤ D).
func (ch *Channel) Bound() int64 {
	if len(ch.DSplit) > 0 {
		var sum int64
		for _, d := range ch.DSplit {
			sum += d
		}
		return sum
	}
	return ch.LocalD * int64(ch.Hops())
}

// SourceD returns the source router's delay bound — the deadline the
// source regulator paces injections against: DSplit[0] for a
// layout-admitted channel, LocalD otherwise.
func (ch *Channel) SourceD() int64 {
	if len(ch.DSplit) > 0 {
		return ch.DSplit[0]
	}
	return ch.LocalD
}

// HopID identifies one router traversal of an admitted channel: the
// node and the connection ids the packet carries arriving there (In)
// and leaving for the next hop (Out). Observability layers key per-hop
// accounting on (Node, In).
type HopID struct {
	Node mesh.Coord
	In   uint8
	Out  uint8
}

// HopIDs returns the channel's router traversals in breadth-first route
// order, source first. Delivery legs appear with the destination's
// DstConn as Out.
func (ch *Channel) HopIDs() []HopID {
	ids := make([]HopID, len(ch.hops))
	for i, h := range ch.hops {
		ids[i] = HopID{Node: h.node, In: h.inConn, Out: h.outConn}
	}
	return ids
}

// Route renders the channel's route tree hop by hop: each traversed
// router in breadth-first order with the output ports its packets fan
// out on, e.g. "(0,0)[+x] (1,0)[+x local]". Deterministic given the
// same admitted route, so audit lines are byte-stable.
func (ch *Channel) Route() string {
	var b strings.Builder
	var ports []int
	for i, h := range ch.hops {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(h.node.String())
		b.WriteByte('[')
		ports = h.mask.Ports(ports[:0])
		for j, p := range ports {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(router.PortName(p))
		}
		b.WriteByte(']')
	}
	return b.String()
}

// Uses reports whether the channel's route crosses the given directed
// link.
func (ch *Channel) Uses(node mesh.Coord, port int) bool {
	for _, h := range ch.hops {
		if h.node == node && h.mask.Has(port) {
			return true
		}
	}
	return false
}

// Reroute re-establishes a channel after a failure (or a repair, for
// failing back to the primary path): its reservations are released and
// admission re-runs, taking the mesh's failed links and the freed
// resources into account. On success the old channel is invalid and the
// returned one carries fresh connection ids; the caller must re-bind its
// source regulator. On failure the old channel's reservations are restored
// verbatim — per-hop delay split included, so a refused reroute of a
// layout-admitted channel leaves it exactly as it was. A successful
// reroute of a layout channel falls back to the default planner (uniform
// split); re-synthesizing a layout after a failure is the optimizer's
// job, not the control plane's. A channel this controller does not hold
// (nil, torn down, or another controller's) is refused with
// *ErrNotActive before anything is touched.
func (c *Controller) Reroute(ch *Channel) (*Channel, error) {
	if err := c.active(ch); err != nil {
		return nil, err
	}
	nch, err := c.reroute(ch)
	c.stats.reroutes.Add(1)
	if err != nil {
		c.record("reroute", "refused", ch.Src, ch.Dsts, ch.Spec, ch, err)
	} else {
		c.record("reroute", "rerouted", ch.Src, ch.Dsts, ch.Spec, nch, nil)
	}
	return nch, err
}

func (c *Controller) reroute(ch *Channel) (*Channel, error) {
	if err := c.Teardown(ch); err != nil {
		return nil, err
	}
	nch, err := c.Admit(ch.Src, ch.Dsts, ch.Spec)
	if err != nil {
		if rerr := c.restore(ch); rerr != nil {
			return nil, fmt.Errorf("admission: reroute of channel %d failed (%v) and restore failed: %w", ch.ID, err, rerr)
		}
		return nil, fmt.Errorf("admission: reroute of channel %d: %w", ch.ID, err)
	}
	return nch, nil
}
