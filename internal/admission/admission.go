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
	"fmt"
	"math/bits"
	"sort"
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
	// Reference disables every admission fast path — the incremental EDF
	// cache and its memos, the unicast path planner, and batched
	// speculation — so the controller runs the tree planner and the
	// from-scratch analysis on every check. A Reference controller must
	// make exactly the same decisions as a standard one (the fuzz harness
	// diffs them);
	// it exists as the differential-testing oracle and as the honest
	// "pre-PR sequential path" the admission campaign times against.
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
	// links and failed are dense tables indexed by linkIdx — the mesh is
	// a full W×H rectangle, so a slice beats a map on the admission hot
	// path (linkCheckIn runs once per route hop per plan attempt).
	links  []*linkState
	nodes  []*nodeState
	chans  map[int]*Channel
	failed []bool
	seq    int
	// linkNames and nodeNames hold every link's and node's rendered name
	// (dense, same indexing as links/nodes) for rejections and audit
	// records. Filled once by New and read-only afterwards, so AdmitBatch's
	// concurrent planners may stamp names on their rejections.
	linkNames []string
	nodeNames []string

	// audit, when attached, receives one record per control-plane
	// decision (see AttachAudit).
	audit *obs.AuditLog
	// sealed holds the last published capacity snapshot (see Seal in
	// ledger.go); atomic so a live HTTP scrape never races a seal.
	sealed atomic.Pointer[metrics.CapacitySnapshot]
	// sc is the serial control path's evaluation scratch; AdmitBatch's
	// concurrent evaluators carry their own.
	sc evalScratch
	// mut counts reservation-state mutations (every reserve and release
	// walk, link failure transitions); rejMemo caches whole admit() rejections
	// keyed by request and mut. Mass admission replays the same few
	// (src, dst, spec) rejections thousands of times against unchanged
	// state, and a rejection leaves no state behind, so replaying the
	// stored error is exact — same value, same rendered bytes.
	mut     uint64
	rejMemo map[rejKey]error
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

// ConfigView returns the controller's configuration (a copy). Layout
// synthesis reads SourceWindow and Horizon to keep its repaired delay
// splits inside the rollover window without a rejected probe per step.
func (c *Controller) ConfigView() Config { return c.cfg }

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
		net:    net,
		cfg:    cfg,
		links:  make([]*linkState, net.W*net.H*(router.NumPorts+1)),
		nodes:  make([]*nodeState, net.W*net.H),
		chans:  make(map[int]*Channel),
		failed: make([]bool, net.W*net.H*(router.NumPorts+1)),
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

// linkIdx maps a directed link to its slot in the dense link/failed
// tables; the injection pseudo-port (−1) occupies slot 0 of each node's
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
// reserved: phase 1 fills these in, reserve and release walk them.
type hopRef struct {
	node    mesh.Coord
	inConn  uint8
	outConn uint8
	mask    sched.PortMask
	buffers int
	// d is the per-router delay bound reserved at this hop — LocalD for
	// default-planned channels, DSplit[j] for layout-admitted ones. It is
	// the deadline of this hop's link tasks and the value programmed into
	// the router's connection table, so teardown/restore and the ledger
	// verifier reconstruct reservations from it verbatim.
	d int64
}

// treeNode is one router in the multicast route tree.
type treeNode struct {
	coord mesh.Coord
	mask  sched.PortMask // output ports used (links and/or local)
	depth int            // routers from the source (source = 0)
}

// routeFn produces a port sequence from src to dst.
type routeFn func(src, dst mesh.Coord) []int

// buildTree merges the routes to every destination into one tree using
// the given routing order. It returns nodes in breadth-first order.
func (c *Controller) buildTree(src mesh.Coord, dsts []mesh.Coord, route routeFn) ([]*treeNode, int, error) {
	if !c.net.Contains(src) {
		return nil, 0, fmt.Errorf("admission: source %s outside mesh", src)
	}
	byCoord := make(map[mesh.Coord]*treeNode)
	get := func(at mesh.Coord, depth int) *treeNode {
		n, ok := byCoord[at]
		if !ok {
			n = &treeNode{coord: at, depth: depth}
			byCoord[at] = n
		}
		return n
	}
	maxSegs := 0
	seen := make(map[mesh.Coord]bool)
	for _, dst := range dsts {
		if !c.net.Contains(dst) {
			return nil, 0, fmt.Errorf("admission: destination %s outside mesh", dst)
		}
		if seen[dst] {
			return nil, 0, fmt.Errorf("admission: duplicate destination %s", dst)
		}
		seen[dst] = true
		ports := route(src, dst)
		if len(ports) > maxSegs {
			maxSegs = len(ports)
		}
		at := src
		for i, port := range ports {
			n := get(at, i)
			if n.depth != i {
				// Single-order merges always agree on depth; a mismatch
				// would mean two routes visit one router at different
				// distances, impossible within one dimension order.
				return nil, 0, fmt.Errorf("admission: internal: inconsistent tree depth at %s", at)
			}
			n.mask |= 1 << port
			at = at.Add(port)
		}
	}
	nodes := make([]*treeNode, 0, len(byCoord))
	for _, n := range byCoord {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].depth != nodes[j].depth {
			return nodes[i].depth < nodes[j].depth
		}
		a, b := nodes[i].coord, nodes[j].coord
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.X < b.X
	})
	return nodes, maxSegs, nil
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
// Admit, AdmitLayout and AdmitBatch's serial finalize, so a batched
// request leaves exactly the trail a sequential one does.
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

// rejKey names one memoizable unicast rejection: the request plus the
// controller's mutation count, which pins the exact reservation state
// the decision was made against.
type rejKey struct {
	src, dst mesh.Coord
	spec     rtc.Spec
	mut      uint64
}

// rejMemoCap bounds the rejection memo; on overflow the map is cleared
// in place (buckets are kept, so steady state stays allocation-free).
const rejMemoCap = 1 << 14

// admit is plan + commitPlan behind the rejection-replay memo. A plan
// that passes is committed as planned: should a control write refuse it
// mid-commit, the programming error is returned (state unwound) rather
// than falling through to the other routing order — the same answer
// AdmitBatch gives for a speculative plan.
func (c *Controller) admit(src mesh.Coord, dsts []mesh.Coord, spec rtc.Spec) (*Channel, error) {
	memoable := len(dsts) == 1 && !c.cfg.Reference
	var key rejKey
	if memoable {
		key = rejKey{src: src, dst: dsts[0], spec: spec, mut: c.mut}
		if err, ok := c.rejMemo[key]; ok {
			return nil, err
		}
	}
	p, err := c.plan(src, dsts, spec, &c.sc)
	if err == nil {
		return c.commitPlan(p)
	}
	if memoable {
		if c.rejMemo == nil {
			c.rejMemo = make(map[rejKey]error, 1<<10)
		} else if len(c.rejMemo) >= rejMemoCap {
			clear(c.rejMemo)
		}
		c.rejMemo[key] = err
	}
	return nil, err
}

// plan runs admission phase 1 only — route, delay split, schedulability,
// buffers, identifiers, with the XY→YX fallback — without mutating any
// controller state, returning the channel commitPlan would establish.
// A unicast request goes through planPath with the dimension-order route
// and the uniform split; multicast trees, and everything in Reference
// mode, go through the tree planner. In incremental (non-Reference) mode
// it is safe to call from many goroutines concurrently against a frozen
// controller, each with its own scratch; that is AdmitBatch's
// speculative evaluation.
func (c *Controller) plan(src mesh.Coord, dsts []mesh.Coord, spec rtc.Spec, sc *evalScratch) (*Channel, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(dsts) == 0 {
		return nil, fmt.Errorf("admission: no destinations")
	}
	try := func(order routeOrder) (*Channel, error) {
		if len(dsts) == 1 && !c.cfg.Reference {
			return c.planUniform(src, dsts[0], spec, order, sc)
		}
		return c.planVia(src, dsts, spec, order, sc)
	}
	p, errXY := try(xyOrder)
	if errXY == nil {
		return p, nil
	}
	if len(dsts) == 1 && src.X != dsts[0].X && src.Y != dsts[0].Y {
		if p, errYX := try(yxOrder); errYX == nil {
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

// route returns the order's port sequence from src to dst.
func (o routeOrder) route(src, dst mesh.Coord) []int {
	if o == yxOrder {
		return mesh.YXRoute(src, dst)
	}
	return mesh.XYRoute(src, dst)
}

// uniformOK checks the constraints on a uniform per-router bound d: a
// non-empty budget, and Section 4.3's rollover limits on what the
// downstream hop can see early — window+d at the source, h+d elsewhere.
func (c *Controller) uniformOK(wheel timing.Wheel, d int64) error {
	if d < 1 {
		return fmt.Errorf("admission: empty delay budget")
	}
	if err := rolloverOK(wheel, "source window", c.cfg.SourceWindow, d); err != nil {
		return err
	}
	return rolloverOK(wheel, "horizon", int64(c.cfg.Horizon), d)
}

// rolloverOK checks one half-clock-range constraint: early (the source
// window or the horizon) plus the hop's delay bound must stay a valid
// delay.
func rolloverOK(wheel timing.Wheel, name string, early, d int64) error {
	if wheel.ValidDelay(early + d) {
		return nil
	}
	return fmt.Errorf("admission: %s %d + d %d exceeds half clock range", name, early, d)
}

// planVia runs admission phase 1 along one routing order with the
// generic tree planner: multicast requests, and — as the oracle the
// differential fuzz diffs planPath against — every request of a
// Reference-mode controller.
func (c *Controller) planVia(src mesh.Coord, dsts []mesh.Coord, spec rtc.Spec, order routeOrder, sc *evalScratch) (*Channel, error) {
	nodes, maxSegs, err := c.buildTree(src, dsts, order.route)
	if err != nil {
		return nil, err
	}
	wheel := c.node(src).wheel
	// The hardware uses one d per router shared by all branches; use the
	// deepest path to size it, so every branch meets its bound.
	ds, err := rtc.Decompose(spec, maxSegs, wheel)
	if err != nil {
		return nil, err
	}
	d := ds[len(ds)-1] // uniform (the most conservative of the split)
	if err := c.uniformOK(wheel, d); err != nil {
		return nil, err
	}

	// Check every resource without mutating anything. The channel's
	// admission margin is the minimum EDF headroom across every link
	// checked, candidate included.
	newTask := task{C: spec.MessageSlots(), T: spec.Imin, D: d}
	injKey := linkKey{src, portInject}
	rep := c.linkCheckIn(injKey, newTask, sc)
	if !rep.feasible {
		return nil, overloadError(c.linkName(injKey), c.nodeName(injKey.node), rep, true)
	}
	margin := rep.headroom
	buffers := make(map[mesh.Coord]int, len(nodes))
	for _, n := range nodes {
		for p := 0; p < router.NumPorts; p++ {
			if !n.mask.Has(p) {
				continue
			}
			key := linkKey{n.coord, p}
			rep := c.linkCheckIn(key, newTask, sc)
			if !rep.feasible {
				return nil, overloadError(c.linkName(key), c.nodeName(n.coord), rep, false)
			}
			margin = min(margin, rep.headroom)
		}
		prev := int64(c.cfg.Horizon) + d
		if n.depth == 0 {
			prev = c.cfg.SourceWindow
		}
		need := rtc.BufferBound(prev, d, spec)
		buffers[n.coord] = need
		if err := c.buffersFit(n.coord, n.mask, need); err != nil {
			return nil, err
		}
	}
	ids, err := c.assignIDs(nodes)
	if err != nil {
		return nil, err
	}
	ch := &Channel{Src: src, Dsts: append([]mesh.Coord(nil), dsts...), Spec: spec,
		LocalD: d, Margin: margin, SrcConn: ids[src].in}
	ch.hops = make([]hopRef, len(nodes))
	for i, n := range nodes {
		ch.hops[i] = hopRef{node: n.coord, mask: n.mask,
			inConn: ids[n.coord].in, outConn: ids[n.coord].out, buffers: buffers[n.coord], d: d}
	}
	ch.DstConn = make([]uint8, len(dsts))
	for i, dst := range dsts {
		ch.DstConn[i] = ids[dst].out
	}
	return ch, nil
}

// endpointsOK refuses a unicast request whose source or destination
// lies outside the mesh.
func (c *Controller) endpointsOK(src, dst mesh.Coord) error {
	if !c.net.Contains(src) {
		return fmt.Errorf("admission: source %s outside mesh", src)
	}
	if !c.net.Contains(dst) {
		return fmt.Errorf("admission: destination %s outside mesh", dst)
	}
	return nil
}

// planUniform is the default planner's door into planPath: one
// dimension-order route with the uniform floor split of the deadline.
func (c *Controller) planUniform(src, dst mesh.Coord, spec rtc.Spec, order routeOrder, sc *evalScratch) (*Channel, error) {
	if err := c.endpointsOK(src, dst); err != nil {
		return nil, err
	}
	route := order.route(src, dst)
	wheel := c.node(src).wheel
	d, err := rtc.DecomposeUniform(spec, len(route), wheel)
	if err != nil {
		return nil, err
	}
	if err := c.uniformOK(wheel, d); err != nil {
		return nil, err
	}
	ds := sc.ds[:0]
	for range route {
		ds = append(ds, d)
	}
	sc.ds = ds
	ch, err := c.planPath(src, dst, spec, route, ds, sc)
	if err != nil {
		return nil, err
	}
	ch.LocalD = d
	return ch, nil
}

// planPath is admission phase 1 for one unicast layout — a loop-free
// port route from src ending in local delivery at dst, and a per-hop
// delay split ds parallel to it — and the only unicast resource walk
// there is: the default planner (planUniform) and the explicit-layout
// door (planLayout) both validate their route and split and then land
// here. Each hop's link task carries its own d_j (the injection
// pseudo-link the source hop's), and the buffer bound at hop j sees
// prev = SourceWindow at the source and Horizon + d_{j-1} downstream
// (Section 4.3's h+d with the upstream hop's actual bound). It decides
// exactly as the tree planner does on a path — same check order, same
// first-fit id scans, same error values; the admission fuzz harness
// diffs the two via a Reference-mode shadow controller. Every check
// runs against the scratch hop buffer; the channel only materializes
// once the layout passes, so a rejected attempt allocates nothing here.
func (c *Controller) planPath(src, dst mesh.Coord, spec rtc.Spec, route []int, ds []int64, sc *evalScratch) (*Channel, error) {
	tk := task{C: spec.MessageSlots(), T: spec.Imin, D: ds[0]}
	injKey := linkKey{src, portInject}
	rep := c.linkCheckIn(injKey, tk, sc)
	if !rep.feasible {
		return nil, overloadError(c.linkName(injKey), c.nodeName(src), rep, true)
	}
	margin := rep.headroom
	if cap(sc.hops) < len(route) {
		sc.hops = make([]hopRef, 0, len(route))
	}
	hops := sc.hops[:0]
	at, prev := src, c.cfg.SourceWindow
	for i, port := range route {
		tk.D = ds[i]
		key := linkKey{at, port}
		rep := c.linkCheckIn(key, tk, sc)
		if !rep.feasible {
			return nil, overloadError(c.linkName(key), c.nodeName(at), rep, false)
		}
		margin = min(margin, rep.headroom)
		need := rtc.BufferBound(prev, ds[i], spec)
		mask := sched.PortMask(1) << port
		if err := c.buffersFit(at, mask, need); err != nil {
			return nil, err
		}
		hops = append(hops, hopRef{node: at, mask: mask, buffers: need, d: ds[i]})
		prev = int64(c.cfg.Horizon) + ds[i]
		if port != router.PortLocal {
			at = at.Add(port)
		}
	}

	// Identifier assignment down the path: the source picks its lowest
	// free id; each hop's outgoing id is the lowest free at the next
	// router (the tree assigner's claim set is empty there, since a path
	// visits every router once); the delivery id at the destination
	// additionally avoids the incoming id it just claimed.
	conns := c.node(src).conns
	cur, ok := firstFreeID(c.node(src), conns, -1)
	if !ok {
		return nil, &ErrIDExhausted{
			Node: src.String(),
			msg:  fmt.Sprintf("admission: %s out of connection identifiers", src),
		}
	}
	srcIn := cur
	for i := range hops {
		h := &hops[i]
		h.inConn = cur
		if route[i] == router.PortLocal {
			cur, ok = firstFreeID(c.node(h.node), conns, int(cur))
		} else {
			cur, ok = firstFreeID(c.node(h.node.Add(route[i])), conns, -1)
		}
		if !ok {
			return nil, &ErrIDExhausted{
				Node: h.node.String(), Common: true,
				msg: fmt.Sprintf("admission: no common free id across children of %s", h.node),
			}
		}
		h.outConn = cur
	}
	return &Channel{Src: src, Dsts: []mesh.Coord{dst}, Spec: spec, Margin: margin,
		SrcConn: srcIn, DstConn: []uint8{cur}, hops: append([]hopRef(nil), hops...)}, nil
}

// firstFreeID returns the lowest connection id free at ns, skipping
// except (-1 for none) — the same id the tree assigner's first-fit scan
// lands on.
func firstFreeID(ns *nodeState, conns int, except int) (uint8, bool) {
	for i, w := range ns.usedIDs {
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
// describe the controller's current state — AdmitBatch guarantees that
// by re-planning any request whose footprint an earlier commit touched.
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
	c.mut++
	tk := task{C: ch.Spec.MessageSlots(), T: ch.Spec.Imin, D: ch.hops[0].d, chanID: ch.ID}
	c.addTask(linkKey{ch.Src, portInject}, tk)
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
		tk.D = h.d
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
	c.mut++
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
			// holds has a built cache, so concurrent (read-only) batch
			// evaluation never has to build one.
			ls.cache.rebuild(nil)
		}
		c.links[i] = ls
	}
	return ls
}

// linkCheckIn runs the EDF schedulability analysis for the link with the
// candidate task added; failed links are never feasible and report the
// "link_failed" pseudo-test. The evaluation scratch is explicit so
// AdmitBatch's concurrent planners don't share buffers. It never mutates
// controller state: links with no reservations are analyzed against a
// shared pre-built empty cache instead of materializing a linkState.
func (c *Controller) linkCheckIn(k linkKey, cand task, sc *evalScratch) edfReport {
	i := c.linkIdx(k)
	if c.failed[i] {
		return edfReport{test: "link_failed", margin: -1}
	}
	if c.cfg.Reference {
		ls := c.link(k)
		tasks := make([]task, 0, len(ls.tasks)+1)
		tasks = append(tasks, ls.tasks...)
		tasks = append(tasks, cand)
		return edfAnalyze(tasks)
	}
	ls := c.links[i]
	if ls == nil {
		return emptyLinkCache.check(nil, cand, sc)
	}
	return ls.cache.check(ls.tasks, cand, sc)
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

type idPair struct{ in, out uint8 }

// assignIDs picks the connection identifiers along the tree: a router's
// outgoing id must be free as an incoming id at every child router it
// forwards to, because the hardware rewrites one id per entry regardless
// of fan-out. The destination routers' outgoing ids become the local
// delivery ids.
func (c *Controller) assignIDs(nodes []*treeNode) (map[mesh.Coord]idPair, error) {
	byCoord := make(map[mesh.Coord]*treeNode, len(nodes))
	for _, n := range nodes {
		byCoord[n.coord] = n
	}
	ids := make(map[mesh.Coord]idPair, len(nodes))
	// Tentatively claimed incoming ids per coordinate during this
	// assignment (so two children of one parent don't collide with each
	// other before commit).
	claimed := make(map[mesh.Coord]*idSet)
	claim := func(at mesh.Coord) *idSet {
		m, ok := claimed[at]
		if !ok {
			m = new(idSet)
			claimed[at] = m
		}
		return m
	}
	freeAt := func(at mesh.Coord, id uint8) bool {
		return !c.node(at).usedIDs.has(id) && !claim(at).has(id)
	}
	conns := c.node(nodes[0].coord).conns
	for i, n := range nodes {
		// Incoming id: for the source (depth 0) pick any free id; for
		// others it was fixed by the parent via claimed[].
		var in uint8
		if i == 0 {
			found := false
			for v := 0; v < conns; v++ {
				if freeAt(n.coord, uint8(v)) {
					in = uint8(v)
					found = true
					break
				}
			}
			if !found {
				return nil, &ErrIDExhausted{
					Node: n.coord.String(),
					msg:  fmt.Sprintf("admission: %s out of connection identifiers", n.coord),
				}
			}
			claim(n.coord).add(in)
		} else {
			pair, ok := ids[n.coord]
			if !ok {
				return nil, fmt.Errorf("admission: internal: child %s visited before parent", n.coord)
			}
			in = pair.in
		}
		// Outgoing id: the hardware rewrites one id per entry, so it must
		// be free as an incoming id at every child router — and, when the
		// local bit is set, free at this node too, because the processor
		// receives it as the delivery identifier and must be able to tell
		// connections apart.
		children := make([]mesh.Coord, 0, 4)
		for p := 0; p < router.NumLinks; p++ {
			if n.mask.Has(p) {
				children = append(children, n.coord.Add(p))
			}
		}
		local := n.mask.Has(router.PortLocal)
		var out uint8
		found := false
		for v := 0; v < conns; v++ {
			if local && !freeAt(n.coord, uint8(v)) {
				continue
			}
			ok := true
			for _, ch := range children {
				if !freeAt(ch, uint8(v)) {
					ok = false
					break
				}
			}
			if ok {
				out = uint8(v)
				found = true
				break
			}
		}
		if !found {
			return nil, &ErrIDExhausted{
				Node: n.coord.String(), Common: true,
				msg: fmt.Sprintf("admission: no common free id across children of %s", n.coord),
			}
		}
		if local {
			claim(n.coord).add(out)
		}
		for _, chd := range children {
			claim(chd).add(out)
			ids[chd] = idPair{in: out}
		}
		ids[n.coord] = idPair{in: in, out: out}
	}
	return ids, nil
}

// MarkFailed records a bidirectional link failure so no future channel
// routes across it (pair with mesh.Network.FailLink, which cuts the
// wires). Channels already using the link keep their reservations until
// rerouted or torn down.
func (c *Controller) MarkFailed(from mesh.Coord, port int) error {
	if port < 0 || port >= router.NumLinks {
		return fmt.Errorf("admission: port %s is not a link", router.PortName(port))
	}
	to := from.Add(port)
	if !c.net.Contains(from) || !c.net.Contains(to) {
		return fmt.Errorf("admission: no link %s→%s", from, router.PortName(port))
	}
	c.mut++
	c.failed[c.linkIdx(linkKey{from, port})] = true
	c.failed[c.linkIdx(linkKey{to, reverse(port)})] = true
	return nil
}

// MarkRepaired clears a previously recorded link failure in both
// directions so future admissions may route across the link again (pair
// with mesh.Network.RepairLink, which restores the wires).
func (c *Controller) MarkRepaired(from mesh.Coord, port int) error {
	if port < 0 || port >= router.NumLinks {
		return fmt.Errorf("admission: port %s is not a link", router.PortName(port))
	}
	to := from.Add(port)
	if !c.net.Contains(from) || !c.net.Contains(to) {
		return fmt.Errorf("admission: no link %s→%s", from, router.PortName(port))
	}
	c.mut++
	c.failed[c.linkIdx(linkKey{from, port})] = false
	c.failed[c.linkIdx(linkKey{to, reverse(port)})] = false
	return nil
}

// reverse maps a link port to the peer router's port on the same link.
func reverse(port int) int {
	switch port {
	case router.PortXPlus:
		return router.PortXMinus
	case router.PortXMinus:
		return router.PortXPlus
	case router.PortYPlus:
		return router.PortYMinus
	default:
		return router.PortYPlus
	}
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
// admission re-runs, taking the failed-link set and the freed resources
// into account. On success the old channel is invalid and the returned
// one carries fresh connection ids; the caller must re-bind its source
// regulator. On failure the old channel's reservations are restored
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
