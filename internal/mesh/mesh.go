// Package mesh assembles real-time routers into networks: the 2-D square
// mesh of Figure 1, and the single-chip loopback configuration used by
// the paper's first experiment. It also provides the coordinate algebra
// shared by dimension-ordered routing and the admission controller.
package mesh

import (
	"fmt"
	"strconv"

	"repro/internal/router"
	"repro/internal/sim"
)

// Coord addresses a node in the mesh.
type Coord struct {
	X, Y int
}

// String renders "(x,y)". Built with strconv rather than fmt: the
// admission audit trail renders coordinates on every decision, and this
// sits on that hot path.
func (c Coord) String() string {
	b := make([]byte, 0, 8)
	b = append(b, '(')
	b = strconv.AppendInt(b, int64(c.X), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(c.Y), 10)
	b = append(b, ')')
	return string(b)
}

// Add returns c displaced by one hop through the given output port.
func (c Coord) Add(port int) Coord {
	switch port {
	case router.PortXPlus:
		return Coord{c.X + 1, c.Y}
	case router.PortXMinus:
		return Coord{c.X - 1, c.Y}
	case router.PortYPlus:
		return Coord{c.X, c.Y + 1}
	case router.PortYMinus:
		return Coord{c.X, c.Y - 1}
	default:
		return c
	}
}

// Network is a set of wired routers driven by one simulation kernel.
type Network struct {
	Kernel  *sim.Kernel
	W, H    int
	cfg     router.Config
	routers []*router.Router // dense, indexed by Shard(c)
	order   []Coord          // deterministic iteration order
	failed  map[linkID]bool
}

// linkID names an undirected mesh link canonically: the endpoint with
// the +x/+y facing port.
type linkID struct {
	from Coord
	port int
}

func canonicalLink(from Coord, port int) linkID {
	if port == router.PortXMinus || port == router.PortYMinus {
		return linkID{from.Add(port), reversePort(port)}
	}
	return linkID{from, port}
}

// New builds a W×H mesh of routers with the given configuration,
// bidirectionally wiring every adjacent pair. Router names are their
// coordinates.
func New(w, h int, cfg router.Config) (*Network, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("mesh: dimensions %dx%d invalid", w, h)
	}
	if w > 128 || h > 128 {
		// A 128-edge mesh is the largest whose dimension offsets (at most
		// ±127) still fit the best-effort header's signed bytes.
		return nil, fmt.Errorf("mesh: dimensions %dx%d exceed the signed-byte offset range", w, h)
	}
	n := &Network{
		Kernel:  sim.NewKernel(),
		W:       w,
		H:       h,
		cfg:     cfg,
		routers: make([]*router.Router, 0, w*h),
		failed:  make(map[linkID]bool),
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := Coord{x, y}
			r, err := router.New(c.String(), cfg)
			if err != nil {
				return nil, err
			}
			n.routers = append(n.routers, r)
			n.order = append(n.order, c)
			// Each router is its own kernel shard; node-side software
			// (pacers, sinks, traffic apps) registers into the same shard
			// via RegisterAt so the parallel mode keeps the documented
			// node-before-router ordering per chip.
			n.Kernel.RegisterShard(n.Shard(c), r)
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := Coord{x, y}
			if x+1 < w {
				n.wire(c, Coord{x + 1, y}, router.PortXPlus, router.PortXMinus)
			}
			if y+1 < h {
				n.wire(c, Coord{x, y + 1}, router.PortYPlus, router.PortYMinus)
			}
		}
	}
	n.SetTileSize(0)
	return n, nil
}

// MustNew is New for known-good parameters.
func MustNew(w, h int, cfg router.Config) *Network {
	n, err := New(w, h, cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// wire connects a and b bidirectionally: a's outPort to b, b's reverse
// port back to a. The channels carry the configured link latency and
// tell the kernel which shards they bridge; from those the kernel
// derives the epoch of its parallel mode (the minimum cross-shard wire
// latency), so this latency is the only thing that sets it.
func (n *Network) wire(a, b Coord, aPort, bPort int) {
	lat := int64(n.cfg.LinkLatency)
	if lat <= 0 {
		lat = 1
	}
	sa, sb := n.Shard(a), n.Shard(b)
	fw := router.NewChannelShards(n.Kernel, lat, sa, sb)
	n.Router(a).ConnectOut(aPort, fw.Out())
	n.Router(b).ConnectIn(bPort, fw.In())
	bw := router.NewChannelShards(n.Kernel, lat, sb, sa)
	n.Router(b).ConnectOut(bPort, bw.Out())
	n.Router(a).ConnectIn(aPort, bw.In())
}

// Router returns the router at c, or nil if out of range.
func (n *Network) Router(c Coord) *router.Router {
	if !n.Contains(c) {
		return nil
	}
	return n.routers[n.Shard(c)]
}

// Contains reports whether c lies in the mesh.
func (n *Network) Contains(c Coord) bool {
	return c.X >= 0 && c.X < n.W && c.Y >= 0 && c.Y < n.H
}

// Coords returns all node coordinates in row-major order.
func (n *Network) Coords() []Coord { return n.order }

// Shard returns the kernel shard key of the node at c (its row-major
// index). Components that talk directly to that node's router — rather
// than through cycle-latched wires — must register into this shard so
// the parallel execution mode preserves their tick order.
func (n *Network) Shard(c Coord) int { return c.Y*n.W + c.X }

// RegisterAt registers a component into the shard of the node at c.
// Use it for per-node software (traffic generators, observers) so the
// network stays parallelizable; cross-node components must use
// Kernel.Register, which makes them scheduling barriers.
func (n *Network) RegisterAt(c Coord, comp sim.Component) {
	n.Kernel.RegisterShard(n.Shard(c), comp)
}

// SetWorkers selects the kernel execution mode: 1 (default) runs every
// component sequentially; w > 1 ticks the per-node shards on w workers
// with bit-identical results; w <= 0 picks GOMAXPROCS.
func (n *Network) SetWorkers(w int) { n.Kernel.SetWorkers(w) }

// DefaultTileSize is the spatial tile edge used by the parallel
// execution mode: node shards group into DefaultTileSize² blocks so
// each kernel worker walks coarse, cache-local regions of the mesh.
const DefaultTileSize = 4

// SetTileSize regroups the kernel's parallel plan around t×t spatial
// blocks of nodes (t = 1 is per-node grouping; t <= 0 restores
// DefaultTileSize). Results are bit-identical for every tile size; the
// choice only affects locality. Takes effect at the next Step.
func (n *Network) SetTileSize(t int) {
	if t <= 0 {
		t = DefaultTileSize
	}
	tilesX := (n.W + t - 1) / t
	n.Kernel.SetTiling(func(shard int) int {
		x, y := shard%n.W, shard/n.W
		return (y/t)*tilesX + x/t
	})
}

// Close releases the kernel's resident worker goroutines, if any.
func (n *Network) Close() { n.Kernel.Close() }

// Run advances the whole network by the given number of cycles.
func (n *Network) Run(cycles int64) { n.Kernel.Run(cycles) }

// Now returns the current cycle.
func (n *Network) Now() int64 { return int64(n.Kernel.Now()) }

// routeLen is the exact length of a dimension-ordered route: one hop
// per unit of offset plus the final local port.
func routeLen(src, dst Coord) int {
	n := 1
	if dst.X > src.X {
		n += dst.X - src.X
	} else {
		n += src.X - dst.X
	}
	if dst.Y > src.Y {
		n += dst.Y - src.Y
	} else {
		n += src.Y - dst.Y
	}
	return n
}

// XYRoute returns the dimension-ordered port sequence from src to dst:
// all x hops, then all y hops — the route best-effort packets take and
// the default route for real-time channels. The returned slice is a
// single exact-length allocation.
func XYRoute(src, dst Coord) []int {
	return AppendXYRoute(make([]int, 0, routeLen(src, dst)), src, dst)
}

// AppendXYRoute appends XYRoute(src, dst) to buf, for callers that keep
// a route buffer.
func AppendXYRoute(buf []int, src, dst Coord) []int {
	buf = appendSteps(buf, src.X, dst.X, router.PortXPlus, router.PortXMinus)
	buf = appendSteps(buf, src.Y, dst.Y, router.PortYPlus, router.PortYMinus)
	return append(buf, router.PortLocal)
}

// YXRoute returns the alternate dimension order — all y hops, then all
// x hops. The admission controller uses it as the disjoint fallback
// route when the XY path lacks resources or has failed links (§3.3:
// "the chosen route depends on the resources available at various nodes
// and links in the network").
func YXRoute(src, dst Coord) []int {
	return AppendYXRoute(make([]int, 0, routeLen(src, dst)), src, dst)
}

// AppendYXRoute appends YXRoute(src, dst) to buf.
func AppendYXRoute(buf []int, src, dst Coord) []int {
	buf = appendSteps(buf, src.Y, dst.Y, router.PortYPlus, router.PortYMinus)
	buf = appendSteps(buf, src.X, dst.X, router.PortXPlus, router.PortXMinus)
	return append(buf, router.PortLocal)
}

// appendSteps appends the hops along one dimension from a to b: up
// ports while a < b, down ports while a > b.
func appendSteps(buf []int, a, b, up, down int) []int {
	for ; a < b; a++ {
		buf = append(buf, up)
	}
	for ; a > b; a-- {
		buf = append(buf, down)
	}
	return buf
}

// BEOffsets returns the header offsets that dimension-order a
// best-effort packet from src to dst.
func BEOffsets(src, dst Coord) (x, y int) {
	return dst.X - src.X, dst.Y - src.Y
}

// reversePort maps each link direction to its opposite.
func reversePort(p int) int {
	switch p {
	case router.PortXPlus:
		return router.PortXMinus
	case router.PortXMinus:
		return router.PortXPlus
	case router.PortYPlus:
		return router.PortYMinus
	case router.PortYMinus:
		return router.PortYPlus
	default:
		return p
	}
}

// FailLink severs the bidirectional link leaving `from` through `port`:
// both routers lose the wire, in both directions. In-flight
// time-constrained packets scheduled onto the dead port drain at the
// router (counted as TCDeadPortDrops); best-effort packets toward it
// drop as misroutes. Failing a link that is already down is an error.
// The admission controller must be told separately
// (Controller.MarkFailed) so new channels route around.
func (n *Network) FailLink(from Coord, port int) error {
	if port < 0 || port >= router.NumLinks {
		return fmt.Errorf("mesh: FailLink port %d is not a link", port)
	}
	to := from.Add(port)
	if !n.Contains(from) || !n.Contains(to) {
		return fmt.Errorf("mesh: no link %s→%s", from, router.PortName(port))
	}
	id := canonicalLink(from, port)
	if n.failed[id] {
		return fmt.Errorf("mesh: link %s→%s already failed", from, router.PortName(port))
	}
	n.failed[id] = true
	n.Router(from).ConnectOut(port, nil)
	n.Router(from).ConnectIn(port, nil)
	rp := reversePort(port)
	n.Router(to).ConnectOut(rp, nil)
	n.Router(to).ConnectIn(rp, nil)
	return nil
}

// RepairLink restores a link previously severed by FailLink, rewiring
// both directions with fresh channels. The dead channels' wires stay
// attached to the kernel but their stamps age out, so the cost of a
// flap is bounded and the parallel plan simply rebuilds. Repairing a
// link that is up is an error. Pair with Controller.MarkRepaired so new
// admissions may use the link again.
func (n *Network) RepairLink(from Coord, port int) error {
	if port < 0 || port >= router.NumLinks {
		return fmt.Errorf("mesh: RepairLink port %d is not a link", port)
	}
	to := from.Add(port)
	if !n.Contains(from) || !n.Contains(to) {
		return fmt.Errorf("mesh: no link %s→%s", from, router.PortName(port))
	}
	id := canonicalLink(from, port)
	if !n.failed[id] {
		return fmt.Errorf("mesh: link %s→%s is not failed", from, router.PortName(port))
	}
	delete(n.failed, id)
	n.wire(from, to, port, reversePort(port))
	return nil
}

// LinkFailed reports whether the link leaving `from` through `port` is
// currently severed.
func (n *Network) LinkFailed(from Coord, port int) bool {
	if port < 0 || port >= router.NumLinks {
		return false
	}
	return n.failed[canonicalLink(from, port)]
}

// TotalStats sums a statistic across all routers. f receives a pointer
// to each router's live Stats struct (no copying); it must only read.
func (n *Network) TotalStats(f func(*router.Stats) int64) int64 {
	var total int64
	for _, r := range n.routers {
		total += f(&r.Stats)
	}
	return total
}

// Loopback is the paper's first-experiment configuration: one router
// whose +x output feeds its own −x input and whose +y output feeds its
// own −y input. A packet injected with offsets (1,1) crosses the chip
// three times — injection→+x, −x→+y, −y→reception — the multi-hop path
// of Section 5.2.
type Loopback struct {
	Kernel *sim.Kernel
	R      *router.Router
}

// NewLoopback builds the loopback configuration.
func NewLoopback(cfg router.Config) (*Loopback, error) {
	k := sim.NewKernel()
	r, err := router.New("loop", cfg)
	if err != nil {
		return nil, err
	}
	k.Register(r)
	router.Loopback(k, r, router.PortXPlus, router.PortXMinus)
	router.Loopback(k, r, router.PortYPlus, router.PortYMinus)
	return &Loopback{Kernel: k, R: r}, nil
}

// MustNewLoopback is NewLoopback for known-good configurations.
func MustNewLoopback(cfg router.Config) *Loopback {
	l, err := NewLoopback(cfg)
	if err != nil {
		panic(err)
	}
	return l
}

// Run advances the loopback rig.
func (l *Loopback) Run(cycles int64) { l.Kernel.Run(cycles) }
