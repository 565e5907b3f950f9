// Package fault injects deterministic, seed-reproducible link faults
// into a mesh of real-time routers.
//
// The injector models transient wire errors — the kind the paper's
// router tolerates through reserved slack rather than retransmission
// for time-constrained traffic, and through link-level recovery for
// best-effort traffic. Two kinds are supported:
//
//   - Corrupt: a phit's data byte is garbled in place. The frame
//     checksum (time-constrained) or flit checksum (best-effort)
//     catches it at the next router.
//   - Lose: a phit vanishes from the wire. Time-constrained phits are
//     erased outright (the receiver's framing logic detects the gap);
//     best-effort phits are instead mangled beyond recognition, because
//     silently erasing one would shift the wormhole byte stream and
//     defeat flit-level detection.
//
// Faults arrive per directed link under a Gilbert-Elliott two-state
// process: a Good state that never errors and a Bad state that always
// does, with transition probabilities chosen so the steady-state error
// rate is Config.Rate and the mean error-burst length is Config.Burst
// phits. Burst ≤ 1 degenerates to independent (Bernoulli) errors.
//
// Determinism: each directed link owns a private PRNG seeded from
// (injector seed, receiving coordinate, receiving port), advanced once
// per valid phit sampled on that wire. Fault placement therefore
// depends only on the seed and the traffic itself — never on worker
// count or wall-clock — so faulted runs are bit-identical across
// kernel parallelism settings. The per-link state is touched only
// inside the receiving router's tick, which the parallel kernel already
// serializes per router, so no locking is needed.
//
// Detection requires router.Config.Integrity; without it, corrupted
// bytes pass silently and lost time-constrained phits desynchronize
// frame assembly. The scenario and experiment layers enable Integrity
// whenever they install an injector.
package fault

import (
	"fmt"
	"math/rand"

	"repro/internal/mesh"
	"repro/internal/packet"
	"repro/internal/router"
)

// Kind selects what happens to a phit chosen by the error process.
type Kind int

const (
	// Corrupt garbles the phit's data byte in place.
	Corrupt Kind = iota
	// Lose removes the phit from the wire (time-constrained) or mangles
	// it beyond checksum recognition (best-effort).
	Lose
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Corrupt:
		return "corrupt"
	case Lose:
		return "lose"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config describes one fault process on a link.
type Config struct {
	Kind Kind
	// Rate is the steady-state per-phit fault probability, in (0, 1).
	Rate float64
	// Burst is the mean fault-burst length in phits. Values ≤ 1 give
	// independent per-phit faults.
	Burst float64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Kind != Corrupt && c.Kind != Lose:
		return fmt.Errorf("fault: unknown kind %d", int(c.Kind))
	case c.Rate <= 0 || c.Rate >= 1:
		return fmt.Errorf("fault: rate %v outside (0,1)", c.Rate)
	case c.Burst < 0:
		return fmt.Errorf("fault: negative burst %v", c.Burst)
	}
	return nil
}

// Stats aggregates what the injector did across all links.
type Stats struct {
	CorruptedPhits int64
	LostPhits      int64
}

// linkState is the fault process of one directed link, owned by the
// receiving router's tick.
type linkState struct {
	cfg      Config
	rng      *rand.Rand
	bad      bool    // Gilbert-Elliott state
	pGB, pBG float64 // Good→Bad, Bad→Good transition probabilities
	stats    Stats
}

func newLinkState(cfg Config, seed int64) *linkState {
	ls := &linkState{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	if cfg.Burst > 1 {
		ls.pBG = 1 / cfg.Burst
		ls.pGB = cfg.Rate * ls.pBG / (1 - cfg.Rate)
		if ls.pGB > 1 {
			ls.pGB = 1
		}
	}
	return ls
}

// step advances the error process by one phit and reports whether this
// phit is hit.
func (ls *linkState) step() bool {
	if ls.cfg.Burst <= 1 {
		return ls.rng.Float64() < ls.cfg.Rate
	}
	hit := ls.bad
	if ls.bad {
		if ls.rng.Float64() < ls.pBG {
			ls.bad = false
		}
	} else if ls.rng.Float64() < ls.pGB {
		ls.bad = true
	}
	return hit
}

// garble returns a guaranteed-nonzero XOR mask.
func (ls *linkState) garble() byte { return byte(1 + ls.rng.Intn(255)) }

// hitKind tells the hook which router counter a fault touched.
type hitKind int

const (
	hitNone hitKind = iota
	hitCorrupt
	hitLost
)

// offer applies the fault process to one sampled phit, value in, value
// out so the hot sampling loop stays allocation-free. Returning
// ok=false erases the phit from the wire.
func (ls *linkState) offer(ph packet.Phit) (out packet.Phit, ok bool, hit hitKind) {
	if !ls.step() {
		return ph, true, hitNone
	}
	if ls.cfg.Kind == Lose {
		ls.stats.LostPhits++
		if ph.VC == packet.VCTime {
			return ph, false, hitLost
		}
		// Best-effort loss: mangle instead of erase, so the byte stream
		// keeps its cadence and the flit checksum rejects the wreck.
		ph.Data ^= ls.garble()
		ph.SideValid = false
		return ph, true, hitLost
	}
	ls.stats.CorruptedPhits++
	ph.Data ^= ls.garble()
	return ph, true, hitCorrupt
}

// Injector owns the fault processes of a mesh and installs them through
// each router's LinkFault hook.
type Injector struct {
	seed  int64
	nodes map[mesh.Coord]*[router.NumLinks]*linkState
	// retired accumulates the counters of cleared fault processes so
	// Stats stays monotonic across arm/clear cycles.
	retired Stats
}

// New creates an injector whose fault placement derives entirely from
// seed.
func New(seed int64) *Injector {
	return &Injector{seed: seed, nodes: make(map[mesh.Coord]*[router.NumLinks]*linkState)}
}

// splitmix is SplitMix64's output function, used to spread the
// (seed, coordinate, port) tuple into independent link seeds.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (in *Injector) linkSeed(rx mesh.Coord, rxPort int) int64 {
	h := splitmix(uint64(in.seed))
	h = splitmix(h ^ uint64(uint32(rx.X))<<32 ^ uint64(uint32(rx.Y)))
	h = splitmix(h ^ uint64(rxPort))
	return int64(h)
}

// InjectLink arms the fault process on the bidirectional link leaving
// from through port (both directions, independent processes), matching
// the granularity of mesh.FailLink.
func (in *Injector) InjectLink(n *mesh.Network, from mesh.Coord, port int, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	to, err := n.LinkEnd(from, port)
	if err != nil {
		return err
	}
	// from→to traffic is sampled at to's peer port; to→from at from's
	// own port.
	in.arm(n, to, router.PeerPort(port), cfg)
	in.arm(n, from, port, cfg)
	return nil
}

// InjectAll arms every wired link in the mesh with the same fault
// configuration (each direction still gets an independent process).
func (in *Injector) InjectAll(n *mesh.Network, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	for _, c := range n.Coords() {
		for port := 0; port < router.NumLinks; port++ {
			if n.Contains(c.Add(port)) {
				in.arm(n, c, port, cfg)
			}
		}
	}
	return nil
}

// arm installs (or replaces) the fault process for the directed link
// arriving at rx on rxPort, hooking the router on first use.
func (in *Injector) arm(n *mesh.Network, rx mesh.Coord, rxPort int, cfg Config) {
	states := in.nodes[rx]
	if states == nil {
		states = new([router.NumLinks]*linkState)
		in.nodes[rx] = states
		r := n.Router(rx)
		r.LinkFault = func(port int, ph packet.Phit) (packet.Phit, bool) {
			ls := states[port]
			if ls == nil {
				return ph, true
			}
			out, ok, hit := ls.offer(ph)
			if hit != hitNone {
				r.NoteLinkFault(hit == hitLost)
			}
			return out, ok
		}
	}
	states[rxPort] = newLinkState(cfg, in.linkSeed(rx, rxPort))
}

// ClearLink disarms the fault processes on both directions of the link
// leaving from through port. Clearing a link that was never armed is a
// no-op; accumulated counters survive into Stats.
func (in *Injector) ClearLink(from mesh.Coord, port int) {
	in.clear(from.Add(port), router.PeerPort(port))
	in.clear(from, port)
}

func (in *Injector) clear(rx mesh.Coord, rxPort int) {
	states := in.nodes[rx]
	if states == nil || states[rxPort] == nil {
		return
	}
	in.retired.CorruptedPhits += states[rxPort].stats.CorruptedPhits
	in.retired.LostPhits += states[rxPort].stats.LostPhits
	states[rxPort] = nil
}

// Stats sums the per-link fault counters. Call it only while the
// kernel is stopped.
func (in *Injector) Stats() Stats {
	s := in.retired
	for _, states := range in.nodes {
		for _, ls := range states {
			if ls != nil {
				s.CorruptedPhits += ls.stats.CorruptedPhits
				s.LostPhits += ls.stats.LostPhits
			}
		}
	}
	return s
}
