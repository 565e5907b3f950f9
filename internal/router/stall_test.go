package router

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
)

// stallRig is U → A → a sink the test plays: U sources best-effort frames
// two hops east, A forwards them out of +x into a channel whose far end
// returns flit credits only when the script says so. With credits held
// back A's +x stalls, then U's +x behind A's full input buffer. Credits
// spent into a link that is then cut never return, so an output relinked
// after a stall stalls on the first flit it binds.
type stallRig struct {
	t       *testing.T
	k       *sim.Kernel
	u, a    *Router
	reg     *metrics.Registry
	sink    *Channel
	blocks  map[string]int // EvBlock events per router
	slept   int            // cycles A's +x spent asleep and unwoken
	sleptAt map[int64]bool // script cycles that found the port they act on asleep
}

func newStallRig(t *testing.T, oracle bool) *stallRig {
	s := &stallRig{
		t: t, k: sim.NewKernel(), reg: metrics.NewRegistry(),
		u: MustNew("U", DefaultConfig()), a: MustNew("A", DefaultConfig()),
		blocks: map[string]int{}, sleptAt: map[int64]bool{},
	}
	for _, x := range []*Router{s.u, s.a} {
		x := x
		if oracle {
			s.k.Register(fullScan{x})
		} else {
			s.k.Register(x)
		}
		x.AttachMetrics(s.reg.Router(x.name))
		x.OnLifecycle = func(e LifecycleEvent) {
			if e.Kind == EvBlock {
				s.blocks[x.name]++
			}
		}
	}
	s.linkUA()
	s.linkSink()
	return s
}

func (s *stallRig) linkUA() {
	ua, au := NewChannel(s.k), NewChannel(s.k)
	s.u.ConnectOut(PortXPlus, ua.Out())
	s.a.ConnectIn(PortXMinus, ua.In())
	s.a.ConnectOut(PortXMinus, au.Out())
	s.u.ConnectIn(PortXPlus, au.In())
}

func (s *stallRig) linkSink() {
	s.sink = NewChannel(s.k)
	s.a.ConnectOut(PortXPlus, s.sink.Out())
}

const (
	stallReset  = 100 // ResetStats with both +x ports asleep
	stallFold   = 150 // a fold in the middle of the episode
	stallCredit = 200 // three credits return: A's +x wakes, sends three flits, stalls again
	stallCutOut = 260 // A's +x link is cut with the port asleep
	stallNewOut = 300 // a new sink channel: A's +x stalls at once
	stallCutIn  = 360 // the U–A link is cut with A's +x asleep on a frame from it
	stallNewIn  = 400 // a new U–A link: U's +x stalls at once
	stallBlame  = 450 // attribution on in the middle of U's episode
	stallDrain  = 600 // from here the sink returns a credit every cycle
	stallEnd    = 900
)

// script is what the world does before cycle c.
func (s *stallRig) script(c int64) {
	switch c {
	case stallReset:
		s.u.ResetStats()
		s.a.ResetStats()
	case stallFold, stallEnd - 1:
		s.u.FoldMetrics()
		s.a.FoldMetrics()
	case stallCutOut:
		s.sleptAt[c] = s.asleep(s.a)
		s.a.ConnectOut(PortXPlus, nil)
	case stallNewOut:
		s.linkSink()
	case stallCutIn:
		s.sleptAt[c] = s.asleep(s.a)
		s.u.ConnectOut(PortXPlus, nil)
		s.a.ConnectIn(PortXMinus, nil)
		s.u.ConnectIn(PortXPlus, nil)
		s.a.ConnectOut(PortXMinus, nil)
	case stallNewIn:
		s.linkUA()
	case stallBlame:
		s.sleptAt[c] = s.asleep(s.u)
		s.u.EnableBlame()
		s.a.EnableBlame()
	}
	if c >= stallDrain || c >= stallCredit && c < stallCredit+3 {
		s.sink.In().DriveAck(c, packet.Ack{BECredit: true})
	}
	topUpBE(s.t, s.u, 2, 0, 16)
}

// asleep reports that x's +x sleeps on a credit stall and no wake has
// reached it.
func (s *stallRig) asleep(x *Router) bool {
	return x.stallSleep&^x.portWork&(1<<PortXPlus) != 0
}

// stallObs is what the two rigs must agree on after every cycle.
type stallObs struct {
	stats  [2]Stats
	counts [2]metrics.RouterCounts
	blocks map[string]int
	snap   []metrics.RouterSnapshot
}

func (s *stallRig) observe() stallObs {
	return stallObs{
		stats:  [2]Stats{s.u.Stats, s.a.Stats},
		counts: [2]metrics.RouterCounts{s.u.counts(), s.a.counts()},
		blocks: s.blocks,
		snap:   s.reg.Snapshot().Routers,
	}
}

// TestCreditStallSleepsExactly: ports asleep on a credit stall count the
// same stall cycles, raise the same EvBlock events and fold the same
// rt_be_stall_cycles as under the full-scan oracle, which visits every
// port every cycle — across a ResetStats and a metrics fold in the middle
// of an episode, a returning credit, the stalled output's link cut under
// it, the bound input's link cut under it (its frame discarded), and
// attribution switched on mid-episode. checkIndexes holds every port
// left asleep to the exact stall state after every cycle.
func TestCreditStallSleepsExactly(t *testing.T) {
	prod, orac := newStallRig(t, false), newStallRig(t, true)
	for c := int64(0); c < stallEnd; c++ {
		prod.script(c)
		orac.script(c)
		prod.k.Step()
		orac.k.Step()
		if got, want := prod.observe(), orac.observe(); !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d:\nTick:      %+v\nfull scan: %+v", c, got, want)
		}
		checkIndexes(t, prod.u, c)
		checkIndexes(t, prod.a, c)
		if prod.asleep(prod.a) {
			prod.slept++
		}
	}
	st := prod.a.counts().BEStallCycles[PortXPlus]
	switch {
	case prod.slept < 200:
		t.Errorf("A's +x slept %d cycles", prod.slept)
	case !prod.sleptAt[stallCutOut] || !prod.sleptAt[stallCutIn] || !prod.sleptAt[stallBlame]:
		t.Errorf("the script acted on a port awake: %v", prod.sleptAt)
	case prod.blocks["A"] < 3 || prod.blocks["U"] < 2:
		t.Errorf("stall episodes: %v", prod.blocks)
	case st < 150 || prod.u.counts().BEStallCycles[PortXPlus] < 300:
		t.Errorf("stall cycles since the reset: A %d, U %d", st, prod.u.counts().BEStallCycles[PortXPlus])
	case prod.a.Stats.BETruncated == 0:
		t.Error("no worm truncated at A's cut output")
	case prod.a.counts().Drops[metrics.DropBETruncated] < 2:
		t.Error("no worm truncated at A's cut input")
	}
}
