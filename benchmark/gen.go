package main

// The request generator. Every channel request any workload issues comes
// from genRequest, a pure function of (seed, index, mesh size, hot share):
// random access, no state, and no dependency on anything in internal/ —
// the program under test receives only what this file produces.

// request is one generated channel request in plain integers.
type request struct {
	SX, SY, DX, DY int
	Imin           int64 // slots between messages
	Smax           int   // bytes per message
	D              int64 // end-to-end bound, slots
}

// contracts is the traffic-contract menu; a request draws one uniformly.
// The last entry is the two-packet contract.
var contracts = [...]struct {
	Imin int64
	Smax int
}{{16, 18}, {24, 18}, {48, 18}, {32, 36}}

// Destination mix in percent. The transpose share is fixed; what the hot
// share does not take goes to uniform destinations.
const (
	defaultHotPct = 25
	layoutHotPct  = 50
	transposePct  = 15
)

// Deadline rule D = slotsPerHop·hops + slackSlots with hops = Manhattan
// distance + 1. README.md ("The D rule") has the probe that chose 12: at 8
// and 10 admitted channels miss deadlines on the dataplane.
const (
	slotsPerHop = 12
	slackSlots  = 16
)

// splitmix64 is the stream behind every draw: one multiply-xorshift round
// per value, seeded from (seed, index) so requests are independent.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

func newStream(seed uint64, index int) splitmix64 {
	s := splitmix64(seed*0xd1342543de82ef95 + uint64(index))
	s.next()
	return s
}

// hotNodes are the four fixed hot destinations of a w×h mesh.
func hotNodes(w, h int) [4][2]int {
	return [4][2]int{{w / 4, h / 4}, {3 * w / 4, h / 4}, {w / 4, 3 * h / 4}, {3 * w / 4, 3 * h / 4}}
}

// genRequest returns request number index of the stream named by seed on
// a w×h mesh (w, h ≥ 2), sending hotPct percent of requests to a hot node.
func genRequest(seed uint64, index, w, h, hotPct int) request {
	s := newStream(seed, index)
	r := request{SX: s.intn(w), SY: s.intn(h)}
	switch p := s.intn(100); {
	case p < hotPct:
		hn := hotNodes(w, h)[s.intn(4)]
		r.DX, r.DY = hn[0], hn[1]
	case p < hotPct+transposePct && r.SX < h && r.SY < w:
		r.DX, r.DY = r.SY, r.SX
	default:
		r.DX, r.DY = s.intn(w), s.intn(h)
	}
	if r.DX == r.SX && r.DY == r.SY {
		// A channel to oneself is not a request; move along the row.
		r.DX = (r.SX + 1 + s.intn(w-1)) % w
	}
	c := contracts[s.intn(len(contracts))]
	r.Imin, r.Smax = c.Imin, c.Smax
	hops := abs(r.DX-r.SX) + abs(r.DY-r.SY) + 1
	r.D = int64(slotsPerHop*hops + slackSlots)
	return r
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
