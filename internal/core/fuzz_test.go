package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mesh"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/sched"
	"repro/internal/sim"
)

// FuzzMeshTick drives a 3×3 mesh with a fuzzer-chosen op program: sends on
// four real-time channels, best-effort frames between any two nodes,
// horizon writes, link failures and repairs, ResetStats, and Run chunks
// of 1–17 cycles. Each program runs on three kernels: the sequential one,
// whose wake list puts resting routers, pacers and sinks to sleep, the
// two-worker pool, whose tiles do the same on wake lists of their own,
// and a kernel a barrier keeps awake, which ticks every component every
// cycle. After every chunk the two wake lists must agree with the
// every-cycle loop on every router's counters, rest-tick counts and
// comparator-tree selections. After the program, every link is repaired
// and the mesh drained: every time-constrained packet a pacer released
// must be delivered or dropped, every best-effort frame delivered,
// aborted or misrouted, every packet-memory slot free, and the three
// kernels still in agreement.
//
//	go test -fuzz=FuzzMeshTick -fuzztime=20s -run '^$' ./internal/core/
func FuzzMeshTick(f *testing.F) {
	// Sends, a best-effort frame, runs.
	f.Add([]byte{0, 6, 9, 1, 2, 2, 7, 16, 2, 5, 3, 7, 3})
	// A link fails and comes back mid-traffic.
	f.Add([]byte{0, 6, 4, 4, 2, 6, 12, 1, 7, 16, 4, 4, 6, 30, 5, 7})
	// A horizon write and a reset around sends.
	f.Add([]byte{3, 4, 31, 9, 0, 1, 6, 40, 5, 0, 2, 7, 2, 6, 90})
	// Packets parked across chunks.
	f.Add([]byte{0, 0, 0, 1, 6, 16, 7, 16, 0, 2, 6, 16, 7, 16, 6, 16, 5, 7, 16, 0, 3, 7, 16, 6, 16, 7, 16})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 96 {
			prog = prog[:96]
		}
		ctl, seq, par := newFuzzMesh(t, 1, true), newFuzzMesh(t, 1, false), newFuzzMesh(t, 2, false)
		legs := []*fuzzMesh{ctl, seq, par}
		for _, m := range legs {
			defer m.sys.Close()
		}
		agree := func(when string) {
			want := ctl.observe()
			for _, m := range legs[1:] {
				if got := m.observe(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: the wake list at %s diverged from the every-cycle loop:\n%+v\n%+v", when, m.name, got, want)
				}
			}
		}
		for i := 0; i < len(prog); i++ {
			arg := func() int {
				if i+1 < len(prog) {
					i++
					return int(prog[i])
				}
				return 0
			}
			switch op := prog[i] % 8; op {
			case 0, 1:
				k := arg()
				for _, m := range legs {
					m.send(k)
				}
			case 2:
				src, dst := arg(), arg()
				for _, m := range legs {
					m.sendBE(t, src, dst)
				}
			case 3:
				at, mask, h := arg(), arg(), arg()
				for _, m := range legs {
					m.horizon(t, at, mask, h)
				}
			case 4:
				l := arg()
				for _, m := range legs {
					m.toggleLink(t, l)
				}
			case 5:
				for _, m := range legs {
					m.reset()
				}
			default:
				n := int64(1 + arg()%17)
				for _, m := range legs {
					m.sys.Run(n)
				}
				agree(fmt.Sprintf("op %d, cycle %d", i, ctl.sys.Now()))
			}
		}
		for _, m := range legs {
			m.drain(t)
		}
		agree("after the drain")
	})
}

// fuzzMesh is one system of the fuzzer with what it has sent.
type fuzzMesh struct {
	name   string
	sys    *System
	chans  []*Channel
	failed map[int]bool
	beSent int64
	// done holds the sink and drop totals wiped by each ResetStats.
	done Summary
}

// fuzzLinks are the 3×3 mesh's twelve links, by their +x/+y end.
var fuzzLinks = func() (l [][2]int) {
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			if x < 2 {
				l = append(l, [2]int{y*3 + x, router.PortXPlus})
			}
			if y < 2 {
				l = append(l, [2]int{y*3 + x, router.PortYPlus})
			}
		}
	}
	return l
}()

// newFuzzMesh builds the fuzzer's mesh on the given kernel: workers > 1
// is the pool, and control adds a barrier that keeps everyone awake.
func newFuzzMesh(t *testing.T, workers int, control bool) *fuzzMesh {
	sys := MustNewMesh(3, 3, Options{Workers: workers})
	if workers > 1 {
		sys.Net.Kernel.ForcePool(true)
	}
	if control {
		sys.Net.Kernel.Register(keepAwake{})
	}
	m := &fuzzMesh{name: fmt.Sprintf("workers %d, control %v", workers, control), sys: sys, failed: make(map[int]bool)}
	for _, r := range [][2]mesh.Coord{
		{{X: 0, Y: 0}, {X: 2, Y: 2}},
		{{X: 2, Y: 0}, {X: 0, Y: 1}},
		{{X: 1, Y: 2}, {X: 1, Y: 0}},
		{{X: 2, Y: 2}, {X: 0, Y: 0}},
	} {
		ch, err := sys.OpenChannel(r[0], []mesh.Coord{r[1]}, rtc.Spec{Imin: 6, Smax: 18, D: 60})
		if err != nil {
			t.Fatal(err)
		}
		m.chans = append(m.chans, ch)
	}
	return m
}

func (m *fuzzMesh) node(i int) mesh.Coord { return m.sys.Net.Coords()[i%9] }

func (m *fuzzMesh) send(k int) {
	// The channels stay open and the payload fits, so Send cannot fail;
	// a burst beyond the contract is carried and counted, not refused.
	_ = m.chans[k%len(m.chans)].Send([]byte{byte(k)})
}

func (m *fuzzMesh) sendBE(t *testing.T, src, dst int) {
	if src%9 == dst%9 {
		return
	}
	if err := m.sys.SendBestEffort(m.node(src), m.node(dst), make([]byte, 16+dst%48)); err != nil {
		t.Fatal(err)
	}
	m.beSent++
}

func (m *fuzzMesh) horizon(t *testing.T, at, mask, h int) {
	if err := m.sys.Router(m.node(at)).SetHorizon(sched.PortMask(mask&31), uint8(h%12)); err != nil {
		t.Fatal(err)
	}
}

func (m *fuzzMesh) toggleLink(t *testing.T, l int) {
	l %= len(fuzzLinks)
	from, port := m.node(fuzzLinks[l][0]), fuzzLinks[l][1]
	var err error
	if m.failed[l] {
		err = m.sys.Net.RepairLink(from, port)
	} else {
		err = m.sys.Net.FailLink(from, port)
	}
	if err != nil {
		t.Fatal(err)
	}
	m.failed[l] = !m.failed[l]
}

func (m *fuzzMesh) reset() {
	m.fold()
	m.sys.ResetStats()
}

// fold adds the counts a ResetStats is about to wipe. A best-effort
// frame routed into a failed link is dropped as a misroute.
func (m *fuzzMesh) fold() {
	s := m.sys.Summarize()
	for _, c := range m.sys.Net.Coords() {
		m.done.TCDelivered += m.sys.Sink(c).TCCount
		m.done.BEDelivered += m.sys.Sink(c).BECount
		m.done.BEAborts += m.sys.Router(c).Stats.BEMisroutes
	}
	m.done.TCDrops += s.TCDrops
	m.done.BEAborts += s.BEAborts
}

type fuzzObs struct {
	stats                          []router.Stats
	idle, parked, selects, overdue []int64
}

func (m *fuzzMesh) observe() fuzzObs {
	var o fuzzObs
	for _, c := range m.sys.Net.Coords() {
		r := m.sys.Router(c)
		tree := r.Scheduler().(*sched.EDFTree)
		o.stats = append(o.stats, r.Stats)
		o.idle, o.parked = append(o.idle, r.IdleTicks()), append(o.parked, r.ParkedTicks())
		o.selects, o.overdue = append(o.selects, tree.Selects), append(o.overdue, tree.Overdue)
	}
	return o
}

// drain repairs every failed link, runs the mesh quiet and checks that
// everything sent ended in a bucket and no memory slot leaked.
func (m *fuzzMesh) drain(t *testing.T) {
	for l := range fuzzLinks {
		if m.failed[l] {
			m.toggleLink(t, l)
		}
	}
	m.sys.Run(6000)
	m.fold()
	var sent int64
	for _, ch := range m.chans {
		sent += ch.Paced().Sent * int64(ch.Spec().PacketsPerMessage())
	}
	if sent != m.done.TCDelivered+m.done.TCDrops {
		t.Errorf("%s: %d time-constrained packets released, %d delivered, %d dropped",
			m.name, sent, m.done.TCDelivered, m.done.TCDrops)
	}
	if m.beSent != m.done.BEDelivered+m.done.BEAborts {
		t.Errorf("%s: %d best-effort frames sent, %d delivered, %d aborted or misrouted",
			m.name, m.beSent, m.done.BEDelivered, m.done.BEAborts)
	}
	for _, c := range m.sys.Net.Coords() {
		if free := m.sys.Router(c).FreeSlots(); free != router.DefaultConfig().Slots {
			t.Errorf("%s: router %s holds %d memory slots after the drain", m.name, c, router.DefaultConfig().Slots-free)
		}
	}
}

// keepAwake is a barrier component that does nothing: registered on a
// kernel, it keeps every component awake, which makes the kernel the
// every-cycle loop the wake lists are checked against.
type keepAwake struct{}

func (keepAwake) Name() string   { return "keep-awake" }
func (keepAwake) Tick(sim.Cycle) {}
