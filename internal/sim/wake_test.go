package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// wnode is a Sleeper for the wake-list differential: it forwards tokens
// to its peers, over a delay line or by a direct push, and fires a timed
// token of its own every period cycles. A tick with nothing to do only
// counts an idle cycle, which Skip replays in closed form.
type wnode struct {
	name   string
	alarm  *Alarm
	in     []*Pipe[int]
	out    []*Pipe[int]
	peers  []*wnode
	inbox  []int
	period Cycle
	due    Cycle
	idle   int64
	log    []string
}

func (n *wnode) Name() string { return n.name }

func (n *wnode) Tick(now Cycle) {
	var got []int
	for _, p := range n.in {
		if v := p.Read(now); v != 0 {
			got = append(got, v)
		}
	}
	got = append(got, n.inbox...)
	n.inbox = n.inbox[:0]
	if now == n.due {
		got = append(got, 7+int(now)%5)
		n.due = now + n.period
	}
	if len(got) == 0 {
		n.idle++
		return
	}
	for _, v := range got {
		n.log = append(n.log, fmt.Sprintf("@%d:%d", now, v))
		if v--; v == 0 {
			continue
		}
		if v%3 == 0 {
			peer := n.peers[v%len(n.peers)]
			peer.alarm.Wake()
			peer.inbox = append(peer.inbox, v)
		} else {
			n.out[v%len(n.out)].Write(now, v)
		}
	}
}

func (n *wnode) NextWork(now Cycle) Cycle {
	if len(n.inbox) > 0 {
		return now
	}
	next := n.due
	for _, p := range n.in {
		for c := now; c < now+Cycle(p.Latency()) && c < next; c++ {
			if p.Read(c) != 0 {
				next = c
			}
		}
	}
	return next
}

func (n *wnode) Skip(now, target Cycle) { n.idle += int64(target - now) }

func (n *wnode) SetAlarm(a *Alarm) {
	n.alarm = a
	for _, p := range n.in {
		p.SetReader(a)
	}
}

// idleTicks is the settled idle count, as a read accessor must give it.
func (n *wnode) idleTicks() int64 {
	n.alarm.Settle()
	return n.idle
}

// buildWakeNet registers n nodes on k, each wired to two peers by delay
// lines of 1–4 cycles and able to push into two more. The pushes are
// direct calls, so every node shares one shard, which the worker pool
// ticks in registration order. With control, a no-op barrier keeps every
// entry awake: the every-cycle loop.
func buildWakeNet(k *Kernel, n int, control bool) []*wnode {
	rng := rand.New(rand.NewSource(3))
	nodes := make([]*wnode, n)
	for i := range nodes {
		nodes[i] = &wnode{name: fmt.Sprint("n", i), period: Cycle(40 + rng.Intn(200)), due: Cycle(rng.Intn(100))}
	}
	for i, nd := range nodes {
		for _, d := range []int{1, n / 2} {
			j := (i + d) % n
			p := NewPipe[int](int64(1 + rng.Intn(4)))
			k.AttachPipe(p, 0, 0)
			nd.out = append(nd.out, p)
			nodes[j].in = append(nodes[j].in, p)
		}
		nd.peers = []*wnode{nodes[(i+n-1)%n], nodes[(i+3)%n]}
	}
	for _, nd := range nodes {
		k.RegisterShard(0, nd)
	}
	if control {
		k.Register(&funcComp{"barrier", func(Cycle) {}})
	}
	return nodes
}

type wakeObs struct {
	logs [][]string
	idle []int64
}

func observe(nodes []*wnode) wakeObs {
	var o wakeObs
	for _, n := range nodes {
		o.logs = append(o.logs, append([]string(nil), n.log...))
		o.idle = append(o.idle, n.idleTicks())
	}
	return o
}

// TestWakeListMatchesEveryCycle is the wake list's differential: a net of
// nodes that forward tokens over delay lines and by pushes, woken by
// timers, arrivals and pushes from either side of them in registration
// order, must log every token at the same cycle and count the same idle
// cycles as the every-cycle loop, after every Run chunk, every Step,
// every RunUntil whose predicate reads a settled accessor, and across a
// stretch on the worker pool — while sleeping through most of its
// component-cycles.
func TestWakeListMatchesEveryCycle(t *testing.T) {
	const n = 10
	ref, k := NewKernel(), NewKernel()
	refNodes, nodes := buildWakeNet(ref, n, true), buildWakeNet(k, n, false)
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 120; round++ {
		switch op := rng.Intn(6); {
		case op == 0:
			ref.Step()
			k.Step()
		case op == 1:
			// A predicate reading a sleeper each cycle stops both kernels
			// at the same cycle.
			want := refNodes[3].idleTicks() + int64(rng.Intn(40))
			a := ref.RunUntil(func() bool { return refNodes[3].idleTicks() >= want }, 200)
			b := k.RunUntil(func() bool { return nodes[3].idleTicks() >= want }, 200)
			if a != b {
				t.Fatalf("round %d: RunUntil %v, control %v", round, b, a)
			}
		case op == 2 && round > 40 && round < 60:
			k.SetWorkers(2)
			k.ForcePool(true)
			c := int64(1 + rng.Intn(30))
			ref.Run(c)
			k.Run(c)
			k.Close()
		default:
			c := int64(1 + rng.Intn(300))
			ref.Run(c)
			k.Run(c)
		}
		if k.Now() != ref.Now() {
			t.Fatalf("round %d: clock %d, control %d", round, k.Now(), ref.Now())
		}
		if got, want := observe(nodes), observe(refNodes); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d (cycle %d): wake list diverged from the every-cycle loop\ngot  %v\nwant %v",
				round, k.Now(), got, want)
		}
	}
	ticked, slept := k.Activity(nil)
	if ticked+slept != int64(k.Now())*n || slept < ticked {
		t.Errorf("activity: %d ticked, %d slept over %d cycles of %d nodes", ticked, slept, k.Now(), n)
	}
	if ticked, slept := ref.Activity(nil); slept != 0 || ticked != int64(ref.Now())*(n+1) {
		t.Errorf("control activity: %d ticked, %d slept; a barrier must keep everyone awake", ticked, slept)
	}
	var tokens int
	for _, nd := range nodes {
		tokens += len(nd.log)
	}
	if tokens < 500 {
		t.Errorf("only %d tokens logged: the net exercised nothing", tokens)
	}
}

// TestWakeListJumpsWhenAllAsleep: with nobody awake the clock jumps
// straight to the first timer, and a pipe read by a component that lent
// no alarm keeps everyone awake.
func TestWakeListJumpsWhenAllAsleep(t *testing.T) {
	k := NewKernel()
	c := &skipComp{period: 1000}
	k.RegisterShard(0, c)
	k.Run(5000)
	if c.works != 5 || c.skips != 4 {
		t.Fatalf("%d works, %d skips; want 5 and 4", c.works, c.skips)
	}
	if ticked, slept := k.Activity(nil); ticked != 5 || slept != 4995 {
		t.Fatalf("activity %d ticked, %d slept; want 5 and 4995", ticked, slept)
	}
	k.AttachPipe(NewPipe[int](2), 0, 0)
	k.Run(100)
	if ticked, _ := k.Activity(nil); ticked != 105 || c.ticks != 5100 {
		t.Fatalf("an unannounced pipe left the component asleep: %d ticked, %d ticks", ticked, c.ticks)
	}
}
