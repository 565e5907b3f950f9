package rtc

import (
	"math/rand"
	"testing"

	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/timing"
)

// nextWorkScan is the scan Pacer.NextWork ran before the pacer kept a
// count of its queued messages.
func nextWorkScan(p *Pacer, now sim.Cycle) sim.Cycle {
	for _, c := range p.chans {
		if c.Pending() > 0 {
			return now
		}
	}
	return sim.Never
}

// TestPacerQueuedTracksQueues drives one pacer through a random mix of
// submissions, releases (the pacer and its router ticking), channel
// removals — of channels with messages still queued, and of a channel
// removed before — new channels, and submissions on a closed channel, and
// checks after every step that the count equals the sum over the
// registered channels' queues and that NextWork answers as the scan did.
func TestPacerQueuedTracksQueues(t *testing.T) {
	k := sim.NewKernel()
	r := router.MustNew("A", router.DefaultConfig())
	p, err := NewPacer("pacer", r, 8)
	if err != nil {
		t.Fatal(err)
	}
	k.Register(p)
	k.Register(r)
	spec := Spec{Imin: 4, Smax: 18, D: 40}
	open := func(conn uint8) *PacedChannel {
		if err := r.SetConnection(conn, conn, 20, 1<<router.PortLocal); err != nil {
			t.Fatal(err)
		}
		c, err := p.Channel(conn, spec, 20)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	check := func(step int, what string) {
		t.Helper()
		sum := 0
		for _, c := range p.chans {
			sum += c.Pending()
		}
		if p.queued != sum {
			t.Fatalf("step %d (%s): queued = %d, the channels hold %d", step, what, p.queued, sum)
		}
		if got, want := p.NextWork(k.Now()), nextWorkScan(p, k.Now()); got != want {
			t.Fatalf("step %d (%s): NextWork = %d, the scan says %d", step, what, got, want)
		}
	}

	rng := rand.New(rand.NewSource(11))
	var live, closed []*PacedChannel
	nextConn := uint8(1)
	for ; nextConn <= 4; nextConn++ {
		live = append(live, open(nextConn))
	}
	var released, removedQueued, refused, sawNever int
	for step := 0; step < 6000; step++ {
		what := "tick"
		switch x := rng.Intn(100); {
		case x < 45 && len(live) > 0:
			what = "submit"
			c := live[rng.Intn(len(live))]
			slot := timing.CyclesToSlot(int64(k.Now()), 20)
			if err := c.Submit(slot, []byte{byte(step)}); err != nil {
				t.Fatal(err)
			}
		case x < 50 && len(live) > 1:
			what = "remove"
			i := rng.Intn(len(live))
			c := live[i]
			if c.Pending() > 0 {
				removedQueued++
			}
			p.Remove(c)
			live = append(live[:i], live[i+1:]...)
			closed = append(closed, c)
		case x < 53 && len(closed) > 0:
			what = "remove again"
			p.Remove(closed[rng.Intn(len(closed))])
		case x < 58 && len(closed) > 0:
			what = "submit on closed"
			if err := closed[rng.Intn(len(closed))].Submit(0, []byte{1}); err == nil {
				t.Fatal("closed channel accepted a message")
			}
			refused++
		case x < 61 && nextConn < 250:
			what = "open"
			live = append(live, open(nextConn))
			nextConn++
		default:
			var sent int64
			for _, c := range live {
				sent -= c.Sent
			}
			k.Run(int64(1 + rng.Intn(60)))
			for _, c := range live {
				sent += c.Sent
			}
			released += int(sent)
			r.DrainTC()
		}
		check(step, what)
		if p.queued == 0 {
			sawNever++
		}
	}
	if released < 500 || removedQueued == 0 || refused == 0 || sawNever == 0 {
		t.Errorf("script missed a case: %d releases, %d removals with messages queued, %d refused submissions, %d steps with empty queues",
			released, removedQueued, refused, sawNever)
	}
}
