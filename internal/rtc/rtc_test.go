package rtc

import (
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/timing"
)

func TestSpecValidate(t *testing.T) {
	good := Spec{Imin: 8, Smax: 18, Bmax: 2, D: 40}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{Imin: 0, Smax: 18, D: 40},
		{Imin: 8, Smax: 0, D: 40},
		{Imin: 8, Smax: 18, Bmax: -1, D: 40},
		{Imin: 8, Smax: 18, D: 0},
		{Imin: 2, Smax: 60, D: 40}, // 4 packets per message > Imin of 2
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

func TestPacketsPerMessage(t *testing.T) {
	cases := []struct {
		smax, want int
	}{{1, 1}, {18, 1}, {19, 2}, {36, 2}, {37, 3}, {100, 6}}
	for _, c := range cases {
		s := Spec{Imin: 100, Smax: c.smax, D: 100}
		if got := s.PacketsPerMessage(); got != c.want {
			t.Errorf("Smax %d: packets = %d, want %d", c.smax, got, c.want)
		}
		if s.MessageSlots() != int64(c.want) {
			t.Errorf("Smax %d: slots = %d, want %d", c.smax, s.MessageSlots(), c.want)
		}
	}
}

// TestSourceLogicalArrival reproduces the ℓ0 recurrence of Section 2.
func TestSourceLogicalArrival(t *testing.T) {
	s := NewSource(Spec{Imin: 10, Smax: 18, D: 40})
	// First message at t=5: ℓ0 = 5.
	if l := s.Next(5); l != 5 {
		t.Errorf("first ℓ0 = %d, want 5", l)
	}
	// Burst at t=6: ℓ0 = 15 (periodic restriction dominates).
	if l := s.Next(6); l != 15 {
		t.Errorf("burst ℓ0 = %d, want 15", l)
	}
	// Late message at t=100: ℓ0 resets to generation time.
	if l := s.Next(100); l != 100 {
		t.Errorf("late ℓ0 = %d, want 100", l)
	}
	if s.Messages() != 3 {
		t.Errorf("Messages = %d, want 3", s.Messages())
	}
}

func TestSourceBacklog(t *testing.T) {
	s := NewSource(Spec{Imin: 10, Smax: 18, D: 40})
	if s.Backlog(0) != 0 {
		t.Error("backlog before first message")
	}
	s.Next(0)
	s.Next(0)
	s.Next(0) // ℓ0 = 20 while t = 0
	if got := s.Backlog(0); got != 20 {
		t.Errorf("backlog = %d, want 20", got)
	}
	if got := s.Backlog(25); got != 0 {
		t.Errorf("backlog after catch-up = %d, want 0", got)
	}
}

// Property: ℓ0 is non-decreasing and consecutive values are at least
// Imin apart whenever the source is backlogged.
func TestSourceMonotoneQuick(t *testing.T) {
	prop := func(times []uint16) bool {
		s := NewSource(Spec{Imin: 7, Smax: 18, D: 40})
		var prev timing.Slot = -1 << 30
		var tprev timing.Slot
		for _, raw := range times {
			ti := tprev + timing.Slot(raw%50) // non-decreasing generation times
			tprev = ti
			l := s.Next(ti)
			if l < prev {
				return false
			}
			if prev > ti && l-prev < 7 {
				return false // was backlogged: spacing must be ≥ Imin
			}
			if l < ti {
				return false // never before generation
			}
			prev = l
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBufferBound(t *testing.T) {
	spec := Spec{Imin: 8, Smax: 18, D: 40}
	// prev window 10, local d 10: ceil(20/8) = 3 messages of 1 packet.
	if got := BufferBound(10, 10, spec); got != 3 {
		t.Errorf("BufferBound = %d, want 3", got)
	}
	// Zero window, tiny delay: still at least one packet.
	if got := BufferBound(0, 1, spec); got != 1 {
		t.Errorf("BufferBound = %d, want 1", got)
	}
	// Multi-packet messages scale the bound.
	spec.Smax = 36
	if got := BufferBound(10, 10, spec); got != 6 {
		t.Errorf("BufferBound (2-packet msgs) = %d, want 6", got)
	}
}

// TestPacerReleasesWithinWindow checks the regulator holds messages
// until ℓ0 − now ≤ window.
func TestPacerReleasesWithinWindow(t *testing.T) {
	k := sim.NewKernel()
	r := router.MustNew("A", router.DefaultConfig())
	p, err := NewPacer("pacer", r, 2)
	if err != nil {
		t.Fatal(err)
	}
	k.Register(p)
	k.Register(r)
	if err := r.SetConnection(1, 9, 10, 1<<router.PortLocal); err != nil {
		t.Fatal(err)
	}
	ch, err := p.Channel(1, Spec{Imin: 10, Smax: 18, D: 40}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Three messages submitted at slot 0: ℓ0 = 0, 10, 20.
	for i := 0; i < 3; i++ {
		if err := ch.Submit(0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// At slot 0 only ℓ0=0 is within window 2.
	k.Run(packet.TCBytes) // one slot
	if ch.Sent != 1 {
		t.Errorf("after slot 0: sent %d, want 1", ch.Sent)
	}
	// By slot 8 (=10−2) the second releases.
	k.Run(8 * packet.TCBytes)
	if ch.Sent != 2 {
		t.Errorf("after slot 8: sent %d, want 2", ch.Sent)
	}
	k.Run(10 * packet.TCBytes)
	if ch.Sent != 3 {
		t.Errorf("after slot 18: sent %d, want 3", ch.Sent)
	}
	if ch.Pending() != 0 {
		t.Errorf("pending = %d, want 0", ch.Pending())
	}
}

// TestPacerEndToEnd drives a paced channel through a router to local
// delivery and checks stamps carry ℓ0.
func TestPacerEndToEnd(t *testing.T) {
	k := sim.NewKernel()
	r := router.MustNew("A", router.DefaultConfig())
	p, err := NewPacer("pacer", r, 0)
	if err != nil {
		t.Fatal(err)
	}
	k.Register(p)
	k.Register(r)
	if err := r.SetConnection(1, 9, 5, 1<<router.PortLocal); err != nil {
		t.Fatal(err)
	}
	ch, err := p.Channel(1, Spec{Imin: 4, Smax: 36, D: 20}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Submit(0, []byte("two-packet message body.............")); err != nil {
		t.Fatal(err)
	}
	ok := k.RunUntil(func() bool { return r.Stats.TCDelivered >= 2 }, 5000)
	if !ok {
		t.Fatalf("message packets not delivered: %+v", r.Stats)
	}
	got := r.DrainTC()
	if len(got) != 2 {
		t.Fatalf("got %d packets, want 2", len(got))
	}
	for _, d := range got {
		if d.Conn != 9 {
			t.Errorf("conn = %d, want 9", d.Conn)
		}
		if d.Stamp != 5 {
			t.Errorf("stamp = %d, want 5 (ℓ0=0 + d=5)", d.Stamp)
		}
	}
}

func TestPacerSubmitErrors(t *testing.T) {
	r := router.MustNew("A", router.DefaultConfig())
	p, err := NewPacer("pacer", r, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := p.Channel(1, Spec{Imin: 4, Smax: 18, D: 20}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Submit(0, make([]byte, 19)); err == nil {
		t.Error("oversize message accepted")
	}
	if _, err := p.Channel(2, Spec{}, 5); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := NewPacer("bad", r, -1); err == nil {
		t.Error("negative window accepted")
	}
	if _, err := NewPacer("bad", r, 400); err == nil {
		t.Error("window beyond half clock range accepted")
	}
}

func TestPacerContractViolations(t *testing.T) {
	r := router.MustNew("A", router.DefaultConfig())
	p, _ := NewPacer("pacer", r, 0)
	ch, _ := p.Channel(1, Spec{Imin: 10, Smax: 18, Bmax: 1, D: 40}, 10)
	for i := 0; i < 5; i++ {
		if err := ch.Submit(0, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	// ℓ0 runs ahead 0,10,20,30,40; backlog > Imin×Bmax=10 from the third
	// message on.
	if ch.ContractViolations != 3 {
		t.Errorf("ContractViolations = %d, want 3", ch.ContractViolations)
	}
}
