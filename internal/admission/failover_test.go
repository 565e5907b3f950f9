package admission

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/router"
	"repro/internal/rtc"
)

// routeOfChannel walks the programmed tables and returns the coordinates
// visited from the source to local delivery.
func routeOfChannel(t *testing.T, n *mesh.Network, ch *Channel) []mesh.Coord {
	t.Helper()
	var visited []mesh.Coord
	at := ch.Src
	in := ch.SrcConn
	for hops := 0; hops < 32; hops++ {
		visited = append(visited, at)
		e := n.Router(at).Connection(in)
		if !e.Valid {
			t.Fatalf("broken chain at %s id %d", at, in)
		}
		if e.Mask.Has(router.PortLocal) {
			return visited
		}
		moved := false
		for p := 0; p < router.NumLinks; p++ {
			if e.Mask.Has(p) {
				at = at.Add(p)
				in = e.Out
				moved = true
				break
			}
		}
		if !moved {
			t.Fatalf("empty mask at %s", at)
		}
	}
	t.Fatal("route did not terminate")
	return nil
}

// TestYXFallbackOnCongestion saturates the XY path's first link and
// checks the controller falls back to the disjoint YX order (§3.3:
// route selection by resource availability).
func TestYXFallbackOnCongestion(t *testing.T) {
	n := mesh.MustNew(3, 3, router.DefaultConfig())
	c, err := New(n, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 2, Y: 2}
	// Saturate the XY path's middle link (1,0)→(2,0) with short-haul
	// channels sourced at (1,0), leaving src's own injection port free.
	filler := rtc.Spec{Imin: 4, Smax: 18, D: 8}
	for {
		if _, err := c.Admit(mesh.Coord{X: 1, Y: 0}, []mesh.Coord{{X: 2, Y: 0}}, filler); err != nil {
			break
		}
	}
	ch, err := c.Admit(src, []mesh.Coord{dst}, rtc.Spec{Imin: 16, Smax: 18, D: 80})
	if err != nil {
		t.Fatalf("no fallback route found: %v", err)
	}
	route := routeOfChannel(t, n, ch)
	// YX order: second hop must be (0,1), not (1,0).
	if route[1] != (mesh.Coord{X: 0, Y: 1}) {
		t.Errorf("route %v did not take the YX fallback", route)
	}
}

// TestFailedLinkAvoidance marks the XY path's first link failed; new
// channels must route around it, and channels that used it reroute.
func TestFailedLinkAvoidance(t *testing.T) {
	n := mesh.MustNew(3, 3, router.DefaultConfig())
	c, err := New(n, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 2, Y: 1}
	spec := rtc.Spec{Imin: 8, Smax: 18, D: 60}
	ch, err := c.Admit(src, []mesh.Coord{dst}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !ch.Uses(src, router.PortXPlus) {
		t.Fatal("baseline channel did not take the XY route")
	}
	// The (0,0)→(1,0) link dies.
	if err := n.FailLink(src, router.PortXPlus); err != nil {
		t.Fatal(err)
	}
	// New channels avoid it in both directions.
	nch, err := c.Admit(src, []mesh.Coord{dst}, spec)
	if err != nil {
		t.Fatalf("admission around failed link: %v", err)
	}
	if nch.Uses(src, router.PortXPlus) {
		t.Error("new channel crosses the failed link")
	}
	if _, err := c.Admit(mesh.Coord{X: 1, Y: 0}, []mesh.Coord{{X: 0, Y: 1}}, spec); err != nil {
		t.Errorf("reverse-direction admission near failure: %v", err)
	}
	// The original channel reroutes onto a live path.
	rch, err := c.Reroute(ch)
	if err != nil {
		t.Fatal(err)
	}
	if rch.Uses(src, router.PortXPlus) {
		t.Error("rerouted channel still crosses the failed link")
	}
	route := routeOfChannel(t, n, rch)
	if route[len(route)-1] != dst {
		t.Errorf("rerouted channel ends at %v, want %v", route[len(route)-1], dst)
	}
	// Double-reroute of the stale handle fails cleanly.
	if _, err := c.Reroute(ch); err == nil {
		t.Error("reroute of a torn-down channel accepted")
	}
}

// TestStraightLineNoFallback: when src and dst share a row, XY and YX
// coincide; a failure on that row must reject rather than loop.
func TestStraightLineNoFallback(t *testing.T) {
	n := mesh.MustNew(3, 1, router.DefaultConfig())
	c, _ := New(n, DefaultConfig())
	if err := n.FailLink(mesh.Coord{X: 0, Y: 0}, router.PortXPlus); err != nil {
		t.Fatal(err)
	}
	spec := rtc.Spec{Imin: 8, Smax: 18, D: 60}
	if _, err := c.Admit(mesh.Coord{X: 0, Y: 0}, []mesh.Coord{{X: 2, Y: 0}}, spec); err == nil {
		t.Error("admission across a severed row accepted")
	}
}

// setLinkDown fails or repairs lk on the controller's own mesh. Asking
// for the state the link is already in is a no-op, so an op program may
// fail or repair one link twice in a row.
func setLinkDown(t testing.TB, c *Controller, lk linkKey, down bool) {
	t.Helper()
	if c.net.LinkDown(lk.node, lk.port) == down {
		return
	}
	op := c.net.RepairLink
	if down {
		op = c.net.FailLink
	}
	if err := op(lk.node, lk.port); err != nil {
		t.Fatal(err)
	}
}
