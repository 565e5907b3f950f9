package core

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/rtc"
)

// TestEndToEndFailover exercises the resilience story the paper's
// introduction motivates ("several disjoint routes between each pair of
// processing nodes"): a channel flows, its link dies mid-run, traffic
// blackholes until the protocol software reroutes onto the disjoint
// path, and deliveries resume with guarantees intact.
func TestEndToEndFailover(t *testing.T) {
	sys := MustNewMesh(3, 3, Options{})
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 2, Y: 2}
	spec := rtc.Spec{Imin: 8, Smax: 18, D: 80}
	ch, err := sys.OpenChannel(src, []mesh.Coord{dst}, spec)
	if err != nil {
		t.Fatal(err)
	}
	send := func(n int) {
		for i := 0; i < n; i++ {
			if err := ch.Send([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			sys.Run(spec.Imin * packet.TCBytes)
		}
		sys.Run(spec.D * packet.TCBytes)
	}
	send(5)
	if got := sys.Sink(dst).TCCount; got != 5 {
		t.Fatalf("pre-failure deliveries %d/5", got)
	}

	// The first XY link dies.
	if err := sys.Net.FailLink(src, router.PortXPlus); err != nil {
		t.Fatal(err)
	}
	// Traffic sent now blackholes at the dead port (drops counted, no
	// false deliveries).
	send(3)
	if got := sys.Sink(dst).TCCount; got != 5 {
		t.Fatalf("deliveries across a dead link: %d", got)
	}
	if sys.Summarize().TCDrops == 0 {
		t.Error("blackholed packets not accounted")
	}

	// Protocol software reroutes; service resumes on the YX path.
	if err := ch.Reroute(); err != nil {
		t.Fatal(err)
	}
	if ch.Admitted().Uses(src, router.PortXPlus) {
		t.Fatal("rerouted channel still uses the failed link")
	}
	send(5)
	if got := sys.Sink(dst).TCCount; got != 10 {
		t.Errorf("post-failover deliveries %d/10", got)
	}
	if m := sys.Summarize().TCMisses; m != 0 {
		t.Errorf("deadline misses after failover: %d", m)
	}
}

// TestFailoverBestEffort: best-effort traffic has no reroute machinery
// (dimension order is fixed in the header); packets toward a dead link
// drop as misroutes while other paths keep working.
func TestFailoverBestEffort(t *testing.T) {
	sys := MustNewMesh(2, 2, Options{})
	if err := sys.Net.FailLink(mesh.Coord{X: 0, Y: 0}, router.PortXPlus); err != nil {
		t.Fatal(err)
	}
	// (0,0)→(1,0) needs the dead +x link: dropped.
	if err := sys.SendBestEffort(mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 1, Y: 0}, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	// (0,0)→(0,1) is unaffected.
	if err := sys.SendBestEffort(mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 0, Y: 1}, []byte("fine")); err != nil {
		t.Fatal(err)
	}
	sys.Run(5000)
	if got := sys.Sink(mesh.Coord{X: 1, Y: 0}).BECount; got != 0 {
		t.Error("packet crossed a severed link")
	}
	if got := sys.Sink(mesh.Coord{X: 0, Y: 1}).BECount; got != 1 {
		t.Error("unrelated path disturbed by the failure")
	}
	if sys.Router(mesh.Coord{X: 0, Y: 0}).Stats.BEMisroutes != 1 {
		t.Error("dead-port drop not counted as misroute")
	}
}

// TestRerouteWithoutCapacityFails: if no alternate path can host the
// channel, Reroute reports failure and the channel keeps its original
// reservations — a refused reroute must not half-release the channel.
func TestRerouteWithoutCapacityFails(t *testing.T) {
	sys := MustNewMesh(2, 2, Options{})
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 1, Y: 1}
	spec := rtc.Spec{Imin: 4, Smax: 18, D: 16}
	ch, err := sys.OpenChannel(src, []mesh.Coord{dst}, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Kill both of src's outgoing links: no route can exist.
	if err := sys.Net.FailLink(src, router.PortXPlus); err != nil {
		t.Fatal(err)
	}
	if err := sys.Net.FailLink(src, router.PortYPlus); err != nil {
		t.Fatal(err)
	}
	if err := ch.Reroute(); err == nil {
		t.Fatal("reroute succeeded with no live path")
	}
	// The failed attempt restored the original reservations verbatim:
	// the channel is still admitted and can still be torn down cleanly.
	if sys.Adm.Active() != 1 {
		t.Fatalf("channel count after failed reroute: %d, want 1", sys.Adm.Active())
	}
	if err := ch.Close(); err != nil {
		t.Fatalf("teardown after failed reroute: %v", err)
	}
	if sys.Adm.Active() != 0 {
		t.Errorf("stale channels after teardown: %d", sys.Adm.Active())
	}
}
