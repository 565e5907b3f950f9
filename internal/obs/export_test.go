package obs_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/sched"
)

// dumpLine renders one event through the text writer.
func dumpLine(ev router.LifecycleEvent) string {
	var buf bytes.Buffer
	obs.WriteText(&buf, []obs.Event{{LifecycleEvent: ev}})
	return buf.String()
}

// TestKindString pins the text dump's event labels: transmissions and
// deliveries carry their traffic class, everything else the lifecycle
// kind's own name.
func TestKindString(t *testing.T) {
	cases := []struct {
		ev   router.LifecycleEvent
		want string
	}{
		{router.LifecycleEvent{Kind: router.EvTransmit}, "  tc-tx  "},
		{router.LifecycleEvent{Kind: router.EvDeliver}, "  tc-rx  "},
		{router.LifecycleEvent{Kind: router.EvDeliver, BE: true}, "  be-rx  "},
		{router.LifecycleEvent{Kind: router.EvCutThrough}, "  cut-thru  "},
		{router.LifecycleEvent{Kind: router.EvStall}, "  stall  "},
		{router.LifecycleEvent{Kind: router.EvArbWin}, "  arb-win  "},
	}
	for _, tc := range cases {
		if got := dumpLine(tc.ev); !strings.Contains(got, tc.want) {
			t.Errorf("kind %v (BE=%v) renders %q, want label %q", tc.ev.Kind, tc.ev.BE, got, tc.want)
		}
	}
	missed := dumpLine(router.LifecycleEvent{Kind: router.EvDeliver, Missed: true, Slack: -3})
	if !strings.HasSuffix(missed, "slack=-3 MISS\n") {
		t.Errorf("missed delivery renders %q", missed)
	}
}

// TestAttachEndToEnd attaches a sharded collector to a live system and
// checks the full packet lifecycle comes out of the merged timeline and
// the text writer with sane fields.
func TestAttachEndToEnd(t *testing.T) {
	col := obs.NewSharded(64)
	sys := core.MustNewMesh(2, 1, core.Options{Collector: col})
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 1, Y: 0}
	ch, err := sys.OpenChannel(src, []mesh.Coord{dst}, rtc.Spec{Imin: 8, Smax: 18, D: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Send([]byte("traced")); err != nil {
		t.Fatal(err)
	}
	frame, err := packet.NewBE(1, 0, []byte("be"))
	if err != nil {
		t.Fatal(err)
	}
	sys.Router(src).InjectBE(frame)
	sys.Run(2000)

	events := col.Merged()
	var inject, enq, win, tx, rx, be int
	for _, e := range events {
		switch e.Kind {
		case router.EvInject:
			inject++
		case router.EvEnqueue:
			enq++
		case router.EvArbWin:
			win++
		case router.EvTransmit:
			tx++
			if e.Class == sched.ClassNone {
				t.Error("transmit event with no class")
			}
		case router.EvDeliver:
			if e.BE {
				be++
			} else {
				rx++
			}
		}
	}
	// One packet: injected and enqueued at (0,0), transmitted there and
	// at (1,0) (memory or cut-through path), one delivery; one BE
	// delivery.
	if tx != 2 || rx != 1 || be != 1 {
		t.Errorf("tx=%d rx=%d be=%d, want 2,1,1", tx, rx, be)
	}
	if inject != 1 || enq < 1 || win != 2 {
		t.Errorf("inject=%d enqueue=%d arb-win=%d, want 1,>=1,2", inject, enq, win)
	}
	var buf bytes.Buffer
	col.Dump(&buf)
	out := buf.String()
	for _, want := range []string{"inject", "enqueue", "tc-tx", "tc-rx", "be-rx", "(0,0)"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	// DumpTail is the same rendering, cut to the last n lines.
	var tail bytes.Buffer
	col.DumpTail(&tail, 3)
	lines := strings.SplitAfter(out, "\n")
	if want := strings.Join(lines[len(lines)-4:], ""); tail.String() != want {
		t.Errorf("DumpTail(3) = %q, want the dump's last three lines %q", tail.String(), want)
	}
}
