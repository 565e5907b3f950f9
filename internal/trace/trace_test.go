package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/rtc"
	"repro/internal/sched"
	"repro/internal/trace"
)

func TestKindString(t *testing.T) {
	if trace.KindTCTransmit.String() != "tc-tx" || trace.KindTCDeliver.String() != "tc-rx" || trace.KindBEDeliver.String() != "be-rx" {
		t.Error("kind labels wrong")
	}
	if trace.KindStall.String() != "stall" {
		t.Error("stall kind label wrong")
	}
	if trace.Kind(99).String() != "kind(99)" {
		t.Error("unknown kind label wrong")
	}
}

// TestAttachEndToEnd attaches a sharded collector to a live system and
// checks the full packet lifecycle comes out of FromLifecycle and
// DumpEvents with sane fields.
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

	events := col.TraceEvents()
	var inject, enq, win, tx, rx, be int
	for _, e := range events {
		switch e.Kind {
		case trace.KindInject:
			inject++
		case trace.KindEnqueue:
			enq++
		case trace.KindArbWin:
			win++
		case trace.KindTCTransmit:
			tx++
			if e.Class == sched.ClassNone {
				t.Error("transmit event with no class")
			}
		case trace.KindTCDeliver:
			rx++
		case trace.KindBEDeliver:
			be++
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
	trace.DumpEvents(&buf, events)
	out := buf.String()
	for _, want := range []string{"inject", "enqueue", "tc-tx", "tc-rx", "be-rx", "(0,0)"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}
