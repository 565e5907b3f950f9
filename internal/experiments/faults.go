package experiments

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/packet"
	"repro/internal/router"
)

// FaultsRow is one point of the X10 fault-rate sweep: a fresh 3×3 mesh
// with one time-constrained channel and one best-effort flow, every
// link running the given fault process.
type FaultsRow struct {
	Kind  string
	Rate  float64
	Burst float64

	TCSent      int64
	TCDelivered int64
	TCDropped   int64
	TCMisses    int64

	BESent      int64
	BEDelivered int64
	BENacks     int64
	BERetrans   int64
	BEAborts    int64

	// Injected faults on the wire (all links).
	Corrupted int64
	Lost      int64

	// TCStranded is the conservation residue for time-constrained
	// traffic: packets neither delivered nor counted dropped at exit.
	// Exactly zero except under phit loss, where at most one partial
	// assembly per input can be pending its framing verdict.
	TCStranded int64
}

// FaultsResult is the X10 study: the paper's two-class design under
// transient wire faults. Time-constrained traffic absorbs corruption as
// reserved slack (drops, never deadline misses); best-effort traffic
// recovers losslessly through flit-level nack/retransmission; and a
// link flap costs one reroute out plus one failback.
type FaultsResult struct {
	Rows []FaultsRow

	// Flap timeline measurements.
	FlapRerouted  bool  // channel left the failed link
	FlapFailback  bool  // channel returned to the primary path on repair
	TimeToRecover int64 // cycles from repair to the next delivery
}

const faultsSpecD = 80

// faultsRun drives one sweep point: msgs time-constrained messages and
// msgs/2 best-effort packets across a uniformly faulty 3×3 mesh, then a
// full drain. It enforces the conservation and zero-leak invariants.
func faultsRun(kind fault.Kind, rate, burst float64, msgs int, seed int64) (FaultsRow, error) {
	row := FaultsRow{Kind: kind.String(), Rate: rate, Burst: burst}
	if rate == 0 {
		row.Kind = "none"
	}
	cfg := router.DefaultConfig()
	cfg.Integrity = true
	sys, ch, err := cornerChannel(cfg, faultsSpecD)
	if err != nil {
		return row, err
	}
	dst := mesh.Coord{X: 2, Y: 2}
	beSrc, beDst := mesh.Coord{X: 0, Y: 2}, mesh.Coord{X: 2, Y: 0}
	var inj *fault.Injector
	if rate > 0 {
		inj = fault.New(seed)
		if err := inj.InjectAll(sys.Net, fault.Config{Kind: kind, Rate: rate, Burst: burst}); err != nil {
			return row, err
		}
	}
	// A best-effort packet rides along with every other message. After
	// the train's own drain, 8000 more cycles with no new traffic: every
	// in-flight packet ends in a bucket (delivered, dropped, aborted) or —
	// under phit loss only — strands as one partial assembly awaiting a
	// framing verdict.
	seq := uint32(0)
	err = probeTrain(sys, ch, msgs, &seq, func(i int) error {
		row.TCSent++
		if i%2 != 0 {
			return nil
		}
		row.BESent++
		return sys.SendBestEffort(beSrc, beDst, make([]byte, 64))
	})
	if err != nil {
		return row, err
	}
	sys.Run(8000)

	if inj != nil {
		s := inj.Stats()
		row.Corrupted, row.Lost = s.CorruptedPhits, s.LostPhits
	}
	sum := sys.Summarize()
	row.TCDelivered = sys.Sink(dst).TCCount
	row.TCDropped = sum.TCDrops
	row.TCMisses = sum.TCMisses
	row.BEDelivered = sys.Sink(beDst).BECount
	row.BENacks = sum.BENacks
	row.BERetrans = sum.BERetransmits
	row.BEAborts = sum.BEAborts
	row.TCStranded = row.TCSent - row.TCDelivered - row.TCDropped

	// Conservation: injected = delivered + dropped (+ stranded partial
	// assemblies, possible only under loss).
	maxStranded := int64(0)
	if kind == fault.Lose && rate > 0 {
		maxStranded = 4 * 9 // one partial assembly per link input
	}
	if row.TCStranded < 0 || row.TCStranded > maxStranded {
		return row, fmt.Errorf("experiments: faults %s rate %v: TC conservation broken: sent %d, delivered %d, dropped %d",
			row.Kind, rate, row.TCSent, row.TCDelivered, row.TCDropped)
	}
	if got := row.BEDelivered + row.BEAborts; got != row.BESent {
		return row, fmt.Errorf("experiments: faults %s rate %v: BE conservation broken: sent %d, delivered %d, aborted %d",
			row.Kind, rate, row.BESent, row.BEDelivered, row.BEAborts)
	}
	// Corruption consumes slack, never the schedule: survivors meet
	// their deadlines.
	if row.TCMisses != 0 {
		return row, fmt.Errorf("experiments: faults %s rate %v: %d deadline misses (reserved slack must absorb loss)",
			row.Kind, rate, row.TCMisses)
	}
	for _, c := range sys.Net.Coords() {
		if free := sys.Router(c).FreeSlots(); free != cfg.Slots {
			return row, fmt.Errorf("experiments: faults %s rate %v: router %s leaked %d memory slots",
				row.Kind, rate, c, cfg.Slots-free)
		}
	}
	return row, nil
}

// faultsFlap plays fail → reroute → repair → failback on the channel's
// first-hop link and measures the recovery time after the repair.
func faultsFlap(res *FaultsResult, msgs int) error {
	sys, ch, err := cornerChannel(router.Config{}, faultsSpecD)
	if err != nil {
		return err
	}
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 2, Y: 2}
	seq := uint32(0)
	if err := probeTrain(sys, ch, msgs, &seq, nil); err != nil {
		return err
	}
	if err := sys.FailLink(src, router.PortXPlus); err != nil {
		return err
	}
	if err := ch.Reroute(); err != nil {
		return err
	}
	res.FlapRerouted = !ch.Admitted().Uses(src, router.PortXPlus)
	if err := probeTrain(sys, ch, msgs, &seq, nil); err != nil {
		return err
	}
	if err := sys.RepairLink(src, router.PortXPlus); err != nil {
		return err
	}
	repairAt := sys.Now()
	if err := ch.Reroute(); err != nil {
		return err
	}
	res.FlapFailback = ch.Admitted().Uses(src, router.PortXPlus)
	before := sys.Sink(dst).TCCount
	if err := sendProbe(sys, ch, &seq); err != nil {
		return err
	}
	if !sys.RunUntil(func() bool { return sys.Sink(dst).TCCount > before }, 4*faultsSpecD*packet.TCBytes) {
		return fmt.Errorf("experiments: faults: no delivery after repair and failback")
	}
	res.TimeToRecover = sys.Now() - repairAt
	return nil
}

// RunFaults runs the X10 campaign: a fault-rate sweep (corruption,
// bursty corruption, loss) plus the flap/recovery timeline. The whole
// campaign derives from seed; msgs scales each sweep point.
func RunFaults(msgs int, seed int64) (*FaultsResult, error) {
	if msgs < 2 {
		return nil, fmt.Errorf("experiments: need at least two messages per sweep point")
	}
	res := &FaultsResult{}
	points := []struct {
		kind  fault.Kind
		rate  float64
		burst float64
	}{
		{fault.Corrupt, 0, 0}, // faultless baseline, integrity on
		{fault.Corrupt, 0.001, 0},
		{fault.Corrupt, 0.005, 0},
		{fault.Corrupt, 0.005, 8},
		{fault.Corrupt, 0.02, 0},
		{fault.Lose, 0.005, 0},
	}
	for _, p := range points {
		row, err := faultsRun(p.kind, p.rate, p.burst, msgs, seed)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	if err := faultsFlap(res, msgs/2); err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the campaign.
func (r *FaultsResult) Table() *Table {
	t := &Table{
		Title: "X10 — transient link faults: detection, retransmission, recovery (3x3 mesh, all links faulty)",
		Header: []string{"kind", "rate", "burst", "tc sent", "tc delv", "tc drop", "miss",
			"be sent", "be delv", "nacks", "rexmit", "aborts", "hit phits"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Kind, fmt.Sprintf("%g", row.Rate), fmt.Sprintf("%g", row.Burst),
			d(row.TCSent), d(row.TCDelivered), d(row.TCDropped), d(row.TCMisses),
			d(row.BESent), d(row.BEDelivered), d(row.BENacks), d(row.BERetrans), d(row.BEAborts),
			d(row.Corrupted+row.Lost))
	}
	t.AddNote("conservation held at every point: sent = delivered + dropped (+ pending framing verdicts under loss); no memory slot leaked")
	t.AddNote("corruption costs reserved slack, not deadlines: zero misses at every rate; best-effort recovers via nack/retransmit")
	if r.FlapRerouted && r.FlapFailback {
		t.AddNote("flap: rerouted off the dead link, failed back after repair; first delivery %d cycles after the repair", r.TimeToRecover)
	} else {
		t.AddNote("WARNING: flap recovery incomplete (rerouted=%v failback=%v)", r.FlapRerouted, r.FlapFailback)
	}
	return t
}
