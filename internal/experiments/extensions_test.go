package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunFig6(t *testing.T) {
	res, err := RunFig6(3)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's worked example.
	byStamp := map[uint8]string{}
	for i, s := range res.Stamps {
		byStamp[s] = res.Classes[i]
	}
	if byStamp[210] != "on-time" {
		t.Errorf("ℓ=210 classified %q, paper says on-time", byStamp[210])
	}
	if byStamp[80] != "early" {
		t.Errorf("ℓ=80 classified %q, paper says early", byStamp[80])
	}
	// Soak across three full clock wraps: every packet on time.
	if res.Misses != 0 {
		t.Errorf("misses across rollover: %d", res.Misses)
	}
	// 3 wraps × 256 slots at Imin=8 → ≈96 messages.
	if res.Delivered < 90 {
		t.Errorf("delivered %d packets, want ≈96", res.Delivered)
	}
	if _, err := RunFig6(0); err == nil {
		t.Error("zero wraps accepted")
	}
}

func TestRunChip(t *testing.T) {
	res := RunChip()
	if len(res.Costs) == 0 {
		t.Fatal("no cost rows")
	}
	found := false
	for _, c := range res.Costs {
		if c.Leaves == 256 {
			found = true
			if c.Comparators != 255 || c.Levels != 8 || c.KeyBits != 9 {
				t.Errorf("paper chip point wrong: %+v", c)
			}
		}
	}
	if !found {
		t.Error("paper's 256-leaf point missing")
	}
	var buf, again bytes.Buffer
	res.Table().Fprint(&buf)
	if !strings.Contains(buf.String(), "2 pipeline stages") {
		t.Error("table missing pipeline note")
	}
	// The table carries no wall-clock figure: two runs print the same
	// bytes (CI cmp's rtbench -exp all against itself on this).
	RunChip().Table().Fprint(&again)
	if buf.String() != again.String() {
		t.Errorf("chip table differs between runs:\n%s\n%s", buf.String(), again.String())
	}
}

// TestRunHorizon checks the trade-off direction: latency falls and the
// reserved buffer bound grows as the horizon widens.
func TestRunHorizon(t *testing.T) {
	res, err := RunHorizon([]uint32{0, 16, 48}, 40000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Errorf("misses in horizon sweep: %d", res.Misses)
	}
	if !(res.MeanLat[0] > res.MeanLat[1] && res.MeanLat[1] > res.MeanLat[2]) {
		t.Errorf("latency not decreasing with horizon: %v", res.MeanLat)
	}
	if !(res.BufBound[0] < res.BufBound[2]) {
		t.Errorf("buffer bound not increasing with horizon: %v", res.BufBound)
	}
	for i, n := range res.Delivered {
		if n == 0 {
			t.Errorf("horizon %d delivered nothing", res.Horizons[i])
		}
	}
	if _, err := RunHorizon(nil, 100); err == nil {
		t.Error("empty sweep accepted")
	}
}

// TestRunCompare checks the headline qualitative contrast: the
// deadline-driven router protects the tight stream while FIFO hardware
// misses a substantial fraction of its deadlines under the same load.
func TestRunCompare(t *testing.T) {
	res, err := RunCompare(60000)
	if err != nil {
		t.Fatal(err)
	}
	idx := map[string]int{}
	for i, n := range res.Disciplines {
		idx[n] = i
	}
	edf, fifo := idx["real-time (EDF)"], idx["FIFO output-queued"]
	if res.TightMiss[edf] != 0 {
		t.Errorf("EDF tight miss rate %.2f, want 0", res.TightMiss[edf])
	}
	if res.TightMiss[fifo] < 0.05 {
		t.Errorf("FIFO tight miss rate %.3f; expected substantial misses behind bulky messages",
			res.TightMiss[fifo])
	}
	if res.TightMean[edf] >= res.TightMean[fifo] {
		t.Errorf("EDF tight mean %.0f not below FIFO %.0f", res.TightMean[edf], res.TightMean[fifo])
	}
	// Priority-aware designs also protect the tight stream.
	for _, name := range []string{"static priority", "priority-forwarding", "priority-VC wormhole"} {
		if res.TightMiss[idx[name]] > 0.02 {
			t.Errorf("%s tight miss rate %.3f; priorities should protect it", name, res.TightMiss[idx[name]])
		}
	}
	// Everyone delivered a comparable volume.
	for i, n := range res.TightN {
		if n < 100 {
			t.Errorf("%s observed only %d tight packets", res.Disciplines[i], n)
		}
	}
	if _, err := RunCompare(10); err == nil {
		t.Error("tiny cycle budget accepted")
	}
}

func TestRunVCT(t *testing.T) {
	res, err := RunVCT(3, 60000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Saving <= 0 {
		t.Errorf("VCT saving %.1f cycles; expected an improvement", res.Saving)
	}
	if res.CutFraction <= 0 {
		t.Error("no cut-throughs recorded")
	}
	if res.Misses != 0 {
		t.Errorf("misses: %d", res.Misses)
	}
	if _, err := RunVCT(0, 100); err == nil {
		t.Error("invalid hops accepted")
	}
}

func TestRunMulticast(t *testing.T) {
	res, err := RunMulticast([]int{2, 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Fanouts {
		if res.Delivered[i] != res.Expected[i] {
			t.Errorf("fan-out %d: delivered %d, want %d",
				res.Fanouts[i], res.Delivered[i], res.Expected[i])
		}
		if res.MaxLat[i] > res.Bound[i] {
			t.Errorf("fan-out %d: worst latency %.0f beyond budget %.0f",
				res.Fanouts[i], res.MaxLat[i], res.Bound[i])
		}
	}
	if res.Misses != 0 || res.SlotLeaks != 0 {
		t.Errorf("misses=%d leaks=%d", res.Misses, res.SlotLeaks)
	}
	if _, err := RunMulticast(nil, 1); err == nil {
		t.Error("empty fanouts accepted")
	}
	if _, err := RunMulticast([]int{99}, 1); err == nil {
		t.Error("oversized fanout accepted")
	}
}

func TestRunAdmit(t *testing.T) {
	res, err := RunAdmit()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Policies) != 2 {
		t.Fatalf("policies: %v", res.Policies)
	}
	// Under the asymmetric load, the shared pool must admit at least as
	// many channels as partitioning — that is the Section 3.4 trade-off.
	if res.Asymmetric[1] <= res.Asymmetric[0] {
		t.Errorf("shared (%d) not above partitioned (%d) under asymmetric load",
			res.Asymmetric[1], res.Asymmetric[0])
	}
	for i := range res.Policies {
		if res.Symmetric[i] == 0 || res.Asymmetric[i] == 0 {
			t.Errorf("policy %s admitted nothing", res.Policies[i])
		}
	}
}

func TestRunChipExtendedTables(t *testing.T) {
	res := RunChip()
	if len(res.Shared) == 0 || len(res.ClockTradeoffs) == 0 {
		t.Fatal("extended cost tables empty")
	}
	// Sharing factor 4 at 256 packets: 64 modules, 63 comparators.
	for _, c := range res.Shared {
		if c.LeavesPerModule == 4 && (c.Modules != 64 || c.Comparators != 63) {
			t.Errorf("shared point wrong: %+v", c)
		}
	}
	// The paper's 8-bit clock supports h+d up to 127 slots.
	last := res.ClockTradeoffs[len(res.ClockTradeoffs)-1]
	if last.Bits != 8 || last.MaxD != 127 {
		t.Errorf("clock point wrong: %+v", last)
	}
	var buf bytes.Buffer
	res.SharedTable().Fprint(&buf)
	res.ClockTable().Fprint(&buf)
	if !strings.Contains(buf.String(), "serial scans") {
		t.Error("shared table missing")
	}
}

// TestRunFailover checks the three-phase resilience shape: full
// delivery, blackhole with accounted drops, full delivery again after
// the disjoint-route re-establishment.
func TestRunFailover(t *testing.T) {
	res, err := RunFailover(5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.RerouteOK {
		t.Fatal("reroute did not leave the failed link")
	}
	if res.Delivered[0] != 5 || res.Misses[0] != 0 {
		t.Errorf("healthy phase: %+v", res)
	}
	if res.Delivered[1] != 0 || res.Drops[1] == 0 {
		t.Errorf("failed phase should blackhole with drops: delivered=%d drops=%d",
			res.Delivered[1], res.Drops[1])
	}
	if res.Delivered[2] != 5 || res.Misses[2] != 0 {
		t.Errorf("recovered phase: delivered=%d misses=%d", res.Delivered[2], res.Misses[2])
	}
	if _, err := RunFailover(0); err == nil {
		t.Error("zero messages accepted")
	}
}

// TestRunFaults checks the X10 campaign shape: the invariants are
// enforced inside RunFaults itself (conservation, zero misses, zero
// leaked slots), so success plus non-vacuity is the whole contract.
func TestRunFaults(t *testing.T) {
	res, err := RunFaults(12, 77)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 4 {
		t.Fatalf("sweep too small: %d rows", len(res.Rows))
	}
	base := res.Rows[0]
	if base.Rate != 0 || base.TCDelivered != base.TCSent || base.BENacks != 0 {
		t.Errorf("faultless baseline degraded: %+v", base)
	}
	var bitten, healed bool
	for _, row := range res.Rows[1:] {
		if row.Corrupted+row.Lost > 0 {
			bitten = true
		}
		if row.BERetrans > 0 {
			healed = true
		}
	}
	if !bitten || !healed {
		t.Errorf("vacuous sweep: bitten=%v healed=%v", bitten, healed)
	}
	if !res.FlapRerouted || !res.FlapFailback {
		t.Errorf("flap recovery incomplete: %+v", res)
	}
	if res.TimeToRecover <= 0 {
		t.Errorf("no recovery time measured: %d", res.TimeToRecover)
	}
	if _, err := RunFaults(1, 1); err == nil {
		t.Error("degenerate message count accepted")
	}
}

// TestRunRing checks the topology-independence claim: every channel on
// an 8-node ring meets its deadline using nothing but connection
// tables.
func TestRunRing(t *testing.T) {
	res, err := RunRing(8, 8, 60000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Errorf("misses on the ring: %d", res.Misses)
	}
	if res.Delivered < res.Expected {
		t.Errorf("delivered %d, expected at least %d", res.Delivered, res.Expected)
	}
	if res.MaxLat <= 0 || res.MaxLat > res.Budget {
		t.Errorf("worst latency %.0f outside (0, %.0f]", res.MaxLat, res.Budget)
	}
	if _, err := RunRing(2, 8, 1000); err == nil {
		t.Error("degenerate ring accepted")
	}
	if _, err := RunRing(8, 40, 1000); err == nil {
		t.Error("rollover-violating budget accepted")
	}
	if _, err := RunRing(8, 8, 0); err == nil {
		t.Error("zero cycles accepted")
	}
}

// TestRunSharing checks the §5.1 trade-off direction: no misses at the
// paper's factor 1; degradation once serialization outgrows the tight
// stream's slack; comparator counts shrinking with the factor.
func TestRunSharing(t *testing.T) {
	res, err := RunSharing([]int{1, 4, 32}, 40000)
	if err != nil {
		t.Fatal(err)
	}
	if res.TightMiss[0] != 0 {
		t.Errorf("factor 1 tight miss %.3f, want 0", res.TightMiss[0])
	}
	if !(res.Comparators[0] > res.Comparators[1] && res.Comparators[1] > res.Comparators[2]) {
		t.Errorf("comparators not shrinking: %v", res.Comparators)
	}
	if res.TightP99[2] <= res.TightP99[0] {
		t.Errorf("heavy sharing did not slow the tight stream: %v", res.TightP99)
	}
	if _, err := RunSharing(nil, 40000); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := RunSharing([]int{0}, 40000); err == nil {
		t.Error("zero factor accepted")
	}
}

// TestRunVCTLoad checks the X3b shape: cut fraction falls with
// time-constrained contention while deadlines hold.
func TestRunVCTLoad(t *testing.T) {
	res, err := RunVCTLoad([]int{0, 4}, 40000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Errorf("misses under load: %d", res.Misses)
	}
	if res.CutFraction[0] < 0.9 {
		t.Errorf("idle-line cut fraction %.2f, want ≈1", res.CutFraction[0])
	}
	if res.CutFraction[1] >= res.CutFraction[0]*0.9 {
		t.Errorf("cut fraction did not fall with TC contention: %v", res.CutFraction)
	}
	if _, err := RunVCTLoad(nil, 100); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := RunVCTLoad([]int{9}, 100); err == nil {
		t.Error("oversized cross count accepted")
	}
}
