package scenario

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/admission"
	"repro/internal/router"
)

const sampleJSON = `{
  "mesh": {"w": 3, "h": 3},
  "cycles": 40000,
  "seed": 7,
  "admission": {"policy": "partitioned", "sourceWindow": 8, "horizon": 4},
  "channels": [
    {"src": [0,0], "dsts": [[2,2]], "imin": 8, "smax": 18, "d": 80, "pattern": "periodic"},
    {"src": [2,0], "dsts": [[0,2]], "imin": 16, "smax": 36, "d": 96, "pattern": "backlogged"},
    {"src": [1,1], "dsts": [[0,0],[2,2]], "imin": 24, "smax": 18, "d": 120, "pattern": "bursty", "bmax": 1}
  ],
  "bestEffort": [
    {"src": [0,1], "rate": 0.3, "sizeMin": 20, "sizeMax": 200},
    {"src": [2,1], "dst": [0,0], "rate": 0.2, "sizeMin": 64, "sizeMax": 64}
  ],
  "failures": [
    {"at": 20000, "from": [0,0], "port": "+x"}
  ]
}`

func TestParseValid(t *testing.T) {
	sc, err := Parse([]byte(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Mesh.W != 3 || len(sc.Channels) != 3 || len(sc.BestEffort) != 2 || len(sc.Failures) != 1 {
		t.Errorf("parsed shape wrong: %+v", sc)
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		`{`, // malformed
		`{"mesh":{"w":0,"h":1},"cycles":100}`,
		`{"mesh":{"w":2,"h":1},"cycles":0}`,
		`{"mesh":{"w":2,"h":1},"cycles":100,"router":{"scheduler":"magic"}}`,
		`{"mesh":{"w":2,"h":1},"cycles":100,"admission":{"policy":"hoard"}}`,
		`{"mesh":{"w":2,"h":1},"cycles":100,"channels":[{"src":[0,0],"dsts":[]}]}`,
		`{"mesh":{"w":2,"h":1},"cycles":100,"channels":[{"src":[0,0],"dsts":[[1,0]],"pattern":"chaotic"}]}`,
		`{"mesh":{"w":2,"h":1},"cycles":100,"failures":[{"at":10,"from":[0,0],"port":"sideways"}]}`,
		`{"mesh":{"w":2,"h":1},"cycles":100,"failures":[{"at":500,"from":[0,0],"port":"+x"}]}`,
		// Failure episode validation: bad kind, off-mesh nodes and links.
		`{"mesh":{"w":2,"h":1},"cycles":100,"failures":[{"at":10,"from":[0,0],"port":"+x","kind":"melt"}]}`,
		`{"mesh":{"w":2,"h":1},"cycles":100,"failures":[{"at":10,"from":[5,0],"port":"+x"}]}`,
		`{"mesh":{"w":2,"h":1},"cycles":100,"failures":[{"at":10,"from":[1,0],"port":"+x"}]}`,
		`{"mesh":{"w":2,"h":1},"cycles":100,"failures":[{"at":10,"from":[0,0],"port":"+y"}]}`,
		// Boundary: repair must land inside (at, cycles].
		`{"mesh":{"w":2,"h":1},"cycles":100,"failures":[{"at":10,"from":[0,0],"port":"+x","repair_at":10}]}`,
		`{"mesh":{"w":2,"h":1},"cycles":100,"failures":[{"at":10,"from":[0,0],"port":"+x","repair_at":500}]}`,
		`{"mesh":{"w":2,"h":1},"cycles":100,"failures":[{"at":10,"from":[0,0],"port":"+x","kind":"flap"}]}`,
		// Rate/burst contract per kind.
		`{"mesh":{"w":2,"h":1},"cycles":100,"failures":[{"at":10,"from":[0,0],"port":"+x","rate":0.1}]}`,
		`{"mesh":{"w":2,"h":1},"cycles":100,"failures":[{"at":10,"from":[0,0],"port":"+x","kind":"corrupt"}]}`,
		`{"mesh":{"w":2,"h":1},"cycles":100,"failures":[{"at":10,"from":[0,0],"port":"+x","kind":"lose","rate":1.5}]}`,
		// Duplicate/overlapping episodes on one link (second names the
		// same wire from the far end).
		`{"mesh":{"w":2,"h":1},"cycles":100,"failures":[
		   {"at":10,"from":[0,0],"port":"+x"},
		   {"at":50,"from":[1,0],"port":"-x"}]}`,
		`{"mesh":{"w":2,"h":1},"cycles":100,"failures":[
		   {"at":10,"from":[0,0],"port":"+x","kind":"flap","repair_at":60},
		   {"at":40,"from":[0,0],"port":"+x"}]}`,
	}
	for i, b := range bad {
		if _, err := Parse([]byte(b)); err == nil {
			t.Errorf("bad scenario %d accepted", i)
		}
	}
	// Sequential (non-overlapping) episodes on one link are fine, as is
	// a fault process running concurrently with an outage elsewhere.
	ok := `{"mesh":{"w":3,"h":1},"cycles":100,"failures":[
	  {"at":10,"from":[0,0],"port":"+x","kind":"flap","repair_at":40},
	  {"at":40,"from":[0,0],"port":"+x"},
	  {"at":5,"from":[1,0],"port":"+x","kind":"corrupt","rate":0.01,"repair_at":90}]}`
	if _, err := Parse([]byte(ok)); err != nil {
		t.Errorf("sequential episodes rejected: %v", err)
	}
}

// TestRunValidatesHandBuiltScenario pins the parsePort bugfix: a
// scenario constructed in code (never parsed) with a bad port string
// must fail loudly instead of silently failing the wrong link.
func TestRunValidatesHandBuiltScenario(t *testing.T) {
	var sc Scenario
	sc.Mesh.W, sc.Mesh.H = 2, 1
	sc.Cycles = 100
	sc.Failures = []LinkFail{{At: 10, From: [2]int{0, 0}, Port: "east"}}
	if _, _, err := sc.Run(); err == nil {
		t.Fatal("bad port string in a hand-built scenario not rejected")
	}
}

// TestRunWithTakesOnlyLinkLatency: the document decides the router and
// admission configuration. Run options may set the wire latency and
// nothing else of either; an explicit latency of 1 is the default wire.
func TestRunWithTakesOnlyLinkLatency(t *testing.T) {
	sc, err := Parse([]byte(`{"mesh": {"w": 2, "h": 1}, "cycles": 100, "router": {"vct": true}}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, lat := range []int{0, 1, 4} {
		_, sys, err := sc.RunWith(RunOpts{Router: router.Config{LinkLatency: lat}})
		if err != nil {
			t.Fatalf("latency %d: %v", lat, err)
		}
		cfg := sys.Router(coord([2]int{0, 0})).Config()
		want := router.DefaultConfig()
		want.VCT = true
		if lat > 1 {
			want.LinkLatency = lat
		}
		if cfg != want {
			t.Errorf("latency %d: router config %+v, want %+v", lat, cfg, want)
		}
	}
	for _, opts := range []RunOpts{
		{Router: router.Config{LinkLatency: 4, VCT: true}},
		{Router: router.DefaultConfig()},
		{Admission: admission.DefaultConfig()},
	} {
		if _, _, err := sc.RunWith(opts); err == nil {
			t.Errorf("RunWith(%+v) accepted a configuration the scenario decides", opts)
		}
	}
}

func TestLoadFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	if err := os.WriteFile(path, []byte(sampleJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestRunEndToEnd plays the sample scenario, including the mid-run link
// failure with automatic reroute, and checks the guarantees held.
func TestRunEndToEnd(t *testing.T) {
	sc, err := Parse([]byte(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	res, sys, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Opened != 3 {
		t.Fatalf("opened %d/3 channels (rejections: %v)", res.Opened, res.Rejected)
	}
	if res.Failures != 1 {
		t.Errorf("failures played: %d", res.Failures)
	}
	// Both the (0,0)→(2,2) channel (forward direction) and the
	// (2,0)→(0,2) channel (reverse direction of the same wire) must have
	// been rerouted.
	if res.Rerouted != 2 {
		t.Errorf("rerouted %d channels, want 2 (both directions of the dead link)", res.Rerouted)
	}
	if res.Summary.TCMisses != 0 {
		t.Errorf("deadline misses: %d", res.Summary.TCMisses)
	}
	if res.Summary.TCDelivered == 0 || res.Summary.BEDelivered == 0 {
		t.Error("degenerate run")
	}
	if sys == nil {
		t.Fatal("system not returned")
	}
}

// TestRunFlapFailsBack plays a flap episode: the displaced channel is
// rerouted at the failure and failed back at the repair.
func TestRunFlapFailsBack(t *testing.T) {
	sc, err := Parse([]byte(`{
	  "mesh": {"w": 3, "h": 3}, "cycles": 30000, "seed": 3,
	  "channels": [{"src": [0,0], "dsts": [[2,2]], "imin": 8, "smax": 18, "d": 80}],
	  "failures": [{"at": 10000, "from": [0,0], "port": "+x", "kind": "flap", "repair_at": 20000}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 || res.Repairs != 1 {
		t.Errorf("timeline played %d failures, %d repairs, want 1 and 1", res.Failures, res.Repairs)
	}
	if res.Rerouted != 2 {
		t.Errorf("rerouted %d times, want 2 (away and back)", res.Rerouted)
	}
	if res.Summary.TCMisses != 0 {
		t.Errorf("deadline misses through the flap: %d", res.Summary.TCMisses)
	}
	if res.Summary.TCDelivered == 0 {
		t.Error("degenerate run")
	}
}

// TestRunCorruptEpisode arms a transient corruption process over a
// best-effort flow's path; integrity must be switched on automatically
// and the link-level recovery must show up in the result.
func TestRunCorruptEpisode(t *testing.T) {
	sc, err := Parse([]byte(`{
	  "mesh": {"w": 2, "h": 1}, "cycles": 30000, "seed": 9,
	  "bestEffort": [{"src": [0,0], "dst": [1,0], "rate": 0.3, "sizeMin": 64, "sizeMax": 64}],
	  "failures": [{"at": 0, "from": [0,0], "port": "+x", "kind": "corrupt", "rate": 0.02, "repair_at": 30000}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.CorruptedPhits == 0 {
		t.Error("fault process never fired")
	}
	if res.Summary.BENacks == 0 || res.Summary.BERetransmits == 0 {
		t.Errorf("no link-level recovery: %+v", res.Summary)
	}
	if res.Summary.BEDelivered == 0 {
		t.Error("nothing delivered through the corruption episode")
	}
	if res.Repairs != 1 {
		t.Errorf("fault process not disarmed: repairs %d", res.Repairs)
	}
}

func TestRunRejectsInfeasibleChannel(t *testing.T) {
	sc, err := Parse([]byte(`{
	  "mesh": {"w": 2, "h": 1}, "cycles": 1000,
	  "channels": [{"src": [0,0], "dsts": [[1,0]], "imin": 4, "smax": 18, "d": 1}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Opened != 0 || len(res.Rejected) != 1 {
		t.Errorf("infeasible channel not reported: %+v", res)
	}
}
