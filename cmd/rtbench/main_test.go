package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// smokeFlags gives every registered experiment a small-budget flag
// setting ("name=value"; none = the defaults are already cheap).
var smokeFlags = map[string][]string{
	"e1":        nil,
	"fig6":      nil,
	"chip":      nil,
	"fig7":      {"cycles=4000"},
	"horizon":   {"cycles=20000"},
	"compare":   {"cycles=20000"},
	"approx":    {"cycles=20000"},
	"vct":       {"cycles=20000"},
	"multicast": nil,
	"admit":     nil,
	"load":      {"cycles=15000"},
	"skew":      {"cycles=20000"},
	"failover":  nil,
	"faults":    nil,
	"ring":      {"cycles=20000"},
	"sharing":   {"cycles=20000"},
	"sweep":     {"mesh=4", "workers=2", "cycles=300"},
	"forensics": {"scenario=../../scenarios/fig6.json", "cycles=4000"},
	"capacity":  {"mesh=4", "scenario=../../scenarios/fig6.json", "cycles=4000"},
	"admission": {"mesh=4", "requests=300"},
	"layout":    {"mesh=4", "requests=24"},
}

// TestRunnersSmoke executes every entry of the experiment table with a
// reduced budget, through the same flags the CLI sets, so CLI wiring
// cannot rot silently. A registered experiment without a smoke case
// fails. Output goes to the test log; only errors fail.
func TestRunnersSmoke(t *testing.T) {
	for _, e := range experimentList {
		settings, ok := smokeFlags[e.name]
		if !ok {
			t.Errorf("experiment %q has no smoke case in smokeFlags", e.name)
			continue
		}
		t.Run(e.name, func(t *testing.T) {
			for _, s := range settings {
				name, value, _ := strings.Cut(s, "=")
				if !slices.Contains(e.flags, name) {
					t.Fatalf("smoke case sets -%s, which %s does not consume", name, e.name)
				}
				def := flag.Lookup(name).DefValue
				if err := flag.Set(name, value); err != nil {
					t.Fatal(err)
				}
				defer flag.Set(name, def)
			}
			if err := e.run(); err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
		})
	}
	if len(smokeFlags) != len(experimentList) {
		t.Errorf("smokeFlags has %d cases for %d experiments", len(smokeFlags), len(experimentList))
	}
}

// TestSweepEvidenceSurvivesFailure pins the order judgeSweep works in:
// the -benchjson file is written before counter identity and the
// -min-speedup floor are enforced, so a failing CI sweep still uploads
// the numbers that failed it.
func TestSweepEvidenceSurvivesFailure(t *testing.T) {
	row := experiments.SweepRow{W: 8, H: 8, Cycles: 100, Workers: 2, Speedup: 0.5, StatsMatch: true}
	diverged := row
	diverged.StatsMatch = false
	cases := []struct {
		name  string
		row   experiments.SweepRow
		floor float64
	}{
		{"floor", row, 1.0},
		{"identity", diverged, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.json")
			res := &experiments.SweepResult{GOMAXPROCS: 2, NumCPU: 2, Rows: []experiments.SweepRow{tc.row}}
			if err := judgeSweep(res, 1, path, tc.floor); err == nil {
				t.Fatal("judgeSweep accepted a failing sweep")
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("failing sweep left no evidence: %v", err)
			}
			if !strings.Contains(string(raw), `"speedup": 0.5`) {
				t.Errorf("archived sweep lacks the failing row:\n%s", raw)
			}
		})
	}
}

// TestUnconsumedFlags pins the flag-consumption contract: a flag the
// selected experiment ignores is an explicit error, not a silent no-op.
func TestUnconsumedFlags(t *testing.T) {
	cases := []struct {
		exp  string
		set  []string
		want []string
	}{
		// A gate flag on an experiment with no such gate used to be
		// silently ignored — the bug this contract exists to kill.
		{"forensics", []string{"exp", "scenario", "min-speedup", "benchjson"}, []string{"benchjson", "min-speedup"}},
		{"capacity", []string{"exp", "mesh", "scenario", "cycles"}, nil},
		{"layout", []string{"exp", "mesh", "strict-layout", "requests"}, nil},
		{"layout", []string{"exp", "workers"}, []string{"workers"}},
		{"e1", []string{"exp", "chart"}, []string{"chart"}},
		{"fig7", []string{"exp", "chart", "cycles"}, nil},
		// "all" consumes what its members consume, and nothing else.
		{"all", []string{"exp", "seed", "cycles", "chart"}, nil},
		{"all", []string{"exp", "mesh"}, []string{"mesh"}},
		// Global flags are consumed everywhere.
		{"e1", []string{"exp", "cpuprofile", "trace-out"}, nil},
	}
	for _, tc := range cases {
		set := make(map[string]bool, len(tc.set))
		for _, f := range tc.set {
			set[f] = true
		}
		got := unconsumedFlags(selected(tc.exp), set)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("unconsumedFlags(%q, %v) = %v, want %v", tc.exp, tc.set, got, tc.want)
		}
	}
	// Unknown names select nothing; main reports them before any flag check.
	if sel := selected("nonesuch"); sel != nil {
		t.Errorf("selected(nonesuch) = %v, want nil", sel)
	}
}

// TestExpFlagsCoverAllFlags checks the experiment table stays in sync
// with the flag set: every flag an entry (or globalFlags) names must be
// registered (catching renames), and every registered flag must be
// consumed by at least one experiment or globally (catching new flags
// added without a consumer).
func TestExpFlagsCoverAllFlags(t *testing.T) {
	registered := make(map[string]bool)
	flag.VisitAll(func(f *flag.Flag) { registered[f.Name] = true })
	consumed := make(map[string]bool)
	for _, f := range globalFlags {
		if !registered[f] {
			t.Errorf("globalFlags names unregistered flag %q", f)
		}
		consumed[f] = true
	}
	for _, e := range experimentList {
		for _, f := range e.flags {
			if !registered[f] {
				t.Errorf("experiment %q names unregistered flag %q", e.name, f)
			}
			consumed[f] = true
		}
	}
	for name := range registered {
		// The test binary's own flags (test.*) are not rtbench's.
		if strings.HasPrefix(name, "test.") {
			continue
		}
		if !consumed[name] {
			t.Errorf("flag -%s is consumed by no experiment and is not global", name)
		}
	}
}
