package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// update rewrites the registry goldens from this run instead of
// comparing with them: go test ./cmd/rtsim -run TestMetricsGolden -update.
var update = flag.Bool("update", false, "rewrite the testdata/*.golden registries from this run")

func TestParseMesh(t *testing.T) {
	good := map[string][2]int{
		"4x4":  {4, 4},
		"2X3":  {2, 3},
		"10x1": {10, 1},
	}
	for in, want := range good {
		w, h, err := parseMesh(in)
		if err != nil {
			t.Errorf("parseMesh(%q): %v", in, err)
			continue
		}
		if w != want[0] || h != want[1] {
			t.Errorf("parseMesh(%q) = %d,%d, want %d,%d", in, w, h, want[0], want[1])
		}
	}
	for _, in := range []string{"4", "4x", "x4", "axb", "4x4x4", ""} {
		if _, _, err := parseMesh(in); err == nil {
			t.Errorf("parseMesh(%q): want error", in)
		}
	}
}

// runCaptured drives run in-process with stdout and stderr redirected to
// files, and returns the exit code and both streams.
func runCaptured(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	redirect := func(name string, std **os.File) func() string {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		saved := *std
		*std = f
		return func() string {
			*std = saved
			f.Close()
			b, err := os.ReadFile(f.Name())
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
	}
	out, errs := redirect("stdout", &os.Stdout), redirect("stderr", &os.Stderr)
	code = run(args)
	return code, out(), errs()
}

const fig6 = "../../scenarios/fig6.json"

// TestScenarioRefusesWorkloadFlags: a scenario file carries its own
// workload, so a workload flag beside -scenario is exit 2 naming the
// flag, before anything runs; report flags stay welcome.
func TestScenarioRefusesWorkloadFlags(t *testing.T) {
	for _, name := range workloadFlags {
		value := map[string]string{"mesh": "2x2", "sched": "fifo", "vct": "true", "shared": "true", "berate": "0.1"}[name]
		if value == "" {
			value = "4"
		}
		code, stdout, stderr := runCaptured(t, "-scenario", fig6, "-"+name+"="+value)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "-"+name) {
			t.Errorf("-scenario with -%s: exit %d, stdout %q, stderr %q; want exit 2 naming the flag", name, code, stdout, stderr)
		}
	}
	_, _, stderr := runCaptured(t, "-scenario", fig6, "-cycles", "5", "-links", "-seed", "2")
	if !strings.Contains(stderr, "-cycles, -seed") || strings.Contains(stderr, "-links") {
		t.Errorf("stderr %q: want exactly the workload flags -cycles and -seed named", stderr)
	}
}

// TestLinksTableInBothModes: -links prints the per-link table after a
// scenario run as after a flag-driven one.
func TestLinksTableInBothModes(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", fig6, "-links"},
		{"-mesh", "3x3", "-cycles", "4000", "-links"},
	} {
		code, stdout, _ := runCaptured(t, args...)
		if code != 0 || !strings.Contains(stdout, "per-link traffic (bytes and utilization):") {
			t.Errorf("%v: exit %d, no link table in:\n%s", args, code, stdout)
		}
		if code, stdout, _ := runCaptured(t, args[:len(args)-1]...); code != 0 || strings.Contains(stdout, "per-link traffic") {
			t.Errorf("%v: exit %d, link table printed without -links", args[:len(args)-1], code)
		}
	}
}

// TestTelemetryRunRests: a run with a registry attached keeps the wake
// list. The routers fold between slices of System.Run, where the kernel
// is quiet, so no barrier component holds every router awake.
func TestTelemetryRunRests(t *testing.T) {
	sys := runScenario(fig6, core.Options{Metrics: metrics.NewRegistry(), Workers: 1})
	defer sys.Close()
	if _, slept := sys.Net.Kernel.Activity(nil); slept == 0 {
		t.Error("no component slept through any cycle of a telemetry run")
	}
}

// TestReportEpilogueIsShared: both modes end in the same report — the
// summary, the per-channel SLO table and, on request, the admission
// report — in the same order.
func TestReportEpilogueIsShared(t *testing.T) {
	sections := []string{"simulated ", "time-constrained:", "best-effort:", "peak scheduler occupancy:",
		"per-channel SLO", "per-link traffic", "capacity ledger:", "admission audit trail"}
	for _, args := range [][]string{
		{"-scenario", fig6, "-links", "-admit-report"},
		{"-mesh", "3x3", "-cycles", "4000", "-links", "-admit-report"},
	} {
		code, stdout, _ := runCaptured(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d", args, code)
		}
		at := 0
		for _, s := range sections {
			i := strings.Index(stdout[at:], s)
			if i < 0 {
				t.Errorf("%v: section %q missing or out of order", args, s)
				break
			}
			at += i
		}
	}
}

// metricsGoldens are the runs whose whole Prometheus registry is pinned
// byte for byte, each at one and at two kernel workers. faulty.json
// pins every counter and gauge of the fault scenario: corrupt, flap and
// lose episodes, with the drops, best-effort nacks and retransmits they
// cause; the whole 120 000-cycle run takes about a quarter second, so it
// is its own smoke budget, and it crosses the flap's outage and repair.
// The -explain runs add the slack-attribution cells
// (rt_blame_cycles_total{victim,cause,blamed}) and the rt_forensics_*
// totals: mixed.json covers horizon 4, best-effort contention, multicast
// and the dead port after its 60 000-cycle link failure; faulty.json
// covers fault_retransmit and aborts; the 4×4 cut-through mesh under
// best-effort load covers cut-through wins and link_busy bubbles.
var metricsGoldens = []struct {
	name, golden string
	args         []string
}{
	{"faulty", "testdata/faulty_metrics.golden", []string{"-scenario", "../../scenarios/faulty.json"}},
	{"mixed_explain", "testdata/mixed_explain_metrics.golden", []string{"-scenario", "../../scenarios/mixed.json", "-explain"}},
	{"faulty_explain", "testdata/faulty_explain_metrics.golden", []string{"-scenario", "../../scenarios/faulty.json", "-explain"}},
	{"vct_explain", "testdata/vct_explain_metrics.golden",
		[]string{"-mesh", "4x4", "-vct", "-berate", "0.3", "-cycles", "20000", "-explain"}},
}

// TestMetricsGolden compares each metricsGoldens run's registry with its
// golden at one and at two kernel workers.
func TestMetricsGolden(t *testing.T) {
	for _, tc := range metricsGoldens {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []string{"1", "2"} {
				prom := filepath.Join(t.TempDir(), tc.name+".prom")
				args := append(append([]string{}, tc.args...), "-workers", workers, "-metrics", prom)
				if code, _, stderr := runCaptured(t, args...); code != 0 {
					t.Fatalf("workers %s: exit %d: %s", workers, code, stderr)
				}
				got, err := os.ReadFile(prom)
				if err != nil {
					t.Fatal(err)
				}
				if *update {
					if err := os.WriteFile(tc.golden, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(tc.golden)
				if err != nil {
					t.Fatalf("%v (record it with -update)", err)
				}
				if !bytes.Equal(got, want) {
					gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
					for i := range min(len(gotLines), len(wantLines)) {
						if gotLines[i] != wantLines[i] {
							t.Fatalf("workers %s: registry differs from %s at line %d:\n got: %s\nwant: %s",
								workers, tc.golden, i+1, gotLines[i], wantLines[i])
						}
					}
					t.Fatalf("workers %s: registry has %d lines, %s has %d", workers, len(gotLines), tc.golden, len(wantLines))
				}
			}
		})
	}
}
