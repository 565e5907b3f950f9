package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/scenario"
)

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

// TestSamplePeriodFollowsTheRun: the default -sample is 1% of the run
// that is about to happen — the scenario's own length under -scenario,
// not the -cycles default — and only with telemetry on.
func TestSamplePeriodFollowsTheRun(t *testing.T) {
	sc, err := scenario.Load(fig6)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	if got := samplePeriod(reg, 0, sc.Cycles); got != 160 {
		t.Errorf("default period for the %d-cycle fig6 scenario = %d, want 160", sc.Cycles, got)
	}
	if got := samplePeriod(reg, 25, sc.Cycles); got != 25 {
		t.Errorf("explicit -sample 25 resolved to %d", got)
	}
	if got := samplePeriod(reg, 0, 40); got != 1 {
		t.Errorf("period for a 40-cycle run = %d, want the floor of 1", got)
	}
	if got := samplePeriod(nil, 0, sc.Cycles); got != 0 {
		t.Errorf("period without telemetry = %d, want 0 (no sampler)", got)
	}
	// End to end: the sampler runScenario registers ticks at that period.
	sys := runScenario(fig6, observers{reg: reg}, 0, 1)
	defer sys.Close()
	if sys.Sampler == nil || sys.Sampler.Every() != 160 {
		t.Errorf("scenario run sampler = %+v, want one every 160 cycles", sys.Sampler)
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
