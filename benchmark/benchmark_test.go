package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// The benchmark runs from the root of the checkout (BENCHMARK.json and
// scenarios/ are found relative to it), so the tests do too.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestGeneratorIsPure(t *testing.T) {
	// Random access: request i is the same whatever was drawn before it.
	var forward, backward []request
	for i := 0; i < 500; i++ {
		forward = append(forward, genRequest(7, i, 16, 16, defaultHotPct))
	}
	for i := 499; i >= 0; i-- {
		backward = append(backward, genRequest(7, i, 16, 16, defaultHotPct))
	}
	for i, r := range forward {
		if r != backward[499-i] {
			t.Fatalf("request %d depends on call order: %+v vs %+v", i, r, backward[499-i])
		}
	}
	if reflect.DeepEqual(forward[:50], func() []request {
		var o []request
		for i := 0; i < 50; i++ {
			o = append(o, genRequest(8, i, 16, 16, defaultHotPct))
		}
		return o
	}()) {
		t.Fatal("seeds 7 and 8 generate the same requests")
	}

	hot := 0
	for i, r := range forward {
		if r.SX < 0 || r.SX >= 16 || r.SY < 0 || r.SY >= 16 || r.DX < 0 || r.DX >= 16 || r.DY < 0 || r.DY >= 16 {
			t.Fatalf("request %d off the mesh: %+v", i, r)
		}
		if r.SX == r.DX && r.SY == r.DY {
			t.Fatalf("request %d is a channel to itself: %+v", i, r)
		}
		hops := abs(r.DX-r.SX) + abs(r.DY-r.SY) + 1
		if r.D != int64(slotsPerHop*hops+slackSlots) {
			t.Fatalf("request %d breaks the D rule: %+v", i, r)
		}
		for _, h := range hotNodes(16, 16) {
			if r.DX == h[0] && r.DY == h[1] {
				hot++
			}
		}
	}
	// 25 % hot plus the uniform draws that land on a hot node by chance.
	if hot < 90 || hot > 170 {
		t.Fatalf("%d of 500 requests go to a hot node, want about 130", hot)
	}

	// And of nothing in internal/: the generator's file imports nothing.
	f, err := parser.ParseFile(token.NewFileSet(), "benchmark/gen.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Imports) != 0 {
		t.Fatalf("gen.go imports %d packages; the generator must stand alone", len(f.Imports))
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 99, 990, true}, // 10 beyond
		{999, 99, 990, false}, // 9 beyond
		{20, 50, 10, true},    // 10 beyond
		{19, 50, 10, false},   // 9 beyond
		{100000, 99.9, 99900, true},
		{0, 50, 0, false},
	} {
		got, ok := percentile(ramp(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if got := highestPercentile(ramp(500)); got != 90 {
		t.Errorf("highest percentile of 500 samples = p%g, want p90", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "call", Start: 10, End: 30, Parent: 0},
		{Name: "inner", Start: 15, End: 20, Parent: 1},
		{Name: "call", Start: 40, End: 50, Parent: 0},
	}
	want := map[string]int64{"root": 70, "call": 25, "inner": 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}

	// The tracer nests by call order and tolerates being nil.
	var off *tracer
	off.end(off.begin("x", 0))
	tr := newTracer()
	a := tr.begin("a", 1)
	tr.add("leaf", 1, time.Now(), time.Millisecond)
	b := tr.begin("b", 1)
	tr.end(b)
	tr.end(a)
	if tr.spans[1].Parent != a || tr.spans[b].Parent != a || tr.spans[a].Parent != -1 || len(tr.open) != 0 {
		t.Fatalf("bad nesting: %+v", tr.spans)
	}
}

func TestHostSpeedReference(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { sink += refTask(4096, 16384) }); n != 0 {
		t.Errorf("refTask allocates %v times a run; it must not wake the collector", n)
	}
	var s speedometer
	b := s.begin()
	s.read()
	slow, probing := s.end(b)
	if len(s.readings) != 3 || probing <= 0 || probing >= s.spent {
		t.Fatalf("%d readings, %v of %v spent inside the stretch; want 3 readings, the middle one's time inside", len(s.readings), probing, s.spent)
	}
	if want := mean(s.readings); slow != want || slow <= 0 {
		t.Errorf("slowdown %v, want the mean of the readings %v", slow, want)
	}
}

// TestBenchmarkJSONMatchesBinary pins BENCHMARK.json to the names and units
// the binary prints: a metric or workload added to one must be added to
// the other.
func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	sort.Strings(got)
	if want := workloadNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("workloads: BENCHMARK.json has %v, the binary %v", got, want)
	}
	same := func(kind string, js []jsonMetric, defs []metricDef) {
		a, b := map[string]string{}, map[string]string{}
		for _, m := range js {
			a[m.Name] = m.Unit
		}
		for _, d := range defs {
			b[d.name] = d.unit
		}
		if len(a) != len(js) || len(b) != len(defs) {
			t.Errorf("%s: a name is listed twice", kind)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: BENCHMARK.json has %v, the binary %v", kind, a, b)
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound missing or outside (0, 0.25]", m.Name)
		}
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", spec.Paths)
	}
}

// TestSmoke runs every workload, untraced and traced, on 4×4 meshes with
// one segment or two rounds each: every code path and every output check,
// in seconds. A smoke run measures nothing.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 3, seconds: 1, smoke: true, host: &speedometer{}}
			if traced {
				cfg.tr = newTracer()
			}
			out, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			res := report(out, cfg)
			if !res.Correct {
				t.Errorf("%s traced=%v: checks failed: %v", name, traced, out.problems)
			}
			if res.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d operations", name, traced, res.Attempted)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
				if len(cfg.tr.spans) == 0 || len(cfg.tr.open) != 0 {
					t.Errorf("%s: %d spans recorded, %d left open", name, len(cfg.tr.spans), len(cfg.tr.open))
				}
			}
			if len(res.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), want)
			}
		}
	}
	if d := time.Since(start); d > 5*time.Second && !raceEnabled {
		t.Errorf("smoke run took %v, want under 5 s", d)
	}
}
