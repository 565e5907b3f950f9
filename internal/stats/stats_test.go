package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistEmpty(t *testing.T) {
	var h Hist
	if h.N() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 ||
		h.Quantile(0.5) != 0 {
		t.Error("empty histogram not all-zero")
	}
	if h.String() != "n=0" {
		t.Errorf("String = %q", h.String())
	}
}

func TestHistBasics(t *testing.T) {
	var h Hist
	for _, v := range []float64{5, 1, 3, 2, 4} {
		h.Add(v)
	}
	if h.N() != 5 {
		t.Fatalf("N = %d", h.N())
	}
	if h.Mean() != 3 {
		t.Errorf("Mean = %v, want 3", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if got := h.Quantile(0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := h.Quantile(1); got != 5 {
		t.Errorf("q1 = %v, want 5", got)
	}
}

func TestHistAddAfterQuantile(t *testing.T) {
	var h Hist
	h.AddInt(10)
	_ = h.Quantile(0.5)
	h.AddInt(1) // must re-sort
	if h.Min() != 1 {
		t.Errorf("Min after late add = %v", h.Min())
	}
}

func TestHistQuantileMonotoneQuick(t *testing.T) {
	prop := func(vals []float64, a, b float64) bool {
		var h Hist
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				h.Add(v)
			}
		}
		qa, qb := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return h.Quantile(qa) <= h.Quantile(qb)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	if s.Len() != 0 || s.at(100) != 0 {
		t.Error("empty series not zero")
	}
	s.Append(10, 1)
	s.Append(20, 5)
	s.Append(30, 9)
	if s.Len() != 3 || s.V[s.Len()-1] != 9 {
		t.Errorf("Len/last value = %d/%v", s.Len(), s.V[s.Len()-1])
	}
	cases := map[int64]float64{5: 0, 10: 1, 15: 1, 20: 5, 25: 5, 30: 9, 99: 9}
	for tt, want := range cases {
		if got := s.at(tt); got != want {
			t.Errorf("at(%d) = %v, want %v", tt, got, want)
		}
	}
}

func TestAccumulator(t *testing.T) {
	var a Accumulator
	a.Inc(3)
	a.Inc(4)
	a.Sample(100)
	a.Inc(1)
	a.Sample(200)
	if a.Total() != 8 {
		t.Errorf("Total = %v", a.Total())
	}
	if a.at(100) != 7 || a.at(250) != 8 {
		t.Errorf("series wrong: %v %v", a.at(100), a.at(250))
	}
}

func TestRenderASCII(t *testing.T) {
	s1 := &Series{Name: "fast"}
	s2 := &Series{Name: "slow"}
	for i := int64(0); i < 100; i += 10 {
		s1.Append(i, float64(i)*2)
		s2.Append(i, float64(i))
	}
	out := RenderASCII(40, 10, s1, s2)
	if !strings.Contains(out, "fast") || !strings.Contains(out, "slow") {
		t.Error("legend missing")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("glyphs missing")
	}
	if RenderASCII(2, 1, s1) != "" {
		t.Error("degenerate dimensions should render nothing")
	}
	empty := &Series{Name: "e"}
	if got := RenderASCII(40, 10, empty); got != "(no data)\n" {
		t.Errorf("empty render = %q", got)
	}
}

func TestHistQuantileTinySamples(t *testing.T) {
	var h Hist
	h.Add(42)
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 42 {
			t.Errorf("1-sample Quantile(%v) = %v, want 42", q, got)
		}
	}
	h.Add(10)
	// Nearest-rank on two sorted samples {10, 42}: anything at or below
	// the median picks the first, above it the second.
	if got := h.Quantile(0.5); got != 10 {
		t.Errorf("2-sample Quantile(0.5) = %v, want 10", got)
	}
	if got := h.Quantile(0.51); got != 42 {
		t.Errorf("2-sample Quantile(0.51) = %v, want 42", got)
	}
	if h.Min() != 10 || h.Max() != 42 {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistAddAfterSortedRead(t *testing.T) {
	var h Hist
	h.Add(5)
	h.Add(1)
	if h.Quantile(1) != 5 { // forces the sort
		t.Fatal("setup quantile wrong")
	}
	h.Add(3) // must invalidate the sorted view
	if got := h.Quantile(0.5); got != 3 {
		t.Errorf("median after post-sort Add = %v, want 3", got)
	}
	if h.Min() != 1 || h.Max() != 5 || h.Mean() != 3 {
		t.Errorf("stats after post-sort Add: min=%v max=%v mean=%v", h.Min(), h.Max(), h.Mean())
	}
}
