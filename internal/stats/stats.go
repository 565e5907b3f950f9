// Package stats provides the measurement primitives the experiment
// harness uses: latency histograms with quantiles, time series for
// service curves (Figure 7), and windowed rate meters.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Hist accumulates latency (or any scalar) samples and reports summary
// statistics. Samples are retained, so quantiles are exact.
type Hist struct {
	samples []float64
	sorted  bool
	sum     float64
}

// Add records one sample. Growth is chunkier than append's doubling
// (4× steps from a 256-sample floor) so a simulation with thousands of
// live histograms crosses reallocation boundaries rarely — the
// steady-state allocation gate counts every one of those events.
func (h *Hist) Add(v float64) {
	if len(h.samples) == cap(h.samples) {
		next := 4 * cap(h.samples)
		if next < 256 {
			next = 256
		}
		grown := make([]float64, len(h.samples), next)
		copy(grown, h.samples)
		h.samples = grown
	}
	h.samples = append(h.samples, v)
	h.sorted = false
	h.sum += v
}

// AddInt records one integer sample.
func (h *Hist) AddInt(v int64) { h.Add(float64(v)) }

// N returns the number of samples.
func (h *Hist) N() int { return len(h.samples) }

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Hist) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
}

// Min returns the smallest sample, or 0 when empty.
func (h *Hist) Min() float64 {
	h.ensureSorted()
	if len(h.samples) == 0 {
		return 0
	}
	return h.samples[0]
}

// Max returns the largest sample, or 0 when empty.
func (h *Hist) Max() float64 {
	h.ensureSorted()
	if len(h.samples) == 0 {
		return 0
	}
	return h.samples[len(h.samples)-1]
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) by nearest-rank, or 0
// when empty.
func (h *Hist) Quantile(q float64) float64 {
	h.ensureSorted()
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return h.samples[0]
	}
	if q >= 1 {
		return h.samples[n-1]
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return h.samples[idx]
}

// Reset discards all samples.
func (h *Hist) Reset() {
	h.samples = h.samples[:0]
	h.sorted = false
	h.sum = 0
}

// CopyInto adds every sample of h into dst (histogram merge).
func (h *Hist) CopyInto(dst *Hist) {
	for _, v := range h.samples {
		dst.Add(v)
	}
}

func (h *Hist) ensureSorted() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// String summarizes the distribution.
func (h *Hist) String() string {
	if h.N() == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.1f p50=%.0f p99=%.0f max=%.0f",
		h.N(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}

// Series is a time series of (time, value) points, typically cumulative
// service bytes against cycles as in Figure 7.
type Series struct {
	Name string
	T    []int64
	V    []float64
}

// Append adds a point.
func (s *Series) Append(t int64, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.T) }

// at returns the value at the last point with time ≤ t (step
// interpolation), or 0 before the first point.
func (s *Series) at(t int64) float64 {
	idx := sort.Search(len(s.T), func(i int) bool { return s.T[i] > t })
	if idx == 0 {
		return 0
	}
	return s.V[idx-1]
}

// Accumulator builds a cumulative series by counting increments and
// sampling on demand.
type Accumulator struct {
	Series
	total float64
}

// Inc adds to the running total without emitting a point.
func (a *Accumulator) Inc(v float64) { a.total += v }

// Sample emits the running total at time t.
func (a *Accumulator) Sample(t int64) { a.Append(t, a.total) }

// Total returns the running total.
func (a *Accumulator) Total() float64 { return a.total }

// RenderASCII plots one or more series as a compact ASCII chart, the
// closest a terminal gets to Figure 7. Values are normalized to the
// global maximum; each series gets one glyph.
func RenderASCII(width, height int, series ...*Series) string {
	if width < 8 || height < 2 || len(series) == 0 {
		return ""
	}
	var tMax int64
	var vMax float64
	for _, s := range series {
		if n := s.Len(); n > 0 {
			if s.T[n-1] > tMax {
				tMax = s.T[n-1]
			}
		}
		for _, v := range s.V {
			if v > vMax {
				vMax = v
			}
		}
	}
	if tMax == 0 || vMax == 0 {
		return "(no data)\n"
	}
	glyphs := "*o+x#@%&"
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for col := 0; col < width; col++ {
			t := int64(float64(tMax) * float64(col) / float64(width-1))
			v := s.at(t)
			row := height - 1 - int(v/vMax*float64(height-1))
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			grid[row][col] = g
		}
	}
	var b strings.Builder
	for i, row := range grid {
		label := ""
		if i == 0 {
			label = fmt.Sprintf("%8.0f |", vMax)
		} else if i == height-1 {
			label = fmt.Sprintf("%8.0f |", 0.0)
		} else {
			label = "         |"
		}
		b.WriteString(label)
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteString("          " + strings.Repeat("-", width) + "\n")
	b.WriteString(fmt.Sprintf("          0%*s%d cycles\n", width-len(fmt.Sprint(tMax))-1, "", tMax))
	for si, s := range series {
		b.WriteString(fmt.Sprintf("          %c %s\n", glyphs[si%len(glyphs)], s.Name))
	}
	return b.String()
}
