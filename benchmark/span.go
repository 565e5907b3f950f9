package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (nothing inside internal/ knows it is being traced). Times are
// nanoseconds since the tracer was created; Parent indexes the enclosing
// span, -1 for a root; Round groups the spans of one round or segment.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Round  int32  `json:"round"`
}

// maxSpans bounds the in-memory trace (~6 MB, a span file of ~13 MB); later spans are counted
// in dropped, never silently lost.
const maxSpans = 1 << 17

// tracer records spans in memory and writes them out when the benchmark
// ends. A nil *tracer records nothing, so untraced runs share the code
// path and pay one nil check per boundary. It is used from the driving
// goroutine only.
type tracer struct {
	epoch   time.Time
	spans   []span
	open    []int32
	dropped int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string, round int) int32 {
	if t == nil {
		return -1
	}
	return t.push(name, round, time.Since(t.epoch).Nanoseconds(), true)
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.epoch).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// add records an already-timed leaf call, reusing the clock reads the
// latency sample took so a traced call is not timed twice.
func (t *tracer) add(name string, round int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.epoch).Nanoseconds()
	if id := t.push(name, round, s, false); id >= 0 {
		t.spans[id].End = s + d.Nanoseconds()
	}
}

func (t *tracer) push(name string, round int, start int64, open bool) int32 {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: start, Parent: parent, Round: int32(round)})
	if open {
		t.open = append(t.open, id)
	}
	return id
}

// selfTimes returns, per span name, the summed self time in nanoseconds:
// each span's duration minus the part its direct children cover.
func selfTimes(spans []span) map[string]int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// write stores the spans as JSON lines at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if t.dropped > 0 {
		fmt.Fprintf(os.Stderr, "trace: %d spans beyond the %d-span cap were not recorded\n", t.dropped, maxSpans)
	}
	return nil
}
