package traffic

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestPeriodicSource: the source fires on its first tick and then
// exactly one period apart, numbering the firings.
func TestPeriodicSource(t *testing.T) {
	type firing struct {
		at  sim.Cycle
		seq uint32
	}
	var got []firing
	k := sim.NewKernel()
	k.Register(NewPeriodicSource("src", 40, func(now sim.Cycle, seq uint32) {
		got = append(got, firing{now, seq})
	}))
	k.Run(81)
	if want := []firing{{0, 0}, {40, 1}, {80, 2}}; !reflect.DeepEqual(got, want) {
		t.Errorf("firings = %v, want %v", got, want)
	}
}
