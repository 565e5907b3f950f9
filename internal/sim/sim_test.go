package sim

import "testing"

type counter struct {
	name  string
	ticks []Cycle
}

func (c *counter) Name() string   { return c.name }
func (c *counter) Tick(now Cycle) { c.ticks = append(c.ticks, now) }
func (c *counter) count() int     { return len(c.ticks) }
func (c *counter) last() Cycle    { return c.ticks[len(c.ticks)-1] }
func (c *counter) first() Cycle   { return c.ticks[0] }

func TestKernelStepOrder(t *testing.T) {
	k := NewKernel()
	var order []string
	a := &funcComp{"a", func(Cycle) { order = append(order, "a") }}
	b := &funcComp{"b", func(Cycle) { order = append(order, "b") }}
	k.Register(a)
	k.Register(b)
	k.Step()
	k.Step()
	want := []string{"a", "b", "a", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if k.Now() != 2 {
		t.Errorf("Now() = %d, want 2", k.Now())
	}
}

type funcComp struct {
	name string
	f    func(Cycle)
}

func (f *funcComp) Name() string   { return f.name }
func (f *funcComp) Tick(now Cycle) { f.f(now) }

func TestKernelRun(t *testing.T) {
	k := NewKernel()
	c := &counter{name: "c"}
	k.Register(c)
	k.Run(10)
	if c.count() != 10 {
		t.Fatalf("ticked %d times, want 10", c.count())
	}
	if c.first() != 0 || c.last() != 9 {
		t.Errorf("tick cycles [%d..%d], want [0..9]", c.first(), c.last())
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	c := &counter{name: "c"}
	k.Register(c)
	ok := k.RunUntil(func() bool { return c.count() >= 5 }, 100)
	if !ok {
		t.Fatal("RunUntil did not satisfy predicate")
	}
	if c.count() != 5 {
		t.Errorf("ran %d cycles, want exactly 5", c.count())
	}
	ok = k.RunUntil(func() bool { return c.count() >= 1000 }, 10)
	if ok {
		t.Fatal("RunUntil reported success past budget")
	}
}

// TestRunUntilPredAlreadyTrue: a satisfied predicate costs zero steps.
func TestRunUntilPredAlreadyTrue(t *testing.T) {
	k := NewKernel()
	c := &counter{name: "c"}
	k.Register(c)
	if !k.RunUntil(func() bool { return true }, 100) {
		t.Fatal("RunUntil(true) reported failure")
	}
	if c.count() != 0 {
		t.Errorf("ran %d cycles for an already-true predicate", c.count())
	}
	if k.Now() != 0 {
		t.Errorf("Now() = %d, want 0", k.Now())
	}
}

// TestRunUntilZeroBudget: no steps are taken and the result is just the
// predicate's current value.
func TestRunUntilZeroBudget(t *testing.T) {
	k := NewKernel()
	c := &counter{name: "c"}
	k.Register(c)
	if k.RunUntil(func() bool { return false }, 0) {
		t.Fatal("zero-budget RunUntil reported success on a false predicate")
	}
	if ok := k.RunUntil(func() bool { return true }, 0); !ok {
		t.Fatal("zero-budget RunUntil missed an already-true predicate")
	}
	if c.count() != 0 {
		t.Errorf("zero budget still ran %d cycles", c.count())
	}
}

// TestRunUntilSatisfiedOnLastCycle: the final post-step check counts —
// a predicate that becomes true exactly when the budget is exhausted
// still reports success.
func TestRunUntilSatisfiedOnLastCycle(t *testing.T) {
	k := NewKernel()
	c := &counter{name: "c"}
	k.Register(c)
	if !k.RunUntil(func() bool { return c.count() >= 10 }, 10) {
		t.Fatal("RunUntil missed a predicate satisfied by the last budgeted cycle")
	}
	if c.count() != 10 {
		t.Errorf("ran %d cycles, want exactly 10", c.count())
	}
	// One cycle short: same predicate, budget 9 from a fresh kernel.
	k2 := NewKernel()
	c2 := &counter{name: "c"}
	k2.Register(c2)
	if k2.RunUntil(func() bool { return c2.count() >= 10 }, 9) {
		t.Fatal("RunUntil reported success one cycle short of the budget")
	}
}

func TestRegisterNilPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("Register(nil) did not panic")
		}
	}()
	k.Register(nil)
}

func TestAddLatchNilPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("AddLatch(nil) did not panic")
		}
	}()
	k.AddLatch(nil)
}

func TestRegWireSemantics(t *testing.T) {
	r := NewReg[int]()
	r.Write(7)
	if got := r.Read(); got != 0 {
		t.Errorf("Read before commit = %d, want 0", got)
	}
	r.Commit()
	if got := r.Read(); got != 7 {
		t.Errorf("Read after commit = %d, want 7", got)
	}
	// No write this cycle: the wire drains.
	r.Commit()
	if got := r.Read(); got != 0 {
		t.Errorf("wire did not drain: Read = %d, want 0", got)
	}
}

// TestRegWireMultipleWrites: the last write of a cycle wins, mirroring
// the final driven value being the one latched at the edge.
func TestRegWireMultipleWrites(t *testing.T) {
	r := NewReg[int]()
	r.Write(1)
	r.Write(2)
	r.Write(3)
	r.Commit()
	if got := r.Read(); got != 3 {
		t.Errorf("Read = %d, want the last written value 3", got)
	}
}

// TestRegOneCycleLatency verifies the defining property of the kernel: a
// value written by component A in cycle c is visible to component B only
// in cycle c+1, regardless of registration order.
func TestRegOneCycleLatency(t *testing.T) {
	for _, producerFirst := range []bool{true, false} {
		k := NewKernel()
		wire := NewReg[int]()
		k.AddLatch(wire)
		var seen []int
		producer := &funcComp{"p", func(now Cycle) { wire.Write(int(now) + 100) }}
		consumer := &funcComp{"c", func(Cycle) { seen = append(seen, wire.Read()) }}
		if producerFirst {
			k.Register(producer)
			k.Register(consumer)
		} else {
			k.Register(consumer)
			k.Register(producer)
		}
		k.Run(3)
		// Cycle 0: consumer sees 0 (nothing latched yet).
		// Cycle 1: sees value produced in cycle 0 (100).
		// Cycle 2: sees value produced in cycle 1 (101).
		want := []int{0, 100, 101}
		for i := range want {
			if seen[i] != want[i] {
				t.Fatalf("producerFirst=%v: seen=%v, want %v", producerFirst, seen, want)
			}
		}
	}
}

func TestKernelString(t *testing.T) {
	k := NewKernel()
	k.Register(&counter{name: "x"})
	k.AddLatch(NewReg[int]())
	k.Step()
	k.AttachPipe(NewPipe[int](1), 0, 0)
	k.Step()
	want := "sim.Kernel{cycle=2 components=1 latches=1 pipes=1 workers=1}"
	if got := k.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
