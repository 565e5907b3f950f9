package sim

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// pipelineStage models a component that communicates only through Regs:
// it reads its input wire and drives input+1 on its output wire.
type pipelineStage struct {
	name    string
	in, out *Reg[int]
	seen    []int
}

func (s *pipelineStage) Name() string { return s.name }
func (s *pipelineStage) Tick(Cycle) {
	v := s.in.Read()
	s.seen = append(s.seen, v)
	s.out.Write(v + 1)
}

// buildRing wires n stages into a ring through Regs, one shard per
// stage, and a driver that seeds the first wire each cycle.
func buildRing(k *Kernel, n int) []*pipelineStage {
	wires := make([]*Reg[int], n)
	for i := range wires {
		wires[i] = NewReg[int]()
		k.AddLatch(wires[i])
	}
	stages := make([]*pipelineStage, n)
	for i := range stages {
		stages[i] = &pipelineStage{
			name: "stage",
			in:   wires[i],
			out:  wires[(i+1)%n],
		}
		k.RegisterShard(i, stages[i])
	}
	return stages
}

// TestParallelMatchesSequential runs the same Reg-coupled ring with one
// and with four workers and requires identical per-component histories,
// once as the kernel chooses and once on the rendezvous worker pool
// forced on (bypassing the single-CPU sequential fallback).
func TestParallelMatchesSequential(t *testing.T) {
	const n, cycles = 13, 200
	seq := NewKernel()
	seqStages := buildRing(seq, n)
	seq.Run(cycles)

	for _, pool := range []bool{false, true} {
		t.Run(fmt.Sprintf("pool=%v", pool), func(t *testing.T) {
			par := NewKernel()
			parStages := buildRing(par, n)
			par.SetWorkers(4)
			par.ForcePool(pool)
			defer par.Close()
			par.Run(cycles)

			for i := range seqStages {
				s, p := seqStages[i].seen, parStages[i].seen
				if len(s) != len(p) {
					t.Fatalf("stage %d: %d vs %d observations", i, len(s), len(p))
				}
				for c := range s {
					if s[c] != p[c] {
						t.Fatalf("stage %d cycle %d: sequential saw %d, parallel saw %d", i, c, s[c], p[c])
					}
				}
			}
		})
	}
}

// TestParallelShardOrder: components sharing a shard tick in
// registration order even in parallel mode (they share state directly,
// like a router and its pacer).
func TestParallelShardOrder(t *testing.T) {
	k := NewKernel()
	k.SetWorkers(3)
	defer k.Close()
	type rec struct{ shard, step int }
	perShard := make([][]rec, 4)
	for s := 0; s < 4; s++ {
		s := s
		for j := 0; j < 3; j++ {
			j := j
			k.RegisterShard(s, &funcComp{"c", func(Cycle) {
				perShard[s] = append(perShard[s], rec{s, j})
			}})
		}
	}
	k.Run(5)
	for s, recs := range perShard {
		if len(recs) != 15 {
			t.Fatalf("shard %d ticked %d times, want 15", s, len(recs))
		}
		for i, r := range recs {
			if r.step != i%3 {
				t.Fatalf("shard %d: out-of-order tick %v at %d", s, r, i)
			}
		}
	}
}

// TestParallelBarrier: an unsharded component runs alone — after every
// sharded component registered before it has finished the cycle, and
// before any registered after it starts — with and without the pooled
// path forced on.
func TestParallelBarrier(t *testing.T) {
	for _, pool := range []bool{false, true} {
		t.Run(fmt.Sprintf("pool=%v", pool), func(t *testing.T) {
			k := NewKernel()
			k.SetWorkers(4)
			k.ForcePool(pool)
			defer k.Close()
			var before, after atomic.Int64
			for s := 0; s < 8; s++ {
				k.RegisterShard(s, &funcComp{"pre", func(Cycle) { before.Add(1) }})
			}
			var seenBefore, seenAfter []int64
			k.Register(&funcComp{"barrier", func(Cycle) {
				seenBefore = append(seenBefore, before.Load())
				seenAfter = append(seenAfter, after.Load())
			}})
			for s := 0; s < 8; s++ {
				k.RegisterShard(s, &funcComp{"post", func(Cycle) { after.Add(1) }})
			}
			const cycles = 20
			k.Run(cycles)
			for c := 0; c < cycles; c++ {
				if seenBefore[c] != int64(8*(c+1)) {
					t.Errorf("cycle %d: barrier saw %d pre-ticks, want %d", c, seenBefore[c], 8*(c+1))
				}
				if seenAfter[c] != int64(8*c) {
					t.Errorf("cycle %d: barrier saw %d post-ticks, want %d", c, seenAfter[c], 8*c)
				}
			}
		})
	}
}

// TestParallelCommit: the commit phase latches every Reg exactly once
// per cycle regardless of worker count, also when the per-worker latch
// shares run on the forced pooled path.
func TestParallelCommit(t *testing.T) {
	for _, pool := range []bool{false, true} {
		t.Run(fmt.Sprintf("pool=%v", pool), func(t *testing.T) {
			k := NewKernel()
			k.SetWorkers(4)
			k.ForcePool(pool)
			defer k.Close()
			regs := make([]*Reg[int], 37) // not a multiple of the worker count
			for i := range regs {
				regs[i] = NewReg[int]()
				k.AddLatch(regs[i])
			}
			k.RegisterShard(0, &funcComp{"w", func(now Cycle) {
				for _, r := range regs {
					r.Write(int(now) + 1)
				}
			}})
			k.Run(3)
			for i, r := range regs {
				if got := r.Read(); got != 3 {
					t.Fatalf("reg %d = %d after 3 cycles, want 3", i, got)
				}
			}
		})
	}
}

// TestSetWorkersMidRun switches modes between Steps and keeps the
// component history consistent; Close returns to sequential mode.
func TestSetWorkersMidRun(t *testing.T) {
	k := NewKernel()
	c := &counter{name: "c"}
	k.RegisterShard(0, c)
	k.Run(5)
	k.SetWorkers(3)
	k.Run(5)
	k.SetWorkers(2) // resize drops the old pool
	k.Run(5)
	k.Close()
	if k.Workers() != 1 {
		t.Fatalf("Workers() after Close = %d, want 1", k.Workers())
	}
	k.Run(5)
	if c.count() != 20 {
		t.Fatalf("ticked %d times, want 20", c.count())
	}
	for i, cyc := range c.ticks {
		if cyc != Cycle(i) {
			t.Fatalf("tick %d at cycle %d", i, cyc)
		}
	}
}

// TestSetWorkersZeroPicksGOMAXPROCS documents the n<=0 convention.
func TestSetWorkersZeroPicksGOMAXPROCS(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	k.SetWorkers(0)
	if k.Workers() < 1 {
		t.Fatalf("Workers() = %d", k.Workers())
	}
}

// TestParallelRegistrationAfterRun: registering more components marks
// the plan dirty and the next parallel Step picks them up.
func TestParallelRegistrationAfterRun(t *testing.T) {
	k := NewKernel()
	k.SetWorkers(2)
	defer k.Close()
	a := &counter{name: "a"}
	k.RegisterShard(0, a)
	k.Run(3)
	b := &counter{name: "b"}
	k.RegisterShard(1, b)
	k.Run(3)
	if a.count() != 6 || b.count() != 3 {
		t.Fatalf("a=%d b=%d, want 6 and 3", a.count(), b.count())
	}
}

func TestRegisterShardNegativePanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("RegisterShard(-1) did not panic")
		}
	}()
	k.RegisterShard(-1, &counter{name: "x"})
}
