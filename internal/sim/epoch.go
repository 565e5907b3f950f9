package sim

// Epoch synchronization and quiescence skipping.
//
// The parallel engine's baseline costs one full worker rendezvous per
// simulated cycle. When every cross-shard interaction travels through a
// Pipe of latency ≥ k, a value written during cycle t is unreadable
// before t+k, so workers may tick their tiles for k consecutive cycles
// between rendezvous without any tile observing another's writes early:
// the reader's probe range [t, t+k) and the writer's store range
// [t+k, t+2k) occupy disjoint ring slots. The kernel derives k itself —
// the minimum cross-shard pipe latency — and always runs that longest
// legal epoch; it falls back to 1 whenever a latch (a Reg needs its
// commit every edge), a barrier component, or a wire whose endpoint
// shards are unknown makes longer epochs illegal, or when no wire
// crosses shards at all and nothing bounds the epoch. The derivation
// re-runs lazily after every registration, so a barrier component
// registered mid-run flushes the epoch back to 1 before the next Run
// iteration.
//
// Quiescence skipping removes the idle cycles entirely. A component
// that implements Skipper can report the next cycle at which it has
// work and can replay a span of idle ticks in closed form. When every
// component is idle past a horizon and no pipe holds an in-flight
// value due before it, the kernel jumps the clock. Skip must be
// bit-exact: counters, scheduler state, and telemetry after Skip(now,
// target) must equal what target-now idle Ticks would have produced,
// which is what keeps sequential, parallel, and epoch runs
// byte-identical.

// Never is the NextWork sentinel for "no work scheduled": far enough
// ahead that it never bounds a skip, small enough that arithmetic on
// it cannot overflow.
const Never = Cycle(1) << 62

// Skipper is a component whose idle stretches the kernel may
// fast-forward.
type Skipper interface {
	Component

	// NextWork returns the earliest cycle ≥ now at which the component
	// may do anything observable; now itself means "busy". Returning an
	// earlier cycle than necessary is safe (the skip just shortens);
	// returning a later one is a correctness bug.
	NextWork(now Cycle) Cycle

	// Skip replays the idle cycles [now, target) in closed form. The
	// component's complete state afterwards must be bit-identical to
	// having Ticked every cycle of the span.
	Skip(now, target Cycle)
}

// EffectiveEpoch returns the number of consecutive cycles parallel
// workers run between rendezvous: the longest epoch the wires, latches
// and barrier components allow. Epochs only change the execution
// schedule, never results.
func (k *Kernel) EffectiveEpoch() int64 {
	k.refreshSync()
	return k.effEpoch
}

// refreshSync re-derives the effective epoch and the skip roster after
// any registration change.
func (k *Kernel) refreshSync() {
	if !k.syncDirty {
		return
	}
	k.syncDirty = false
	k.effEpoch = k.legalEpoch()

	// Whole-system skipping needs every component able to fast-forward
	// and no latch whose per-edge drain a jump would miss.
	k.skippers = k.skippers[:0]
	k.skipOK = len(k.latches) == 0
	if k.skipOK {
		for _, en := range k.entries {
			s, ok := en.c.(Skipper)
			if !ok {
				k.skipOK = false
				break
			}
			k.skippers = append(k.skippers, s)
		}
	}
	if !k.skipOK {
		k.skippers = k.skippers[:0]
	}
	k.skipBlock = -1
}

// legalEpoch is the minimum latency over the cross-shard pipes, or 1
// where that bound does not exist or does not suffice.
func (k *Kernel) legalEpoch() int64 {
	if len(k.latches) > 0 {
		return 1 // Regs must commit at every edge; epochs would skip commits
	}
	for _, en := range k.entries {
		if en.shard == globalShard {
			return 1 // a barrier component may read anything, every cycle
		}
	}
	e := int64(0) // no cross-shard wire seen yet
	for _, pe := range k.pipes {
		if pe.writer < 0 || pe.reader < 0 {
			return 1 // unknown endpoints: no tile owns the wire's reads
		}
		if pe.writer == pe.reader {
			continue // same-shard wire: ordering is per-shard serial
		}
		if l := pe.p.Latency(); e == 0 || l < e {
			e = l
		}
	}
	if e == 0 {
		return 1 // no wire crosses shards: nothing bounds the epoch
	}
	return e
}

// trySkipTo fast-forwards the whole system to the earliest upcoming
// work (capped at end) when every component is idle and no wire holds
// an arrival due first. Returns false — having changed nothing — if any
// component or pipe has work now. The most-recently-blocking component
// is probed first, so on a busy system the failed probe is one call.
func (k *Kernel) trySkipTo(end Cycle) bool {
	if !k.skipOK {
		return false
	}
	now := k.now
	if b := k.skipBlock; b >= 0 && k.skippers[b].NextWork(now) <= now {
		return false
	}
	target := end
	for i, s := range k.skippers {
		nw := s.NextWork(now)
		if nw <= now {
			k.skipBlock = i
			return false
		}
		if nw < target {
			target = nw
		}
	}
	k.skipBlock = -1
	for _, pe := range k.pipes {
		ns := pe.p.NextStamp(now)
		if ns <= now {
			return false
		}
		if ns < target {
			target = ns
		}
	}
	if target <= now {
		return false
	}
	for _, s := range k.skippers {
		s.Skip(now, target)
	}
	k.now = target
	return true
}
