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
// Quiescence skipping removes the idle cycles, one mechanism for single
// components, tiles and the whole system in both engines: the wake lists
// (wake.go). A component that implements Skipper reports the next cycle
// at which it has work and can replay a span of idle ticks in closed
// form; its walker leaves it out until then, or until a wire arrival or
// a push wakes it, and jumps ahead when nobody on it is awake. On the
// pool an entry falls asleep only at a step boundary, and an arrival from
// another tile wakes it there, which the epoch bound makes early enough.
// Skip must be bit-exact: counters, scheduler state, and telemetry after
// Skip(now, target) must equal what target-now idle Ticks would have
// produced, which is what keeps sequential, parallel, and epoch runs
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
	// returning a later one is a correctness bug. Work a Sleeper is
	// woken for after the call — a push, or a Pipe write — need not be
	// counted; a value already in flight on a wire it reads must be.
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

// refreshSync re-derives the effective epoch after any registration
// change and gives each new entry its alarm; the next step deals the
// entries out afresh (wake.go).
func (k *Kernel) refreshSync() {
	if !k.syncDirty {
		return
	}
	k.syncDirty = false
	k.effEpoch = k.legalEpoch()
	k.bindAlarms()
	k.dealt = false
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
