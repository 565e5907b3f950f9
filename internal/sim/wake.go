package sim

import (
	"math"
	"math/bits"
)

// The wake list.
//
// The sequential engine ticks only the components that are awake. It
// keeps one bit per registered entry and walks the set bits in
// registration order every cycle. After an awake Skipper ticks at cycle
// c, the engine asks its NextWork(c+1); a later answer takes the entry
// off the list until then. While it sleeps, nobody calls it. Before it
// ticks again, or before anyone reads state its idle ticks would have
// changed, Skip replays the cycles it missed in closed form, so every
// result is the every-cycle loop's.
//
// A sleeper wakes three ways: its NextWork comes due (a timer), another
// component pushes work into it (Alarm.Wake), or a value is written to a
// Pipe it reads (Pipe.Write sets its bit; it wakes at its next turn, and
// a tick at rest before the arrival is as exact as the Skip it
// replaces). A push wakes it at the present moment, exactly where the
// every-cycle loop would first see the push: later in the same cycle for
// an entry registered after the pusher, in the next cycle for one
// registered before it. When nobody is awake, the clock jumps to the
// first timer — the whole-system quiescence skip is the empty list's
// case of the same engine.
//
// Sleeping is legal only where no state is shared behind the kernel's
// back: no latch (a Reg commits every edge), no barrier component (it
// may read anything), every component a Skipper, and every attached
// pipe read by a component that has lent it its Alarm (Pipe.SetReader),
// so no arrival can go unannounced. Otherwise every entry stays awake
// and the list is the every-cycle loop. The worker pool never sleeps
// anyone: entering it wakes every sleeper first.

// awake is Alarm.at of a component on the wake list: below every cycle,
// so no arrival can pull its wake-up earlier.
const awake = Cycle(math.MinInt64)

// Alarm is one registered component's place on the sequential engine's
// wake list. The kernel hands it to every Sleeper (SetAlarm); the
// component wakes it on every push and lends it to the pipes it reads.
type Alarm struct {
	at   Cycle // while asleep, the cycle its timer fires (Never: only a push wakes it); awake while on the list
	from Cycle // while asleep, the first cycle Skip has not replayed yet
	// word and bit locate the entry's bit in the kernel's awake bitmap,
	// which Pipe.Write sets for a sleeping reader.
	word *uint64
	bit  uint64
	k    *Kernel
	i    int   // entry index
	born Cycle // the cycle the kernel made the alarm at
	// slept counts the cycles Skip has replayed.
	slept int64
}

// Wake puts a sleeping component back on the wake list at the present
// moment. It first replays the cycles the component slept through with
// Skip: through the current cycle if the component's turn in it has
// passed, up to it if not. The component then ticks from its next turn
// on. A push calls Wake before it changes anything the component's Skip
// reads. No-op on an awake component and on a nil alarm (a component
// no kernel has bound).
func (a *Alarm) Wake() {
	if a != nil && a.at != awake {
		a.k.wake(a)
	}
}

// Settle replays the cycles a sleeping component has missed up to the
// present moment, leaving it asleep, so that a read of its state is what
// the every-cycle loop would show. No-op on an awake component and on a
// nil alarm.
func (a *Alarm) Settle() {
	if a != nil && a.at != awake {
		a.k.settle(a)
	}
}

// Sleeper is a Skipper that other components push work into, by a
// method call or through a Pipe it reads. The kernel hands it its Alarm
// at the first Run or Step after registration; from then on every push
// must call Alarm.Wake before it changes the component's state, and
// every pipe the component reads must carry the alarm (Pipe.SetReader).
// A plain Skipper is put to sleep on its NextWork alone, so nothing may
// push into it.
type Sleeper interface {
	Skipper
	SetAlarm(a *Alarm)
}

// timer is one pending wake-up of entry i at cycle at. A timer whose
// alarm has since woken, or been set to another cycle, is stale and is
// dropped when it comes due.
type timer struct {
	at Cycle
	i  int
}

// timerHeap is a binary min-heap of timers by cycle.
type timerHeap []timer

func (h *timerHeap) push(t timer) {
	*h = append(*h, t)
	s := *h
	for j := len(s) - 1; j > 0; {
		p := (j - 1) / 2
		if s[p].at <= s[j].at {
			break
		}
		s[p], s[j] = s[j], s[p]
		j = p
	}
}

func (h *timerHeap) pop() timer {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for j := 0; ; {
		c := 2*j + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].at < s[c].at {
			c++
		}
		if s[j].at <= s[c].at {
			break
		}
		s[j], s[c] = s[c], s[j]
		j = c
	}
	*h = s
	return top
}

// present is the first cycle entry i has not run in the every-cycle
// schedule: during a cycle, the next one for an entry whose turn has
// passed.
func (k *Kernel) present(i int) Cycle {
	if i < k.cursor {
		return k.now + 1
	}
	return k.now
}

// settle replays a sleeper's missed cycles up to the present moment.
func (k *Kernel) settle(a *Alarm) {
	if t := k.present(a.i); t > a.from {
		k.entries[a.i].s.Skip(a.from, t)
		a.slept += int64(t - a.from)
		a.from = t
	}
}

// wake settles a sleeper and puts it back on the list.
func (k *Kernel) wake(a *Alarm) {
	k.settle(a)
	a.at = awake
	*a.word |= a.bit
	k.entries[a.i].asleep = false
	k.asleep--
}

// sleep takes entry i off the list from cycle from until cycle at.
func (k *Kernel) sleep(i int, from, at Cycle) {
	e := &k.entries[i]
	a := e.a
	a.at, a.from = at, from
	*a.word &^= a.bit
	e.asleep = true
	k.asleep++
	if at < Never {
		k.timers.push(timer{at: at, i: i})
	}
}

// quiet reports that no bit of the awake bitmap is set: with everyone
// asleep, a set bit is an arrival announced by Pipe.Write.
func (k *Kernel) quiet() bool {
	for _, w := range k.awakeSet {
		if w != 0 {
			return false
		}
	}
	return true
}

// wakeAll settles every sleeper and puts it back on the list, for the
// worker pool and for a roster change.
func (k *Kernel) wakeAll() {
	if k.asleep == 0 {
		return
	}
	for i := range k.entries {
		if a := k.entries[i].a; a != nil && a.at != awake {
			k.wake(a)
		}
	}
	k.timers = k.timers[:0]
}

// fire wakes the components whose timers are due at now, dropping stale
// timers.
func (k *Kernel) fire(now Cycle) {
	for len(k.timers) > 0 && k.timers[0].at <= now {
		t := k.timers.pop()
		if a := k.entries[t.i].a; a.at == t.at {
			k.wake(a)
		}
	}
}

// walk ticks the entries whose bit is set, in registration order, and
// takes off the list each one whose next work lies beyond the next
// cycle. It re-reads the current bitmap word after every tick, so an
// entry a push woke later in this cycle's order ticks in it. A set bit
// on a sleeper is a Pipe.Write's: the sleeper wakes at its turn, this
// cycle or the next. Registration waits for the next refresh, so neither
// slice moves during the walk.
func (k *Kernel) walk(now Cycle) {
	next := now + 1
	ents, set := k.entries, k.awakeSet
	for w := range set {
		for m := set[w]; m != 0; {
			b := bits.TrailingZeros64(m)
			i := w<<6 | b
			k.cursor = i
			e := &ents[i]
			if e.asleep {
				k.wake(e.a)
			}
			e.c.Tick(now)
			if nw := e.s.NextWork(next); nw > next {
				k.sleep(i, next, nw)
			}
			m = set[w] & (^uint64(1) << b)
		}
	}
}

// bindAlarms gives every entry registered since the last refresh its
// alarm, hands it to the entry if it is a Sleeper, and puts the entry on
// the list. The alarms of one refresh share one allocation.
func (k *Kernel) bindAlarms() {
	n := len(k.entries)
	if need := (n + 63) >> 6; need > len(k.awakeSet) {
		k.awakeSet = append(k.awakeSet, make([]uint64, need-len(k.awakeSet))...)
		for _, e := range k.entries {
			if a := e.a; a != nil {
				a.word = &k.awakeSet[a.i>>6]
			}
		}
	}
	first := n
	for first > 0 && k.entries[first-1].a == nil {
		first--
	}
	block := make([]Alarm, n-first)
	for i := first; i < n; i++ {
		a := &block[i-first]
		*a = Alarm{at: awake, word: &k.awakeSet[i>>6], bit: 1 << (i & 63), k: k, i: i, born: k.now}
		k.entries[i].a = a
		*a.word |= a.bit
		k.entries[i].s, _ = k.entries[i].c.(Skipper)
		if s, ok := k.entries[i].c.(Sleeper); ok {
			s.SetAlarm(a)
		}
	}
}

// sleepLegal reports that the wake list may put entries to sleep: no
// latch, no barrier component, every component a Skipper, and no pipe a
// reader reads unannounced.
func (k *Kernel) sleepLegal() bool {
	if len(k.latches) > 0 {
		return false
	}
	for _, en := range k.entries {
		if en.s == nil || en.shard == globalShard {
			return false
		}
	}
	for _, pe := range k.pipes {
		if !pe.p.announced() {
			return false
		}
	}
	return true
}

// Activity reports how the sequential engine spent the cycles of the
// components match accepts (every component when match is nil): ticked
// counts the component-cycles they were awake for, slept those they
// slept through, replayed by Skip or still to be. Cycles run on the
// worker pool count as ticked. It settles nothing.
func (k *Kernel) Activity(match func(Component) bool) (ticked, slept int64) {
	for _, e := range k.entries {
		a := e.a
		if a == nil || match != nil && !match(e.c) {
			continue
		}
		s := a.slept
		if a.at != awake {
			s += int64(k.now - a.from)
		}
		slept += s
		ticked += int64(k.now-a.born) - s
	}
	return ticked, slept
}
