package sim

import (
	"math"
	"math/bits"
)

// The wake list.
//
// Both engines tick only the components that are awake, through one
// walker type. A walker keeps one bit per entry it owns and walks the set
// bits in registration order every cycle: the sequential engine has one
// walker over every entry, and the worker pool gives each tile its own.
// An awake Skipper whose NextWork lies beyond the next cycle leaves the
// list until then; while it sleeps, nobody calls it. Before it ticks
// again, or before anyone reads state its idle ticks would have changed,
// Skip replays the cycles it missed in closed form, so every result is
// the every-cycle loop's.
//
// A sleeper wakes three ways: its NextWork comes due (a timer), another
// component pushes work into it (Alarm.Wake), or a value is written to a
// Pipe it reads (Pipe.Write sets its bit; it wakes at its next turn, and
// a tick at rest before the arrival is as exact as the Skip it
// replaces). A push wakes it at the present moment, exactly where the
// every-cycle loop would first see the push: later in the same cycle for
// an entry registered after the pusher, in the next cycle for one
// registered before it. When nobody on a walker is awake, it jumps to
// its first timer — the whole-system quiescence skip is the sequential
// walker's case of that jump.
//
// The sequential walker puts an entry to sleep right after its tick. A
// tile of the worker pool does so only at a step boundary, after the
// tick-phase join: a NextWork in mid-step would read the stamps of
// wires that other tiles are writing. Such a sleep pass asks every
// awake entry, which on a busy mesh is nearly all of them, so the pool
// runs one at most every napEvery cycles; an entry that came to rest in
// between ticks a few cycles more. A write on a pipe between two tiles
// never touches the reader's tile either: it rings a stand-in alarm
// (Kernel.retarget) whose flag the writer's tile owns, and the reader's
// tile turns the flags of its stand-ins into wakes at the boundary.
// That is early enough, because the epoch is at most the shortest
// latency between shards, so every arrival from another tile lands at
// or after the step's end.
//
// Sleeping is legal only where no state is shared behind the kernel's
// back: no latch (a Reg commits every edge), no barrier component (it
// may read anything), every component a Skipper, every attached pipe
// read by a component that has lent it its Alarm (Pipe.SetReader), so no
// arrival can go unannounced, and on the pool every pipe's writer shard
// known. Otherwise every entry stays awake: the sequential engine ticks
// them all in a plain loop, the pool's walkers every cycle.

// awake is Alarm.at of a component on the wake list: below every cycle,
// so no arrival can pull its wake-up earlier.
const awake = Cycle(math.MinInt64)

// Alarm is one registered component's place on its walker's wake list.
// The kernel hands it to every Sleeper (SetAlarm); the component wakes
// it on every push and lends it to the pipes it reads.
type Alarm struct {
	at   Cycle // while asleep, the cycle its timer fires (Never: only a push wakes it); awake while on the list
	from Cycle // while asleep, the first cycle Skip has not replayed yet
	// word and bit locate the entry's bit in its walker's awake bitmap,
	// which Pipe.Write sets for a sleeping reader.
	word *uint64
	bit  uint64
	w    *walker // the walker the kernel dealt the entry to (nil before the first deal)
	i    int     // the entry's index on w
	k    *Kernel
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
		a.w.wake(a)
	}
}

// Settle replays the cycles a sleeping component has missed up to the
// present moment, leaving it asleep, so that a read of its state is what
// the every-cycle loop would show. No-op on an awake component and on a
// nil alarm.
func (a *Alarm) Settle() {
	if a != nil && a.at != awake {
		a.w.settle(a)
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

// timer is one pending wake-up of entry i at cycle at.
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

// walker is the wake list of one run of entries in registration order:
// one bit per entry that ticks this cycle, the number asleep, their
// pending timers, the entry ticking now (-1 between ticks), the cycle it
// has reached, and, on a pool tile, the stand-in alarms that writes from
// other tiles ring for its readers, and how many of those show their
// reader asleep.
type walker struct {
	ents   []entry
	set    []uint64
	asleep int
	timers timerHeap
	cursor int
	now    Cycle
	stand  []*Alarm
	dozing int
}

// newWalker returns a walker over copies of ents. The kernel binds their
// alarms to it when it deals (Kernel.deal).
func newWalker(ents []entry) *walker {
	return &walker{ents: append([]entry(nil), ents...), set: make([]uint64, (len(ents)+63)>>6)}
}

// bind puts every entry, awake (Kernel.deal), on the list at cycle
// now, and points its alarm at its bit.
func (w *walker) bind(now Cycle) {
	w.timers, w.cursor, w.now, w.stand, w.dozing = nil, -1, now, nil, 0
	for i := range w.ents {
		a := w.ents[i].a
		a.w, a.i, a.word, a.bit = w, i, &w.set[i>>6], 1<<(i&63)
		*a.word |= a.bit
	}
}

// settle replays a sleeper's missed cycles up to the present moment: the
// first cycle it has not run in the every-cycle schedule, which during a
// cycle is the next one for an entry whose turn has passed.
func (w *walker) settle(a *Alarm) {
	t := w.now
	if a.i < w.cursor {
		t++
	}
	if t > a.from {
		w.ents[a.i].s.Skip(a.from, t)
		a.slept += int64(t - a.from)
		a.from = t
	}
}

// wake settles a sleeper and puts it back on the list.
func (w *walker) wake(a *Alarm) {
	w.settle(a)
	a.at = awake
	*a.word |= a.bit
	w.ents[a.i].asleep = false
	w.asleep--
}

// sleep takes entry i off the list from cycle from until cycle at.
func (w *walker) sleep(i int, from, at Cycle) {
	e := &w.ents[i]
	a := e.a
	a.at, a.from = at, from
	*a.word &^= a.bit
	e.asleep = true
	w.asleep++
	if at < Never {
		w.timers.push(timer{at: at, i: i})
	}
}

// advance moves the walker from its cycle toward end: the timers due
// wake their components, and then either the awake entries tick one
// cycle (walk) or, with nobody awake, the walker jumps to its first
// timer or to end. nap puts an entry to sleep right after its tick.
func (w *walker) advance(end Cycle, nap bool) {
	now := w.now
	for len(w.timers) > 0 && w.timers[0].at <= now {
		// A timer whose alarm has since woken, or been set to another
		// cycle, is stale and is dropped.
		if t := w.timers.pop(); w.ents[t.i].a.at == t.at {
			w.wake(w.ents[t.i].a)
		}
	}
	if w.asleep == len(w.ents) && w.quiet() {
		w.now = end
		if len(w.timers) > 0 {
			w.now = min(end, w.timers[0].at)
		}
		return
	}
	w.walk(now, nap)
	w.now = now + 1
}

// quiet reports that no bit of the awake bitmap is set: with everyone
// asleep, a set bit is an arrival announced by Pipe.Write.
func (w *walker) quiet() bool {
	for _, b := range w.set {
		if b != 0 {
			return false
		}
	}
	return true
}

// walk ticks the entries whose bit is set, in registration order, and
// with nap takes off the list each one whose next work lies beyond the
// next cycle. It re-reads the current bitmap word after every tick, so an
// entry a push woke later in this cycle's order ticks in it. A set bit
// on a sleeper is a Pipe.Write's: the sleeper wakes at its turn, this
// cycle or the next. Neither slice moves during the walk.
func (w *walker) walk(now Cycle, nap bool) {
	next := now + 1
	ents, set := w.ents, w.set
	for wd := range set {
		for m := set[wd]; m != 0; {
			b := bits.TrailingZeros64(m)
			i := wd<<6 | b
			w.cursor = i
			e := &ents[i]
			if e.asleep {
				w.wake(e.a)
			}
			e.c.Tick(now)
			if nap {
				if nw := e.s.NextWork(next); nw > next {
					w.sleep(i, next, nw)
				}
			}
			m = set[wd] & (^uint64(1) << b)
		}
	}
	w.cursor = -1
}

// boundary ends a pool step at cycle end: with nap it puts to sleep each
// awake entry whose next work lies beyond end and copies each reader's
// state into its stand-in alarms, so that in the next steps a write from
// another tile rings only for a reader asleep at the last sleep pass — an
// entry awake then stays awake until the next one. While some stand-in
// shows its reader asleep, it also turns the flags of the stand-ins into
// wakes of their readers.
func (w *walker) boundary(end Cycle, nap bool) {
	for wd := 0; nap && wd < len(w.set); wd++ {
		for m := w.set[wd]; m != 0; m &= m - 1 {
			i := wd<<6 | bits.TrailingZeros64(m)
			if e := &w.ents[i]; !e.asleep {
				if nw := e.s.NextWork(end); nw > end {
					w.sleep(i, end, nw)
				}
			}
		}
	}
	if !nap && w.dozing == 0 {
		return
	}
	w.dozing = 0
	for _, a := range w.stand {
		r := w.ents[a.i].a
		if *a.word != 0 {
			*a.word = 0
			*r.word |= r.bit
		}
		if nap && a.at != r.at {
			a.at = r.at // the writer's tile reads the line: store only a change
		}
		if a.at != awake {
			w.dozing++
		}
	}
}

// bindAlarms gives every entry registered since the last refresh its
// alarm and hands it to the entry if it is a Sleeper; the next deal puts
// them on a walker.
func (k *Kernel) bindAlarms() {
	for i := range k.entries {
		e := &k.entries[i]
		if e.a != nil {
			continue
		}
		e.a, e.born = &Alarm{at: awake, k: k}, k.now
		e.s, _ = e.c.(Skipper)
		if s, ok := e.c.(Sleeper); ok {
			s.SetAlarm(e.a)
		}
	}
}

// deal wakes everyone and puts the entries on the walkers of the engine
// that runs next: the sequential engine's one walker, or the pool plan's
// tiles. It runs after every change of the roster, the plan, the engine
// or a pipe's reader.
func (k *Kernel) deal(pool bool) {
	for _, e := range k.entries {
		if a := e.a; a != nil && a.at != awake {
			a.w.wake(a) // settle every sleeper on its old walker
		}
	}
	k.sleepOn = k.sleepLegal(pool)
	var ws []*walker
	if pool {
		for _, s := range k.plan {
			for _, g := range s.groups {
				ws = append(ws, g...)
			}
		}
	} else {
		k.seq = newWalker(k.entries)
		ws = []*walker{k.seq}
	}
	for _, w := range ws {
		w.bind(k.now)
	}
	k.retarget(pool, ws)
	k.pooled, k.dealt = pool, true
}

// retarget points every pipe's Write at its reader's bit, directly where
// writer and reader share a walker. Otherwise — on the pool, while
// entries may sleep — Write rings a stand-in alarm of the reader's tile
// whose flag word belongs to the pipe, so only the writer's tile writes
// it during a step (walker.boundary).
func (k *Kernel) retarget(pool bool, ws []*walker) {
	home := make(map[int]*walker)
	if pool && k.sleepOn {
		for _, w := range ws {
			for _, e := range w.ents {
				home[e.shard] = w
			}
		}
	}
	for _, pe := range k.pipes {
		r := pe.p.readBy()
		ring := r
		if from := home[pe.writer]; from != nil && r.w != nil && from != r.w {
			ring = &Alarm{at: awake, word: new(uint64), bit: 1, i: r.i}
			r.w.stand = append(r.w.stand, ring)
		}
		pe.p.ringTo(ring)
	}
}

// sleepLegal reports that the walkers may put entries to sleep: no
// latch, no barrier component, every component a Skipper, no pipe a
// reader reads unannounced, and on the pool no pipe whose writer's tile
// is unknown.
func (k *Kernel) sleepLegal(pool bool) bool {
	for _, en := range k.entries {
		if en.s == nil || en.shard == globalShard {
			return false
		}
	}
	for _, pe := range k.pipes {
		if pe.p.readBy() == &unread || pool && pe.writer < 0 {
			return false
		}
	}
	return len(k.latches) == 0
}

// Activity reports how the engines spent the cycles of the components
// match accepts (every component when match is nil): ticked counts the
// component-cycles they were awake for, slept those they slept through,
// replayed by Skip or still to be. It settles nothing.
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
		ticked += int64(k.now-e.born) - s
	}
	return ticked, slept
}
