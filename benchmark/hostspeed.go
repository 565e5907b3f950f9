package main

import "time"

// The host-speed reference.
//
// The benchmark runs on a few cores of a shared host. There the same
// binary on the same seed runs up to 1.4 times slower for seconds or
// minutes at a stretch — a neighbour on the sibling hardware thread, the
// core's clock dropping from turbo to base — and no statistic of a run's
// own samples can tell such a stretch from a slower program: ten runs split
// between the two states spread by the whole gap (README.md, "A/A").
//
// What can tell is a fixed task timed beside the program. refTask is plain
// Go of the kind the program is made of — map lookups, a pointer chase, an
// arithmetic loop — and it never changes, so when it takes longer, the host
// is slower. Every host time behind an end-to-end metric is divided by the
// slowdown the reference showed around it: the metrics read as they would
// on the quiet reference host, where refTask takes refNominal. On a
// different machine they shift by one constant factor, the same for parent
// and change.

// refNominal and refNominalCold are what the timed run of a warm and of a
// cold reading take on the quiet reference host (2 vCPUs of a Xeon at
// 2.9 GHz).
const (
	refNominal     = 375 * time.Microsecond
	refNominalCold = 600 * time.Microsecond
)

// probeEvery is the time between two readings of the reference inside a
// timed loop: a reading costs two runs of refTask, so 2 % of the wall time.
const probeEvery = 40 * time.Millisecond

var (
	refKeys  [4096]uint64
	refMap   = make(map[uint64]uint32, len(refKeys))
	refNext  [1 << 16]uint32 // 256 KiB of links forming one random cycle
	refStart uint32
	refSweep [4 << 20]byte // twice the core's second-level cache
)

func init() {
	s := newStream(0x686f7374, 0)
	for i := range refKeys {
		refKeys[i] = s.next()
		refMap[refKeys[i]] = uint32(i)
	}
	for i := range refSweep {
		refSweep[i] = byte(i) // untouched pages would all be the one zero page
	}
	perm := make([]uint32, len(refNext))
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := s.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, p := range perm {
		refNext[p] = perm[(i+1)%len(perm)]
	}
}

// refTask is the fixed reference work: hashed lookups, chase dependent
// loads and adds iterations of independent arithmetic. Its branches are all
// loop branches, so its time does not hang on what the branch predictor
// remembers (a sort of the same size varied ten times as much run to run),
// and it allocates nothing.
func refTask(chase, adds int) uint64 {
	var sum uint64
	for pass := 0; pass < 4; pass++ {
		for _, k := range refKeys {
			sum += uint64(refMap[k])
		}
	}
	p := refStart
	for i := 0; i < chase; i++ {
		p = refNext[p]
	}
	refStart = p
	a, b, c, d := sum, uint64(p), uint64(1), uint64(2)
	for i := uint64(0); i < uint64(adds); i++ {
		a += i ^ b
		b += i | c
		c += i & d
		d += i + a
	}
	return a + b + c + d
}

// speedometer reads the host's slowdown: refTask's time over refNominal,
// above 1 when the host is slower than the reference host. A run has one,
// driven from the goroutine that does the timing.
type speedometer struct {
	// cold makes the readings include the shared cache. The saturated
	// controllers wait on it for memo tables spread over 100 MB of heap;
	// the other workloads do not, and would only inherit its noise.
	cold     bool
	last     time.Time
	readings []float64
	spent    time.Duration // host time the readings themselves took
}

// read takes a reading. The reference is to measure the host, not what
// the workload happened to evict, so the caches are put in a known state
// first. Warm: refTask runs twice and the second run is timed, its data in
// the core's own caches; a third each of lookups, loads and arithmetic.
// Cold: 4 MiB are swept through the core's caches, so the timed run finds
// its data in the cache the whole machine shares, and over half its time
// is waiting for it.
func (s *speedometer) read() {
	t0 := time.Now()
	chase, adds, nominal := 6*4096, 7*16384, refNominal
	if s.cold {
		chase, adds, nominal = 4096, 10*16384, refNominalCold
		var x byte
		for i := 0; i < len(refSweep); i += 64 {
			x += refSweep[i]
		}
		sink += uint64(x)
	} else {
		sink += refTask(chase, adds)
	}
	t := time.Now()
	sink += refTask(chase, adds)
	s.last = time.Now()
	s.readings = append(s.readings, float64(s.last.Sub(t))/float64(nominal))
	s.spent += s.last.Sub(t0)
}

// poll takes a reading if the last is older than probeEvery. Timed loops
// call it between operations, so a stretch of host time is covered by
// readings spread over it.
func (s *speedometer) poll() {
	if time.Since(s.last) >= probeEvery {
		s.read()
	}
}

// speedSpan marks where a stretch of host time began.
type speedSpan struct {
	first int
	spent time.Duration
}

func (s *speedometer) begin() speedSpan {
	s.read()
	return speedSpan{len(s.readings) - 1, s.spent}
}

// end closes the stretch b opened. slowdown is the mean of the readings
// from its start to its end, to divide its host times by; probing is the
// host time readings took inside it, to take off a wall time that spans
// them.
func (s *speedometer) end(b speedSpan) (slowdown float64, probing time.Duration) {
	probing = s.spent - b.spent
	s.read()
	return mean(s.readings[b.first:]), probing
}
