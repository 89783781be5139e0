package main

import (
	"crypto/sha256"
	"math/big"
	"math/rand"
	"sync"
	"time"
)

// The reference box is a shared virtual machine whose speed under load
// drifts by up to 1.9x for minutes at a time, with nothing in the guest's
// steal counter. In the calibration of README.md, ten runs of tpcc-nofsync
// made during a slow half hour had a median of 674 statements/s with their
// quartiles 30% apart; the next ten, 1027 and 11%. Server CPU per statement
// moved with it (2.62 against 1.75 ms): the same work cost more CPU-seconds,
// so the clock, not the program, had changed. A longer interval does not
// average out a slow twenty minutes. So between statements the load generator
// times a fixed piece of work. The ratio of its mean duration to probeNominal
// is how much slower than nominal the box ran during a phase, and the
// time-based end-to-end metrics are divided by it: the same twenty runs then
// read 979 and 1018, quartiles 6% and 4% apart. The wall-clock figures are
// printed beside them.
//
// The probe has to run while the box is loaded: one timed while the server
// is idle does not see the slowdown at all (README, "Times are divided by the
// box's slowdown"). The price is that the server's own use of the second CPU
// slows the probe too, so a change that makes the server burn more CPU in
// parallel reads a little better than it is; client.box_slowdown shows when
// that happens.
//
// The probe is the three things the stack spends its time on, in about the
// proportions a neighbour's load was seen to slow them: big-integer
// arithmetic (Paillier; slowed most), pointer-chasing through memory (hash
// joins, row pages) and hashing a buffer (PRFs and block ciphers; slowed
// least).

// probeNominal is the probe's duration on the quiet reference box. It only
// fixes the unit: normalised times read as on a box this fast.
const probeNominal = 1650 * time.Microsecond

// probeEvery bounds the probes' cost: about 3% of one CPU.
const probeEvery = 50 * time.Millisecond

var (
	probeBase = new(big.Int).Lsh(big.NewInt(0x1234567), 2000)
	probeExp  = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 512), big.NewInt(569))
	probeMod  = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 2048), big.NewInt(1557))
	probeWalk = randomCycle(1 << 20) // 4 MB: larger than the L2 cache
	probeBuf  = make([]byte, 256<<10)
)

// randomCycle returns next-pointers forming one cycle through n slots in
// random order.
func randomCycle(n int) []uint32 {
	perm := rand.New(rand.NewSource(1)).Perm(n)
	next := make([]uint32, n)
	for i, p := range perm {
		next[p] = uint32(perm[(i+1)%n])
	}
	return next
}

// probe does the fixed work, starting the walk at slot at. Its result has
// to be used, or the compiler may drop the work.
func probe(at uint32) uint32 {
	new(big.Int).Exp(probeBase, probeExp, probeMod)
	at %= uint32(len(probeWalk))
	for i := 0; i < 2500; i++ {
		at = probeWalk[at]
	}
	sum := sha256.Sum256(probeBuf)
	return at + uint32(sum[0])
}

type probeSample struct {
	at time.Time
	d  time.Duration
}

// speedometer collects probe timings from every goroutine of the load
// generator.
type speedometer struct {
	mu      sync.Mutex
	last    time.Time
	sink    uint32 // the last probe's result, the next one's start
	samples []probeSample
}

// tick runs one probe if none has started in the last probeEvery. Callers
// call it between statements.
func (s *speedometer) tick() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	due := now.Sub(s.last) >= probeEvery
	if due {
		s.last = now
	}
	at := s.sink
	s.mu.Unlock()
	if !due {
		return
	}
	at = probe(at)
	d := time.Since(now)
	s.mu.Lock()
	s.sink = at
	s.samples = append(s.samples, probeSample{now, d})
	s.mu.Unlock()
}

// slowdown is how many times slower than nominal the box ran between from
// and to, and the number of probes that says so. Without probes it is 1.
func (s *speedometer) slowdown(from, to time.Time) (float64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum time.Duration
	n := 0
	for _, p := range s.samples {
		if !p.at.Before(from) && p.at.Before(to) {
			sum += p.d
			n++
		}
	}
	if n == 0 {
		return 1, 0
	}
	return float64(sum) / float64(n) / float64(probeNominal), n
}
