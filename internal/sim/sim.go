// Package sim provides a deterministic discrete-event simulator.
//
// All substrates in this repository (the emulated LTE core, the radio
// access network, the workload generators) are driven by a single
// Scheduler so that a one-hour charging cycle can be replayed in
// milliseconds and every experiment is reproducible from a seed.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is simulated time, expressed as the duration since the start of
// the simulation. The zero Time is the simulation epoch.
type Time = time.Duration

// Event is the handle of an event scheduled with At or After; Cancel
// takes it. Events with equal fire times run in the order they were
// scheduled (FIFO), which keeps runs deterministic.
type Event struct {
	cancelled bool
}

// The event queue is a hand-specialised 4-ary min-heap over (at, seq).
// A one-hour charging cycle funnels tens of millions of events through
// it, so the heap avoids container/heap entirely: no heap.Interface
// method calls, no `any` boxing at push/pop, and the (at, seq)
// comparison is inlined into the sift loops. The heap stores value
// entries {at, seq, fn, ev}: sifting compares keys straight out of the
// contiguous slice, and Step calls fn without chasing a pointer. ev is
// set only for a cancellable At, whose handle holds the cancelled bit.
// A 4-ary layout halves the tree depth of a binary heap, trading a
// slightly wider min-of-children scan for half the sift-down levels on
// the pop-dominated workload.
//
// Heap order is strict: seq is unique per scheduler, so no two events
// ever compare equal and FIFO-at-equal-time falls out of the (at, seq)
// ordering exactly as it did under container/heap.

// heapEntry is one queued event with its ordering key and callback
// inlined.
type heapEntry struct {
	at  Time
	seq uint64
	fn  func()
	ev  *Event // nil unless the event can be cancelled
}

// push inserts e, sifting up from the new leaf.
func (s *Scheduler) push(e heapEntry) {
	s.events = append(s.events, e)
	h := s.events
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if h[p].at < e.at || (h[p].at == e.at && h[p].seq < e.seq) {
			break // parent fires first: heap property holds
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	s.events = h
}

// pop removes and returns the earliest entry, sifting the displaced
// last leaf down from the root.
func (s *Scheduler) pop() heapEntry {
	h := s.events
	n := len(h) - 1
	root := h[0]
	last := h[n]
	h[n] = heapEntry{}
	s.events = h[:n]
	if n > 0 {
		s.siftDown(last)
	}
	return root
}

// siftDown places e starting from the (vacant) root.
func (s *Scheduler) siftDown(e heapEntry) {
	h := s.events
	n := len(h)
	i := 0
	for {
		c := i<<2 + 1 // first of up to four children
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].at < h[m].at || (h[j].at == h[m].at && h[j].seq < h[m].seq) {
				m = j
			}
		}
		if e.at < h[m].at || (e.at == h[m].at && e.seq < h[m].seq) {
			break // e fires before its earliest child: done
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}

// Scheduler is a discrete-event scheduler. The zero value is not ready
// for use; construct one with NewScheduler.
type Scheduler struct {
	now    Time
	events []heapEntry // 4-ary min-heap on (at, seq); see push/pop
	seq    uint64
	fired  uint64

	// cur is the seq of the event running now. Between events it is
	// the running event's, or s.seq once RunUntil or Run has fired
	// everything at or before now; see Passed.
	cur uint64
	// held counts the holds reserved and not claimed; holds lists every
	// Hold this scheduler has reserved a key for (see hold.go).
	held  uint64
	holds []*Hold

	// publishedFired and publishedHeld remember what PublishMetrics
	// already flushed to the registry, so publishes are delta-exact.
	publishedFired uint64
	publishedHeld  uint64

	// TraceHook, when non-nil, observes every fired (non-cancelled)
	// event's (at, seq) key just before its callback runs; held
	// completions (see Hold) run no callback and are not traced. It
	// exists for the shard-vs-sequential differential tests, which hash
	// the fired-event stream of each partition; production runs leave it
	// nil and pay one predictable branch per event.
	TraceHook func(at Time, seq uint64)
}

// NewScheduler returns an empty scheduler positioned at time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Fired returns the number of events executed so far, counting each
// held completion whose key the clock has passed (see Hold and Held)
// although no callback ran for it. It is useful for sanity checks in
// tests and benchmarks.
func (s *Scheduler) Fired() uint64 { return s.fired + s.Held() }

// At schedules fn to run at absolute simulated time t. Scheduling in
// the past panics: it indicates a causality bug in the caller.
func (s *Scheduler) At(t Time, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, s.now))
	}
	//tlcvet:allow hotalloc — cancellable events need a unique handle the caller keeps; hot callers that never cancel use AtPooled
	ev := &Event{}
	s.push(heapEntry{at: t, seq: s.seq, fn: fn, ev: ev})
	s.seq++
	return ev
}

// After schedules fn to run d after the current simulated time.
func (s *Scheduler) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// AtPooled schedules fn at absolute time t without returning a
// handle. The heap entry carries fn itself, so hot paths that never
// cancel (link transmissions, packet sources, tickers) schedule
// allocation-free. Use At when the caller needs Cancel.
//
//tlcvet:hotpath every packet transmission schedules through here
func (s *Scheduler) AtPooled(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, s.now))
	}
	s.push(heapEntry{at: t, seq: s.seq, fn: fn})
	s.seq++
}

// AfterPooled schedules fn to run d after now, without a handle; see
// AtPooled.
//
//tlcvet:hotpath relative-time twin of AtPooled
func (s *Scheduler) AfterPooled(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.AtPooled(s.now+d, fn)
}

// Cancel prevents a scheduled event from firing. Cancelling an event
// that already fired (or was already cancelled) is a no-op.
// Cancellation is lazy: the event stays queued and is discarded when
// it reaches the heap root.
func (s *Scheduler) Cancel(ev *Event) {
	if ev != nil {
		ev.cancelled = true
	}
}

// Step executes the single next event. It reports false when no
// runnable events remain.
//
//tlcvet:hotpath the event loop's inner dispatch; runs once per event
func (s *Scheduler) Step() bool {
	for len(s.events) > 0 {
		e := s.pop()
		if e.ev != nil && e.ev.cancelled {
			continue
		}
		s.now, s.cur = e.at, e.seq
		s.fired++
		if s.TraceHook != nil {
			s.TraceHook(e.at, e.seq)
		}
		e.fn()
		return true
	}
	return false
}

// Run executes events until the queue drains, then advances the clock
// past the last held completion, as its event would have.
//
//tlcvet:allow unreached — test support: the tests of sim, netem and ran drain schedulers with it
func (s *Scheduler) Run() {
	for s.Step() {
	}
	s.passHolds()
}

// RunUntil executes events with fire time <= deadline, then advances
// the clock to the deadline, past every held completion at or before
// it. Events scheduled beyond the deadline stay queued.
func (s *Scheduler) RunUntil(deadline Time) {
	for len(s.events) > 0 {
		// Peek: the heap root is the earliest event.
		next := &s.events[0]
		if next.ev != nil && next.ev.cancelled {
			s.pop()
			continue
		}
		if next.at > deadline {
			break
		}
		s.Step()
	}
	if s.now <= deadline {
		s.now, s.cur = deadline, s.seq
	}
}

// Ticker invokes fn every interval starting at start until the
// scheduler drains or the returned stop function is called.
func (s *Scheduler) Ticker(start Time, interval time.Duration, fn func(now Time)) (stop func()) {
	if interval <= 0 {
		panic("sim: non-positive ticker interval")
	}
	stopped := false
	var tick func()
	next := start
	tick = func() {
		if stopped {
			return
		}
		fn(s.now)
		next += interval
		s.AtPooled(next, tick)
	}
	s.AtPooled(start, tick)
	return func() { stopped = true }
}

// RNG is a deterministic random source for simulation components.
// Each component should derive its own stream with Fork so that adding
// randomness in one module does not perturb another.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// SeedForCell derives a deterministic RNG seed for one cell of an
// experiment sweep from the sweep's base seed and the cell's grid
// coordinates. The derivation is a pure function of (base, coords) —
// never of execution order — so a sweep fanned out across worker
// goroutines draws exactly the random streams the sequential run
// draws, and its output stays byte-identical at any worker count.
// This is the sanctioned way to mint per-cell seeds (the seededrand
// check points here); feed the result to NewRNG or Config.Seed.
func SeedForCell(base int64, coords ...int) int64 {
	// FNV-1a over the base seed and each coordinate, mirroring
	// RNG.Fork's label hashing.
	const (
		offset = 1469598103934665603
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(base))
	for _, c := range coords {
		mix(uint64(int64(c)))
	}
	return int64(h)
}

// Fork derives an independent deterministic stream labelled by name.
func (g *RNG) Fork(name string) *RNG {
	var h uint64 = 1469598103934665603 // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return NewRNG(int64(h) ^ g.r.Int63())
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Bernoulli reports a coin flip with success probability p. The
// degenerate cases p <= 0 and p >= 1 consume no draw, so disabling a
// probabilistic feature leaves the stream — and everything seeded
// downstream of it — untouched.
func (g *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Intn returns a uniform value in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Uniform returns a uniform value in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + (hi-lo)*g.r.Float64()
}

// Exp returns an exponentially distributed duration with the given
// mean. It is used for outage inter-arrival and duration processes.
func (g *RNG) Exp(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(g.r.ExpFloat64() * float64(mean))
}

// Norm returns a normally distributed value.
func (g *RNG) Norm(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// Read implements io.Reader so an RNG can be passed to crypto key
// generation for reproducible (test-only) keys.
func (g *RNG) Read(b []byte) (int, error) {
	_, _ = g.r.Read(b) // rand.Rand.Read is documented to always succeed
	return len(b), nil
}
