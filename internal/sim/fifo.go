package sim

import "fmt"

// FIFO is a stream of events that fire in the order they were pushed,
// each handing one value to the stream's callback. It suits a producer
// whose fire times never decrease, such as a link whose packets all
// take the same propagation delay: only the stream's head sits in the
// scheduler's heap, so a link with a thousand packets on the wire
// costs the heap one entry, not a thousand.
//
// Push reserves the scheduler's next seq at call time, exactly as
// AtPooled does. When the head fires, its successor enters the heap
// under that reserved (at, seq). Within a stream both at and seq only
// grow, so each stream is a sorted run and the heap performs a k-way
// merge of the runs: the firing order, Fired and the TraceHook stream
// are exactly those of scheduling every push as its own AtPooled event.
type FIFO[T any] struct {
	s    *Scheduler
	fire func(T)
	head func() // f.pop, bound once so that a push allocates nothing

	ring []fifoEntry[T] // power-of-two circular buffer
	off  int            // ring index of the head
	n    int            // entries not yet fired
}

type fifoEntry[T any] struct {
	at  Time
	seq uint64
	v   T
}

// NewFIFO returns an empty stream on s that calls fire(v) for each
// pushed v at its fire time.
func NewFIFO[T any](s *Scheduler, fire func(T)) *FIFO[T] {
	f := &FIFO[T]{s: s, fire: fire}
	f.head = f.pop
	return f
}

// Len returns the number of pushed values that have not fired yet.
func (f *FIFO[T]) Len() int { return f.n }

// Push schedules fire(v) at absolute time t. A t before now panics, as
// At does, and so does a t before the stream's latest pending fire
// time: both indicate a causality bug in the caller.
//
//tlcvet:hotpath every delayed link delivery and cross-shard arrival is pushed here
func (f *FIFO[T]) Push(t Time, v T) {
	s := f.s
	if t < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, s.now))
	}
	if f.n > 0 {
		if tail := f.ring[(f.off+f.n-1)&(len(f.ring)-1)].at; t < tail {
			panic(fmt.Sprintf("sim: FIFO push at %v before its tail at %v", t, tail))
		}
	}
	if f.n == len(f.ring) {
		f.grow()
	}
	f.ring[(f.off+f.n)&(len(f.ring)-1)] = fifoEntry[T]{at: t, seq: s.seq, v: v}
	if f.n == 0 {
		s.push(heapEntry{at: t, seq: s.seq, fn: f.head})
	} else {
		s.queued++
	}
	f.n++
	s.seq++
}

// pop is the head's heap callback. It hands the successor to the heap
// under its reserved key before firing, so a push from inside fire
// finds the stream consistent.
func (f *FIFO[T]) pop() {
	e := &f.ring[f.off]
	v := e.v
	*e = fifoEntry[T]{} // the ring keeps no fired value alive
	f.off = (f.off + 1) & (len(f.ring) - 1)
	f.n--
	if f.n > 0 {
		next := &f.ring[f.off]
		f.s.queued--
		f.s.push(heapEntry{at: next.at, seq: next.seq, fn: f.head})
	}
	f.fire(v)
}

// grow doubles the ring (16 slots minimum), unwrapping the stream to
// the front of the new buffer.
func (f *FIFO[T]) grow() {
	n := 2 * len(f.ring)
	if n == 0 {
		n = 16
	}
	//tlcvet:allow hotalloc — geometric doubling; amortized O(1) per push and quiescent once the ring reaches the stream's high-water mark
	ring := make([]fifoEntry[T], n)
	for i := 0; i < f.n; i++ {
		ring[i] = f.ring[(f.off+i)&(len(f.ring)-1)]
	}
	f.ring = ring
	f.off = 0
}
