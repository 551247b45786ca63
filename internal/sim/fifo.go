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

	ring Ring[fifoEntry[T]] // entries not yet fired, head first
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
func (f *FIFO[T]) Len() int { return f.ring.Len() }

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
	if f.ring.Len() == 0 {
		s.push(heapEntry{at: t, seq: s.seq, fn: f.head})
	} else {
		if tail := f.ring.Back().at; t < tail {
			panic(fmt.Sprintf("sim: FIFO push at %v before its tail at %v", t, tail))
		}
		s.queued++
	}
	f.ring.Push(fifoEntry[T]{at: t, seq: s.seq, v: v})
	s.seq++
}

// pop is the head's heap callback. It hands the successor to the heap
// under its reserved key before firing, so a push from inside fire
// finds the stream consistent.
func (f *FIFO[T]) pop() {
	v := f.ring.PopFront().v
	if f.ring.Len() > 0 {
		next := f.ring.Front()
		f.s.queued--
		f.s.push(heapEntry{at: next.at, seq: next.seq, fn: f.head})
	}
	f.fire(v)
}
