package sim

import (
	"strings"
	"testing"
	"time"
)

// TestFIFOHoldsOneHeapSlot: a stream's pending events cost the heap
// one entry, while Pending and Fired still count every event.
func TestFIFOHoldsOneHeapSlot(t *testing.T) {
	s := NewScheduler()
	var got []int
	f := NewFIFO(s, func(i int) { got = append(got, i) })
	for i := 0; i < 1000; i++ {
		f.Push(Time(i/10)*time.Millisecond, i)
	}
	if len(s.events) != 1 {
		t.Fatalf("heap holds %d entries for one stream, want 1", len(s.events))
	}
	if s.Pending() != 1000 || f.Len() != 1000 {
		t.Fatalf("Pending = %d, Len = %d, want 1000 and 1000", s.Pending(), f.Len())
	}
	s.RunUntil(49 * time.Millisecond)
	if s.Pending() != 500 || f.Len() != 500 || len(s.events) != 1 {
		t.Fatalf("after 500 fired: Pending = %d, Len = %d, heap = %d, want 500, 500, 1",
			s.Pending(), f.Len(), len(s.events))
	}
	s.Run()
	if s.Pending() != 0 || s.Fired() != 1000 || len(got) != 1000 {
		t.Fatalf("after Run: Pending = %d, Fired = %d, delivered %d, want 0, 1000, 1000",
			s.Pending(), s.Fired(), len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d fired %d: a stream must fire in push order", i, v)
		}
	}
}

// TestFIFOPushBeforeTailPanics: a stream's fire times may not decrease,
// even when the earlier time is still in the future.
func TestFIFOPushBeforeTailPanics(t *testing.T) {
	s := NewScheduler()
	f := NewFIFO(s, func(int) {})
	f.Push(5*time.Millisecond, 0)
	f.Push(5*time.Millisecond, 1) // equal times are fine
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "before its tail") {
			t.Fatalf("push before the tail: recovered %v, want a tail panic", r)
		}
	}()
	f.Push(4*time.Millisecond, 2)
}

// TestFIFOPushFromItsOwnCallback: a callback may push onto the stream
// that fired it, whether or not the stream still holds entries.
func TestFIFOPushFromItsOwnCallback(t *testing.T) {
	s := NewScheduler()
	var got []int
	var f *FIFO[int]
	f = NewFIFO(s, func(i int) {
		got = append(got, i)
		if i < 6 {
			f.Push(s.Now()+time.Millisecond, i+2)
		}
	})
	f.Push(time.Millisecond, 0)
	f.Push(time.Millisecond, 1)
	s.Run()
	want := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestFIFOZeroAllocSteadyState asserts a push and its firing allocate
// nothing once the stream's ring and the heap are warm.
func TestFIFOZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by -race instrumentation")
	}
	s := NewScheduler()
	sum := 0
	f := NewFIFO(s, func(i int) { sum += i })
	for i := 0; i < 256; i++ { // warm the ring and the heap slice
		f.Push(time.Duration(i)*time.Microsecond, i)
	}
	s.Run()
	avg := testing.AllocsPerRun(200, func() {
		f.Push(s.Now()+time.Microsecond, 1)
		s.Step()
	})
	if avg != 0 {
		t.Fatalf("FIFO push+fire allocates %v per op, want 0", avg)
	}
}

// TestHeapRetainsNoFiredCallback: once events have fired, no slot of
// the heap's backing array, nor of a stream's ring, still references
// a callback, handle or value, so fired closures and the packets they
// carry are free for the GC however large a burst grew the arrays.
func TestHeapRetainsNoFiredCallback(t *testing.T) {
	s := NewScheduler()
	f := NewFIFO(s, func(*int) {})
	for i := 0; i < 3000; i++ {
		at := Time(i%97) * time.Microsecond
		v := i
		switch i % 4 {
		case 0:
			s.AtPooled(at, func() { _ = v })
		case 1:
			ev := s.At(at, func() { _ = v })
			if i%3 == 0 {
				s.Cancel(ev)
			}
		default:
			f.Push(Time(i)*time.Microsecond, &v)
		}
	}
	s.Run()
	for i, e := range s.events[:cap(s.events)] {
		if e.fn != nil || e.ev != nil {
			t.Fatalf("heap slot %d of %d still holds a fired event", i, cap(s.events))
		}
	}
	for i, e := range f.ring.buf {
		if e.v != nil {
			t.Fatalf("ring slot %d of %d still holds a fired value", i, len(f.ring.buf))
		}
	}
}
