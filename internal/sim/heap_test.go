package sim

import (
	"sort"
	"testing"
	"time"
)

// TestHeapMatchesReferenceOrder drives the 4-ary heap with a
// randomized schedule — duplicate fire times, cancellations, pushes
// into several FIFO streams whose times tie with each other and with
// plain events, and holds, some claimed and some not — and checks the
// execution order against a reference model sorted by (at, seq). A
// claimed hold fires at its reserved key; an unclaimed one fires
// nothing, counts in Fired and Held, and reads as passed exactly when
// the running event's key is past its own.
func TestHeapMatchesReferenceOrder(t *testing.T) {
	rng := NewRNG(20260805)
	for trial := 0; trial < 50; trial++ {
		s := NewScheduler()
		type ref struct {
			at  Time
			seq int
		}
		var want []ref
		var got []int
		n := 1 + rng.Intn(300)
		holds := make([]Hold, n)
		var unclaimed []ref
		// fire records event i, which runs at key (at, i): every
		// schedule below takes exactly one seq, so seq i is call i.
		fire := func(i int) {
			got = append(got, i)
			for _, u := range unclaimed {
				passed := u.at < s.Now() || (u.at == s.Now() && u.seq < i)
				if s.Passed(&holds[u.seq]) != passed {
					t.Fatalf("trial %d: at event %d (%v) the hold %d at %v reads passed=%v",
						trial, i, s.Now(), u.seq, u.at, !passed)
				}
			}
		}
		streams := make([]*FIFO[int], 1+rng.Intn(4))
		tails := make([]Time, len(streams))
		for k := range streams {
			streams[k] = NewFIFO(s, fire)
		}
		for i := 0; i < n; i++ {
			// Few distinct times so equal-time FIFO is exercised hard.
			at := Time(rng.Intn(16)) * time.Millisecond
			i := i
			switch rng.Intn(4) {
			case 0:
				s.AtPooled(at, func() { fire(i) })
			case 3:
				s.Hold(&holds[i], at)
				if rng.Intn(2) == 0 {
					unclaimed = append(unclaimed, ref{at: at, seq: i})
					continue // fires nothing: not in the reference
				}
				s.Claim(&holds[i], func() { fire(i) })
			case 1:
				// A stream's times never decrease: clamp to its tail.
				k := rng.Intn(len(streams))
				if at < tails[k] {
					at = tails[k]
				}
				tails[k] = at
				streams[k].Push(at, i)
			default:
				ev := s.At(at, func() { fire(i) })
				if rng.Intn(5) == 0 {
					s.Cancel(ev)
					continue // not in the reference
				}
			}
			want = append(want, ref{at: at, seq: i})
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
		s.Run()
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(got), len(want))
		}
		if s.Held() != uint64(len(unclaimed)) || s.Fired() != uint64(len(want)+len(unclaimed)) {
			t.Fatalf("trial %d: Held %d and Fired %d, want %d and %d", trial,
				s.Held(), s.Fired(), len(unclaimed), len(want)+len(unclaimed))
		}
		for _, u := range unclaimed {
			if s.Now() < u.at {
				t.Fatalf("trial %d: Run stopped at %v before the hold at %v", trial, s.Now(), u.at)
			}
		}
		for i := range want {
			if got[i] != want[i].seq {
				t.Fatalf("trial %d: position %d fired event %d, reference says %d",
					trial, i, got[i], want[i].seq)
			}
		}
	}
}

// TestHeapInterleavedPushPop alternates scheduling and stepping so
// sift-down runs against a constantly reshaped heap, with the clock
// checked to be non-decreasing throughout.
func TestHeapInterleavedPushPop(t *testing.T) {
	s := NewScheduler()
	rng := NewRNG(7)
	fired := 0
	var last Time
	for i := 0; i < 2000; i++ {
		d := time.Duration(rng.Intn(1000)) * time.Microsecond
		s.AfterPooled(d, func() {
			if s.Now() < last {
				t.Fatalf("time went backwards: %v after %v", s.Now(), last)
			}
			last = s.Now()
			fired++
		})
		if i%3 == 0 {
			s.Step()
		}
	}
	s.Run()
	if fired != 2000 {
		t.Fatalf("fired %d, want 2000", fired)
	}
}

// TestRunUntilCancelledAtRoot cancels the earliest queued events — the
// heap root RunUntil peeks at — and checks the peek loop discards them
// without firing or stalling.
func TestRunUntilCancelledAtRoot(t *testing.T) {
	s := NewScheduler()
	var got []int
	var cancelled []*Event
	// The three earliest events all sit at the root region and get
	// cancelled; one of them is beyond the deadline too.
	for i, at := range []time.Duration{1, 2, 3} {
		i := i
		cancelled = append(cancelled, s.At(at*time.Millisecond, func() { got = append(got, -i) }))
	}
	s.At(5*time.Millisecond, func() { got = append(got, 5) })
	s.At(7*time.Millisecond, func() { got = append(got, 7) })
	for _, ev := range cancelled {
		s.Cancel(ev)
	}
	s.RunUntil(6 * time.Millisecond)
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("got %v, want [5]", got)
	}
	if s.Now() != 6*time.Millisecond {
		t.Fatalf("Now = %v, want 6ms", s.Now())
	}
	if len(s.events) != 1 {
		t.Fatalf("%d events pending, want 1 (the 7ms event)", len(s.events))
	}
	if s.Fired() != 1 {
		t.Fatalf("Fired = %d, want 1 (cancelled events must not count)", s.Fired())
	}
}

// TestAtPooledZeroAllocSteadyState asserts the pooled scheduling path
// allocates nothing once the heap is warm.
func TestAtPooledZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by -race instrumentation")
	}
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < 256; i++ { // warm the heap slice
		s.AfterPooled(time.Duration(i)*time.Microsecond, fn)
	}
	s.Run()
	avg := testing.AllocsPerRun(200, func() {
		s.AfterPooled(time.Microsecond, fn)
		s.Step()
	})
	if avg != 0 {
		t.Fatalf("AtPooled steady state allocates %v per op, want 0", avg)
	}
}
