package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerRunsInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(3*time.Second, func() { got = append(got, 3) })
	s.At(1*time.Second, func() { got = append(got, 1) })
	s.At(2*time.Second, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", s.Now())
	}
}

func TestSchedulerFIFOAtSameTime(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestSchedulerAfterIsRelative(t *testing.T) {
	s := NewScheduler()
	var fired Time
	s.At(5*time.Second, func() {
		s.After(2*time.Second, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 7*time.Second {
		t.Fatalf("After fired at %v, want 7s", fired)
	}
}

func TestSchedulerPastSchedulingPanics(t *testing.T) {
	s := NewScheduler()
	s.At(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(0, func() {})
	})
	s.Run()
}

func TestSchedulerNegativeAfterClampsToNow(t *testing.T) {
	s := NewScheduler()
	ran := false
	s.At(time.Second, func() {
		s.After(-5*time.Second, func() { ran = true })
	})
	s.Run()
	if !ran {
		t.Fatal("negative After never ran")
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	ran := false
	ev := s.At(time.Second, func() { ran = true })
	s.Cancel(ev)
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if !ev.cancelled {
		t.Fatal("event not marked cancelled")
	}
	// Cancelling again, or cancelling nil, must not panic.
	s.Cancel(ev)
	s.Cancel(nil)
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var got []Time
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		d := d * time.Second
		s.At(d, func() { got = append(got, d) })
	}
	s.RunUntil(3 * time.Second)
	if len(got) != 3 {
		t.Fatalf("ran %d events, want 3", len(got))
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", s.Now())
	}
	if len(s.events) != 2 {
		t.Fatalf("%d events pending, want 2", len(s.events))
	}
	// RunUntil advances the clock even with an empty relevant window.
	s.RunUntil(3500 * time.Millisecond)
	if s.Now() != 3500*time.Millisecond {
		t.Fatalf("Now = %v, want 3.5s", s.Now())
	}
}

func TestTicker(t *testing.T) {
	s := NewScheduler()
	var ticks []Time
	s.Ticker(0, time.Second, func(now Time) { ticks = append(ticks, now) })
	s.RunUntil(5 * time.Second)
	if len(ticks) != 6 { // t=0..5 inclusive
		t.Fatalf("got %d ticks, want 6: %v", len(ticks), ticks)
	}
	for i, tk := range ticks {
		if tk != time.Duration(i)*time.Second {
			t.Fatalf("tick %d at %v", i, tk)
		}
	}
}

func TestTickerStop(t *testing.T) {
	s := NewScheduler()
	n := 0
	var stop func()
	stop = s.Ticker(0, time.Second, func(now Time) {
		n++
		if n == 3 {
			stop()
		}
	})
	s.RunUntil(10 * time.Second)
	if n != 3 {
		t.Fatalf("ticker fired %d times after stop, want 3", n)
	}
}

func TestTickerZeroIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero ticker interval did not panic")
		}
	}()
	NewScheduler().Ticker(0, 0, func(Time) {})
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(42).Fork("x").Float64() == c.Float64() {
			continue
		}
		same = false
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	g := NewRNG(7)
	a := g.Fork("link")
	b := g.Fork("radio")
	// Streams from different labels should differ (overwhelmingly).
	diff := 0
	for i := 0; i < 32; i++ {
		if a.Float64() != b.Float64() {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("forked streams identical")
	}
}

func TestRNGUniformBounds(t *testing.T) {
	g := NewRNG(1)
	f := func(a, b uint32) bool {
		lo, hi := float64(a), float64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		v := g.Uniform(lo, hi)
		return v >= lo && (v < hi || lo == hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if got := g.Uniform(5, 5); got != 5 {
		t.Fatalf("degenerate Uniform = %v, want 5", got)
	}
	if got := g.Uniform(5, 3); got != 5 {
		t.Fatalf("inverted Uniform = %v, want lo", got)
	}
}

func TestRNGExp(t *testing.T) {
	g := NewRNG(2)
	mean := 500 * time.Millisecond
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		d := g.Exp(mean)
		if d < 0 {
			t.Fatal("negative exponential sample")
		}
		sum += d
	}
	avg := sum / n
	if avg < 450*time.Millisecond || avg > 550*time.Millisecond {
		t.Fatalf("Exp mean = %v, want ~%v", avg, mean)
	}
	if g.Exp(0) != 0 {
		t.Fatal("Exp(0) != 0")
	}
}

func TestRNGRead(t *testing.T) {
	g := NewRNG(3)
	buf := make([]byte, 64)
	n, err := g.Read(buf)
	if n != 64 || err != nil {
		t.Fatalf("Read = (%d, %v)", n, err)
	}
	zero := true
	for _, b := range buf {
		if b != 0 {
			zero = false
		}
	}
	if zero {
		t.Fatal("Read produced all zeros")
	}
}

func TestSchedulerFiredCount(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 5; i++ {
		s.At(time.Duration(i)*time.Second, func() {})
	}
	s.Run()
	if s.Fired() != 5 {
		t.Fatalf("Fired = %d, want 5", s.Fired())
	}
}
