package simclock

import (
	"testing"
	"testing/quick"
	"time"

	"tlc/internal/sim"
)

func TestZeroClockIsTrueTime(t *testing.T) {
	c := New(0, 0)
	for _, now := range []sim.Time{0, time.Second, time.Hour} {
		if off := c.OffsetAt(now); off != 0 {
			t.Fatalf("OffsetAt(%v) = %v", now, off)
		}
	}
}

func TestFixedOffset(t *testing.T) {
	c := New(50*time.Millisecond, 0)
	if got := c.OffsetAt(time.Hour); got != 50*time.Millisecond {
		t.Fatalf("OffsetAt = %v", got)
	}
}

func TestDriftAccumulates(t *testing.T) {
	c := New(0, 10) // 10 ppm fast
	// After 1000 seconds, a 10ppm clock gains 10ms.
	got := c.OffsetAt(1000 * time.Second)
	want := 10 * time.Millisecond
	if got < want-time.Microsecond || got > want+time.Microsecond {
		t.Fatalf("drift offset = %v, want ~%v", got, want)
	}
}

func TestObservedWindowShiftsByOffset(t *testing.T) {
	c := New(-20*time.Millisecond, 0) // clock runs behind true time
	w := Window{Start: time.Hour, End: 2 * time.Hour}
	ow := c.ObservedWindow(w)
	// A slow clock reads Tstart late, so it starts metering late in
	// true time: shift = -offset = +20ms.
	if ow.Start != w.Start+20*time.Millisecond || ow.End != w.End+20*time.Millisecond {
		t.Fatalf("ObservedWindow = %+v", ow)
	}
	if ow.End-ow.Start != w.End-w.Start {
		t.Fatalf("duration changed: %v", ow.End-ow.Start)
	}
}

func TestObservedWindowWithDriftChangesDuration(t *testing.T) {
	c := New(0, 100) // fast clock: 100 ppm
	w := Window{Start: 0, End: time.Hour}
	ow := c.ObservedWindow(w)
	// A fast clock reaches Tend early, so it meters a shorter true
	// window: duration shrinks by ~100ppm of an hour = 360ms.
	shrink := (w.End - w.Start) - (ow.End - ow.Start)
	want := 360 * time.Millisecond
	if shrink < want-time.Millisecond || shrink > want+time.Millisecond {
		t.Fatalf("window shrink = %v, want ~%v", shrink, want)
	}
}

func TestSyncModelResidualScale(t *testing.T) {
	rng := sim.NewRNG(11)
	m := NewSyncModel(10*time.Millisecond, rng)
	var sum, sumsq float64
	const n = 5000
	for i := 0; i < n; i++ {
		r := float64(m.Residual())
		sum += r
		sumsq += r * r
	}
	mean := sum / n
	sd := time.Duration((sumsq/n - mean*mean))
	_ = sd
	sdDur := time.Duration((sumsq / n))
	_ = sdDur
	// Mean near zero (within 3 sigma/sqrt(n)).
	if time.Duration(mean) > time.Millisecond || time.Duration(mean) < -time.Millisecond {
		t.Fatalf("residual mean = %v", time.Duration(mean))
	}
}

func TestSyncModelZeroPrecision(t *testing.T) {
	m := NewSyncModel(0, sim.NewRNG(1))
	if m.Residual() != 0 {
		t.Fatal("zero-precision model produced nonzero residual")
	}
}

func TestObservedWindowIdentityProperty(t *testing.T) {
	// With zero offset and drift the observed window equals the plan.
	f := func(startSec, durSec uint16) bool {
		c := New(0, 0)
		w := Window{
			Start: time.Duration(startSec) * time.Second,
			End:   time.Duration(startSec)*time.Second + time.Duration(durSec)*time.Second,
		}
		return c.ObservedWindow(w) == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
