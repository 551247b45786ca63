package simclock

import (
	"testing"
	"testing/quick"
	"time"

	"tlc/internal/sim"
)

// The helpers below are test support: no binary converts between
// local and true time, re-syncs a clock or measures a window.

// LocalTime converts a true instant into this party's local time.
func (c *Clock) LocalTime(now sim.Time) time.Duration {
	return now + c.OffsetAt(now)
}

// TrueTimeOf converts this party's local time back to true time,
// ignoring drift accumulated over the conversion interval (a second-
// order effect at ppm drift rates).
func (c *Clock) TrueTimeOf(local time.Duration) sim.Time {
	// Invert local = t + offset + drift*t/1e6 approximately by one
	// fixed-point iteration starting from t = local - offset.
	t := local - c.offset
	return local - c.OffsetAt(t)
}

// Sync performs an NTP-style synchronisation at the given true time:
// the clock reads residual ahead of true time at now and drifts on
// from there. The drift OffsetAt adds up to now is folded into the
// offset, so the clock needs no record of the sync instant.
func (c *Clock) Sync(now sim.Time, residual time.Duration) {
	c.offset = residual - time.Duration(float64(now)*c.driftPPM/1e6)
}

// SyncAll synchronises every clock at the given true time.
func (m *SyncModel) SyncAll(now sim.Time, clocks ...*Clock) {
	for _, c := range clocks {
		c.Sync(now, m.Residual())
	}
}

// Duration returns End - Start.
func (w Window) Duration() time.Duration { return w.End - w.Start }

// Contains reports whether t falls inside the window.
func (w Window) Contains(t sim.Time) bool { return t >= w.Start && t < w.End }

func TestZeroClockIsTrueTime(t *testing.T) {
	c := New(0, 0)
	for _, now := range []sim.Time{0, time.Second, time.Hour} {
		if c.LocalTime(now) != now {
			t.Fatalf("LocalTime(%v) = %v", now, c.LocalTime(now))
		}
	}
}

func TestFixedOffset(t *testing.T) {
	c := New(50*time.Millisecond, 0)
	if got := c.LocalTime(time.Second); got != time.Second+50*time.Millisecond {
		t.Fatalf("LocalTime = %v", got)
	}
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

func TestSyncResetsDrift(t *testing.T) {
	c := New(100*time.Millisecond, 10)
	c.Sync(1000*time.Second, 2*time.Millisecond)
	// Right after sync: residual only.
	if got := c.OffsetAt(1000 * time.Second); got != 2*time.Millisecond {
		t.Fatalf("post-sync offset = %v, want 2ms", got)
	}
	// Drift resumes from the sync instant.
	got := c.OffsetAt(2000 * time.Second)
	want := 2*time.Millisecond + 10*time.Millisecond
	if got < want-time.Microsecond || got > want+time.Microsecond {
		t.Fatalf("offset 1000s after sync = %v, want ~%v", got, want)
	}
}

func TestTrueTimeOfInvertsLocalTime(t *testing.T) {
	c := New(30*time.Millisecond, 5)
	for _, now := range []sim.Time{0, time.Second, time.Minute, time.Hour} {
		local := c.LocalTime(now)
		back := c.TrueTimeOf(local)
		diff := back - now
		if diff < 0 {
			diff = -diff
		}
		// Drift makes the single-iteration inverse approximate; at
		// 5ppm the residual must be far below a microsecond.
		if diff > time.Microsecond {
			t.Fatalf("TrueTimeOf(LocalTime(%v)) off by %v", now, diff)
		}
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
	if ow.Duration() != w.Duration() {
		t.Fatalf("duration changed: %v", ow.Duration())
	}
}

func TestObservedWindowWithDriftChangesDuration(t *testing.T) {
	c := New(0, 100) // fast clock: 100 ppm
	w := Window{Start: 0, End: time.Hour}
	ow := c.ObservedWindow(w)
	// A fast clock reaches Tend early, so it meters a shorter true
	// window: duration shrinks by ~100ppm of an hour = 360ms.
	shrink := w.Duration() - ow.Duration()
	want := 360 * time.Millisecond
	if shrink < want-time.Millisecond || shrink > want+time.Millisecond {
		t.Fatalf("window shrink = %v, want ~%v", shrink, want)
	}
}

func TestWindowContains(t *testing.T) {
	w := Window{Start: time.Second, End: 2 * time.Second}
	if w.Contains(0) || !w.Contains(time.Second) || !w.Contains(1500*time.Millisecond) || w.Contains(2*time.Second) {
		t.Fatal("Contains boundary semantics wrong")
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

func TestSyncAll(t *testing.T) {
	rng := sim.NewRNG(3)
	m := NewSyncModel(5*time.Millisecond, rng)
	a := New(time.Second, 50)
	b := New(-time.Second, -50)
	m.SyncAll(10*time.Second, a, b)
	for _, c := range []*Clock{a, b} {
		off := c.OffsetAt(10 * time.Second)
		if off > 50*time.Millisecond || off < -50*time.Millisecond {
			t.Fatalf("post-sync offset = %v, want small residual", off)
		}
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
