package metrics

import (
	"math"
	"testing"
)

func TestQuantileFromBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("q_test_seconds", "t", []float64{1, 2, 4, 8})

	// 100 observations uniformly in (0,1]: every quantile lands in the
	// first bucket, interpolated from 0 to 1.
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	if got := Quantile(h.BucketBounds(), h.BucketCounts(), 0.5); got <= 0 || got > 1 {
		t.Fatalf("median of first-bucket mass = %v, want in (0,1]", got)
	}

	// Push mass into the (2,4] bucket; p99 should move there.
	for i := 0; i < 900; i++ {
		h.Observe(3)
	}
	if got := Quantile(h.BucketBounds(), h.BucketCounts(), 0.99); got <= 2 || got > 4 {
		t.Fatalf("p99 = %v, want in (2,4]", got)
	}

	// +Inf observations clamp to the top finite bound.
	for i := 0; i < 10000; i++ {
		h.Observe(100)
	}
	if got := Quantile(h.BucketBounds(), h.BucketCounts(), 0.99); got != 8 {
		t.Fatalf("p99 with +Inf mass = %v, want clamp to 8", got)
	}
}

func TestQuantileWindowDiff(t *testing.T) {
	r := New()
	h := r.Histogram("q_window_seconds", "t", []float64{1, 2, 4})
	h.Observe(0.5) // pre-window noise
	before := h.BucketCounts()
	for i := 0; i < 50; i++ {
		h.Observe(3)
	}
	after := h.BucketCounts()
	window := make([]uint64, len(after))
	for i := range after {
		window[i] = after[i] - before[i]
	}
	got := Quantile(h.BucketBounds(), window, 0.5)
	if got <= 2 || got > 4 {
		t.Fatalf("windowed median = %v, want in (2,4] (pre-window mass excluded)", got)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	bounds := []float64{1, 2}
	if got := Quantile(bounds, []uint64{0, 0, 0}, 0.5); !math.IsNaN(got) {
		t.Fatalf("empty distribution = %v, want NaN", got)
	}
	if got := Quantile(bounds, []uint64{0, 0, 7}, 0.5); got != 2 {
		t.Fatalf("all-inf distribution = %v, want clamp to 2", got)
	}
	if got := Quantile(bounds, []uint64{4, 0, 0}, 1.5); got != 1 {
		t.Fatalf("q>1 = %v, want clamped to max finite estimate 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched shapes did not panic")
		}
	}()
	Quantile(bounds, []uint64{1}, 0.5)
}
