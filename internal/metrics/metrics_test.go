package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrency hammers one counter, one gauge and one
// histogram from many goroutines under -race: registration is
// idempotent across goroutines and no observation is lost.
func TestRegistryConcurrency(t *testing.T) {
	r := New()
	const goroutines = 8
	const perG = 2000

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Concurrent registration must converge on one instrument.
			c := r.Counter("test_ops_total", "ops")
			ga := r.Gauge("test_level", "level")
			h := r.Histogram("test_latency_seconds", "latency", []float64{0.01, 0.1, 1})
			for i := 0; i < perG; i++ {
				c.Inc()
				ga.Set(int64(g))
				h.Observe(0.05)
			}
		}(g)
	}
	wg.Wait()

	if got := r.Counter("test_ops_total", "ops").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	h := r.Histogram("test_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	if h.Count() != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", h.Count(), goroutines*perG)
	}
	want := 0.05 * goroutines * perG
	if math.Abs(h.Sum()-want) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", h.Sum(), want)
	}
	snap := r.Snapshot()
	if snap["test_ops_total"] != goroutines*perG {
		t.Fatalf("snapshot counter = %v", snap["test_ops_total"])
	}
	if snap["test_latency_seconds_count"] != goroutines*perG {
		t.Fatalf("snapshot histogram count = %v", snap["test_latency_seconds_count"])
	}
}

// TestExpositionGolden pins the Prometheus text format byte-for-byte:
// sorted series, HELP/TYPE once per base name, cumulative buckets,
// labeled series grouped under their base.
func TestExpositionGolden(t *testing.T) {
	r := New()
	r.Counter(`demo_drops_total{qci="9"}`, "drops by QCI").Add(3)
	r.Counter(`demo_drops_total{qci="1"}`, "drops by QCI").Add(1)
	r.Gauge("demo_in_flight", "in-flight packets").Set(7)
	h := r.Histogram("demo_latency_seconds", "negotiation latency", []float64{0.1, 0.5})
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(0.3)
	h.Observe(2)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP demo_drops_total drops by QCI
# TYPE demo_drops_total counter
demo_drops_total{qci="1"} 1
demo_drops_total{qci="9"} 3
# HELP demo_in_flight in-flight packets
# TYPE demo_in_flight gauge
demo_in_flight 7
# HELP demo_latency_seconds negotiation latency
# TYPE demo_latency_seconds histogram
demo_latency_seconds_bucket{le="0.1"} 2
demo_latency_seconds_bucket{le="0.5"} 3
demo_latency_seconds_bucket{le="+Inf"} 4
demo_latency_seconds_sum 2.4
demo_latency_seconds_count 4
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestRegistrationValidation(t *testing.T) {
	r := New()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	r.Counter("ok_total", "x")
	mustPanic("kind mismatch", func() { r.Gauge("ok_total", "x") })
	mustPanic("bad name", func() { r.Counter("9starts_with_digit", "x") })
	mustPanic("unclosed label", func() { r.Counter("x_total{qci=\"1\"", "x") })
	mustPanic("labeled histogram", func() { r.Histogram(`h{a="b"}`, "x", []float64{1}) })
	mustPanic("unsorted bounds", func() { r.Histogram("h2", "x", []float64{2, 1}) })
}

// TestObserveZeroAlloc pins the observation paths at zero allocations
// so instrumented event-engine hot paths keep their ZeroAlloc
// guarantees (verify.sh runs this in the non-race allocs pass).
func TestObserveZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by -race instrumentation")
	}
	r := New()
	c := r.Counter("za_total", "x")
	g := r.Gauge("za_gauge", "x")
	h := r.Histogram("za_hist", "x", DefBuckets)
	if avg := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(3)
		g.Set(42)
		g.Add(-1)
		h.Observe(0.42)
	}); avg != 0 {
		t.Fatalf("observation path allocates %v per op, want 0", avg)
	}
}
