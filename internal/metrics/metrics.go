// Package metrics is the repository's unified instrument registry: a
// deterministic, allocation-free-on-the-hot-path set of atomic
// counters, gauges and fixed-bucket histograms with Prometheus
// text-format exposition and a snapshot API.
//
// Design constraints (see DESIGN.md "Observability"):
//
//   - Observation paths (Counter.Add, Gauge.Set, Histogram.Observe)
//     are lock-free and never allocate, so they are safe on the
//     event-engine hot paths guarded by the ZeroAlloc tests.
//   - Instruments are pre-registered: registration takes the
//     registry lock once, up front; after that only atomics move.
//     Label sets are baked into the series name at registration time
//     (`name{qci="9"}`), never assembled per observation.
//   - Nothing in this package reads a clock or draws randomness, so
//     instrumenting a simulated component cannot perturb event order
//     or RNG streams: sweep goldens stay byte-identical.
//
// Simulated components accumulate into their existing plain counters
// and publish deltas at cycle boundaries; live components (cmd/tlcd,
// internal/protocol) observe inline.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//tlcvet:hotpath observed from live packet paths
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//tlcvet:hotpath observed from live packet paths
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous integer value that can move both ways.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
//
//tlcvet:hotpath observed from live packet paths
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by d (negative to decrease).
//
//tlcvet:hotpath observed from live packet paths
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram. Bucket bounds are set at
// registration and never change, so Observe is a bucket scan plus
// three atomic updates — no locks, no allocation.
type Histogram struct {
	bounds []float64 // upper bounds, strictly increasing
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one value.
//
//tlcvet:hotpath observed from live packet paths
func (h *Histogram) Observe(v float64) {
	// Buckets are few (typically ≤ 16); a linear scan beats binary
	// search at this size and stays branch-predictable for the common
	// low buckets.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// BucketBounds returns a copy of the finite upper bucket bounds (the
// implicit +Inf bucket is not listed).
func (h *Histogram) BucketBounds() []float64 {
	return append([]float64(nil), h.bounds...)
}

// BucketCounts returns a point-in-time copy of the per-bucket
// observation counts; the final entry is the +Inf bucket. Paired with
// BucketBounds it lets callers compute quantiles over a window by
// differencing two snapshots (see Quantile).
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile of a bucketed distribution:
// bounds are the finite upper bucket bounds and counts the per-bucket
// observation counts with the +Inf bucket last (the shapes returned by
// BucketBounds/BucketCounts, or an element-wise difference of two
// BucketCounts snapshots for a per-run window). The estimate
// interpolates linearly inside the selected bucket (from 0 for the
// first). Values landing in the +Inf bucket are clamped to the highest
// finite bound — a histogram cannot say more — and an empty
// distribution reports NaN.
func Quantile(bounds []float64, counts []uint64, q float64) float64 {
	if len(counts) != len(bounds)+1 {
		panic("metrics: Quantile needs len(counts) == len(bounds)+1")
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i == len(bounds) {
			// +Inf bucket: clamp to the last finite bound.
			if len(bounds) == 0 {
				return math.Inf(1)
			}
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		frac := (rank - prev) / float64(c)
		return lo + (bounds[i]-lo)*frac
	}
	if len(bounds) == 0 {
		return math.Inf(1)
	}
	return bounds[len(bounds)-1]
}

// DefBuckets are general-purpose latency bounds in seconds, from
// sub-millisecond to ten seconds.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// instrument is one registered series.
type instrument struct {
	name string // full series name, possibly with a {label="v"} block
	base string // metric name without the label block
	help string
	kind kind

	c *Counter
	g *Gauge
	h *Histogram
}

// Registry holds pre-registered instruments. Registration is
// mutex-guarded and idempotent; observation touches only the
// instruments' atomics. The zero value is not ready; use New.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*instrument
	order  []*instrument
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: map[string]*instrument{}}
}

// Default is the process-wide registry: cmd/tlcd exposes it over
// /metrics and cmd/tlcbench snapshots it into the -json report.
var Default = New()

// baseName strips a trailing {label="v",...} block from a series name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func validName(name string) bool {
	base := baseName(name)
	if base == "" {
		return false
	}
	for i := 0; i < len(base); i++ {
		c := base[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	if strings.ContainsRune(name, '{') != strings.HasSuffix(name, "}") {
		return false
	}
	return true
}

// register returns the existing instrument for name (panicking on a
// kind mismatch — two packages fighting over one name is a bug) or
// records a new one.
func (r *Registry) register(name, help string, k kind, mk func() *instrument) *instrument {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid series name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.byName[name]; ok {
		if in.kind != k {
			panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", name, k, in.kind))
		}
		return in
	}
	in := mk()
	in.name = name
	in.base = baseName(name)
	in.help = help
	in.kind = k
	r.byName[name] = in
	r.order = append(r.order, in)
	return in
}

// Counter pre-registers (or fetches) a counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, counterKind, func() *instrument {
		return &instrument{c: &Counter{}}
	}).c
}

// Gauge pre-registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, gaugeKind, func() *instrument {
		return &instrument{g: &Gauge{}}
	}).g
}

// Histogram pre-registers (or fetches) a histogram with the given
// upper bucket bounds (an implicit +Inf bucket is added). Histogram
// names must not carry a label block: the bucket series already uses
// the label position for `le`.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if strings.IndexByte(name, '{') >= 0 {
		panic(fmt.Sprintf("metrics: histogram %q must not carry labels", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not increasing", name))
		}
	}
	return r.register(name, help, histogramKind, func() *instrument {
		h := &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
		return &instrument{h: h}
	}).h
}

// sortedInstruments returns the instruments ordered by (base, name)
// so labeled series of one metric stay adjacent under a single
// HELP/TYPE header.
func (r *Registry) sortedInstruments() []*instrument {
	r.mu.Lock()
	out := append([]*instrument(nil), r.order...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].base != out[j].base {
			return out[i].base < out[j].base
		}
		return out[i].name < out[j].name
	})
	return out
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders the registry in the Prometheus text exposition
// format (version 0.0.4), series sorted by name.
func (r *Registry) WriteText(w io.Writer) error {
	var b strings.Builder
	lastBase := ""
	for _, in := range r.sortedInstruments() {
		if in.base != lastBase {
			lastBase = in.base
			if in.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", in.base, in.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", in.base, in.kind)
		}
		switch in.kind {
		case counterKind:
			fmt.Fprintf(&b, "%s %d\n", in.name, in.c.Value())
		case gaugeKind:
			fmt.Fprintf(&b, "%s %d\n", in.name, in.g.Value())
		case histogramKind:
			h := in.h
			cum := uint64(0)
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", in.base, formatFloat(bound), cum)
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", in.base, h.Count())
			fmt.Fprintf(&b, "%s_sum %s\n", in.base, formatFloat(h.Sum()))
			fmt.Fprintf(&b, "%s_count %d\n", in.base, h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Snapshot returns every series as a flat name → value map: counters
// and gauges under their registered name, histograms as _count and
// _sum. The map is a point-in-time copy; concurrent observers keep
// moving the live instruments.
func (r *Registry) Snapshot() map[string]float64 {
	out := map[string]float64{}
	for _, in := range r.sortedInstruments() {
		switch in.kind {
		case counterKind:
			out[in.name] = float64(in.c.Value())
		case gaugeKind:
			out[in.name] = float64(in.g.Value())
		case histogramKind:
			out[in.base+"_count"] = float64(in.h.Count())
			out[in.base+"_sum"] = in.h.Sum()
		}
	}
	return out
}
