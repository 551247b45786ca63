// Package stats provides the small statistical toolkit the experiment
// harness uses to reproduce the paper's CDFs, averages, and percentile
// claims (e.g. "95% of records have ≤7.7% error").
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample is a mutable collection of float64 observations.
type Sample struct {
	values []float64
	sorted bool
}

// NewSample returns a Sample pre-filled with the given values.
func NewSample(values ...float64) *Sample {
	s := &Sample{}
	s.Add(values...)
	return s
}

// Add appends observations to the sample.
func (s *Sample) Add(values ...float64) {
	s.values = append(s.values, values...)
	s.sorted = false
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.values) }

// Merge concatenates per-partition sample contributions into one
// Sample, strictly preserving the caller's part order and each part's
// insertion order. Sharded runs depend on this: contributions must
// merge in partition index order — never worker completion order — so
// a rendered CDF is byte-identical at any shard count. (Percentile
// sorts lazily on read without mutating the parts.)
func Merge(parts ...*Sample) *Sample {
	out := &Sample{}
	for _, p := range parts {
		if p == nil {
			continue
		}
		out.values = append(out.values, p.values...)
	}
	return out
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.values[0]
	}
	if p >= 100 {
		return s.values[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.values[lo]
	}
	frac := rank - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// RenderCDF renders an ASCII CDF sparkline table with the given number
// of quantile rows, matching how the paper's CDF figures are read
// ("X% of samples are below V").
func RenderCDF(name string, s *Sample, rows int) string {
	if rows <= 0 {
		rows = 5
	}
	var b strings.Builder
	if s.Len() == 0 {
		fmt.Fprintf(&b, "%s (n=0 empty)\n", name)
		return b.String()
	}
	fmt.Fprintf(&b, "%s (n=%d)\n", name, s.Len())
	for i := 1; i <= rows; i++ {
		p := float64(i) / float64(rows) * 100
		fmt.Fprintf(&b, "  p%-5.1f %12.4f\n", p, s.Percentile(p))
	}
	return b.String()
}

// Series is an ordered (x, y) series used for the paper's line figures
// (gap vs background traffic, gap vs time, ...).
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// AddPoint appends a point to the series.
func (s *Series) AddPoint(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Table renders one or more series that share X values as an aligned
// text table, one row per X.
func Table(header string, xs []float64, series ...*Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", header)
	for _, s := range series {
		fmt.Fprintf(&b, " %16s", s.Name)
	}
	b.WriteByte('\n')
	for i, x := range xs {
		fmt.Fprintf(&b, "%-12.4g", x)
		for _, s := range series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, " %16.4f", s.Y[i])
			} else {
				fmt.Fprintf(&b, " %16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
