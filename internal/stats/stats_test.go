package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// The helpers below are test support: the experiments read samples
// only through Mean, Percentile, Median and RenderCDF.

// Values returns a copy of the raw observations.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

// Stddev returns the population standard deviation.
func (s *Sample) Stddev() float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, v := range s.values {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(n))
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	return s.values[0]
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	return s.values[len(s.values)-1]
}

// CDFPoint is one (value, cumulative fraction) point.
type CDFPoint struct {
	Value    float64
	Fraction float64 // in (0, 1]
}

// CDF returns the empirical CDF of the sample as sorted points. Ties
// collapse into a single point carrying the cumulative fraction.
func (s *Sample) CDF() []CDFPoint {
	n := len(s.values)
	if n == 0 {
		return nil
	}
	s.sort()
	var out []CDFPoint
	for i, v := range s.values {
		f := float64(i+1) / float64(n)
		if len(out) > 0 && out[len(out)-1].Value == v {
			out[len(out)-1].Fraction = f
			continue
		}
		out = append(out, CDFPoint{Value: v, Fraction: f})
	}
	return out
}

// CDFAt returns the empirical cumulative fraction of observations <= x.
func (s *Sample) CDFAt(x float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	s.sort()
	i := sort.SearchFloat64s(s.values, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(n)
}

// Summary is a compact, printable statistical summary.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	P50    float64
	P95    float64
	Max    float64
}

// Summarize computes a Summary of the sample.
func (s *Sample) Summarize() Summary {
	return Summary{
		N:      s.Len(),
		Mean:   s.Mean(),
		Stddev: s.Stddev(),
		Min:    s.Min(),
		P50:    s.Median(),
		P95:    s.Percentile(95),
		Max:    s.Max(),
	}
}

// String renders the summary as a single table-friendly line. An
// empty sample says so explicitly instead of printing a row of
// phantom zeros that reads like a real all-zero measurement.
func (sm Summary) String() string {
	if sm.N == 0 {
		return "n=0 empty"
	}
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p95=%.3f max=%.3f",
		sm.N, sm.Mean, sm.Stddev, sm.Min, sm.P50, sm.P95, sm.Max)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEmptySampleIsSafe(t *testing.T) {
	s := NewSample()
	if s.Mean() != 0 || s.Stddev() != 0 || s.Min() != 0 || s.Max() != 0 ||
		s.Median() != 0 || s.Percentile(95) != 0 || s.CDFAt(1) != 0 {
		t.Fatal("empty sample statistics not all zero")
	}
	if s.CDF() != nil {
		t.Fatal("empty sample CDF not nil")
	}
}

func TestMeanStddev(t *testing.T) {
	s := NewSample(2, 4, 4, 4, 5, 5, 7, 9)
	if !almost(s.Mean(), 5) {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	if !almost(s.Stddev(), 2) {
		t.Fatalf("Stddev = %v, want 2", s.Stddev())
	}
}

func TestMinMax(t *testing.T) {
	s := NewSample(3, -1, 7, 0)
	if s.Min() != -1 || s.Max() != 7 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestPercentile(t *testing.T) {
	s := NewSample(1, 2, 3, 4, 5)
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {110, 5},
		{10, 1.4}, // interpolated
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); !almost(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileSingleValue(t *testing.T) {
	s := NewSample(42)
	for _, p := range []float64{0, 50, 95, 100} {
		if got := s.Percentile(p); got != 42 {
			t.Fatalf("Percentile(%v) = %v, want 42", p, got)
		}
	}
}

func TestAddInvalidatesSortCache(t *testing.T) {
	s := NewSample(5, 1)
	if s.Min() != 1 {
		t.Fatal("min before add wrong")
	}
	s.Add(-3)
	if s.Min() != -3 {
		t.Fatal("Add after sort did not refresh order")
	}
}

func TestCDF(t *testing.T) {
	s := NewSample(1, 2, 2, 3)
	pts := s.CDF()
	want := []CDFPoint{{1, 0.25}, {2, 0.75}, {3, 1.0}}
	if len(pts) != len(want) {
		t.Fatalf("CDF = %v, want %v", pts, want)
	}
	for i := range want {
		if pts[i].Value != want[i].Value || !almost(pts[i].Fraction, want[i].Fraction) {
			t.Fatalf("CDF[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestCDFAt(t *testing.T) {
	s := NewSample(1, 2, 2, 3)
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := s.CDFAt(c.x); !almost(got, c.want) {
			t.Errorf("CDFAt(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestCDFAtMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		s := NewSample(vals...)
		if a > b {
			a, b = b, a
		}
		return s.CDFAt(a) <= s.CDFAt(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValuesIsCopy(t *testing.T) {
	s := NewSample(1, 2, 3)
	v := s.Values()
	v[0] = 99
	if s.Values()[0] == 99 {
		t.Fatal("Values leaked internal slice")
	}
}

func TestSummarize(t *testing.T) {
	s := NewSample(1, 2, 3, 4, 5)
	sm := s.Summarize()
	if sm.N != 5 || !almost(sm.Mean, 3) || !almost(sm.P50, 3) || sm.Min != 1 || sm.Max != 5 {
		t.Fatalf("Summary = %+v", sm)
	}
	if !strings.Contains(sm.String(), "n=5") {
		t.Fatalf("Summary string: %q", sm.String())
	}
}

func TestSummaryStringEmpty(t *testing.T) {
	sm := NewSample().Summarize()
	if got := sm.String(); got != "n=0 empty" {
		t.Fatalf("empty Summary string = %q, want \"n=0 empty\"", got)
	}
	// A real all-zero sample is NOT empty and must keep its stats.
	zero := NewSample(0, 0).Summarize()
	if got := zero.String(); !strings.Contains(got, "n=2") || strings.Contains(got, "empty") {
		t.Fatalf("all-zero Summary string = %q", got)
	}
}

func TestRenderCDFEmpty(t *testing.T) {
	out := RenderCDF("gap", NewSample(), 4)
	if !strings.Contains(out, "gap (n=0 empty)") {
		t.Fatalf("empty RenderCDF output:\n%s", out)
	}
	if strings.Contains(out, "p25") || strings.Contains(out, "0.0000") {
		t.Fatalf("empty RenderCDF printed phantom quantiles:\n%s", out)
	}
}

func TestRenderCDF(t *testing.T) {
	s := NewSample(1, 2, 3, 4)
	out := RenderCDF("gap", s, 4)
	if !strings.Contains(out, "gap (n=4)") || !strings.Contains(out, "p100") {
		t.Fatalf("RenderCDF output:\n%s", out)
	}
	// Zero rows falls back to a default.
	if RenderCDF("x", s, 0) == "" {
		t.Fatal("RenderCDF with 0 rows produced nothing")
	}
}

func TestSeriesAndTable(t *testing.T) {
	a := &Series{Name: "legacy"}
	b := &Series{Name: "tlc"}
	xs := []float64{0, 100}
	a.AddPoint(0, 10)
	a.AddPoint(100, 20)
	b.AddPoint(0, 1)
	if a.Len() != 2 {
		t.Fatalf("Len = %d", a.Len())
	}
	out := Table("mbps", xs, a, b)
	if !strings.Contains(out, "legacy") || !strings.Contains(out, "tlc") {
		t.Fatalf("Table output:\n%s", out)
	}
	// Missing Y for second series renders a dash rather than panicking.
	if !strings.Contains(out, "-") {
		t.Fatalf("Table missing dash for short series:\n%s", out)
	}
}

func TestPercentileMatchesSortedIndexProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
		}
		s := NewSample(vals...)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		return s.Percentile(0) == sorted[0] && s.Percentile(100) == sorted[len(sorted)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
