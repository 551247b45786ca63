package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// Values returns a copy of the raw observations: test support, since
// the experiments read samples only through Mean, Percentile, Median
// and RenderCDF.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEmptySampleIsSafe(t *testing.T) {
	s := NewSample()
	if s.Mean() != 0 || s.Median() != 0 || s.Percentile(95) != 0 {
		t.Fatal("empty sample statistics not all zero")
	}
}

func TestMean(t *testing.T) {
	s := NewSample(2, 4, 4, 4, 5, 5, 7, 9)
	if !almost(s.Mean(), 5) {
		t.Fatalf("Mean = %v, want 5", s.Mean())
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
	if s.Percentile(0) != 1 {
		t.Fatal("min before add wrong")
	}
	s.Add(-3)
	if s.Percentile(0) != -3 {
		t.Fatal("Add after sort did not refresh order")
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
	a.Add(10)
	a.Add(20)
	b.Add(1)
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
