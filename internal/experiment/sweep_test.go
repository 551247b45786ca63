package experiment

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tlc/internal/apps"
)

// parityOpt is a small-but-real grid: two background levels × three
// RSS specs per workload, enough cells for a 4-worker pool to
// interleave in every order.
func parityOpt(workers int) Options {
	return Options{
		Duration: 6 * time.Second,
		Seeds:    1,
		BGLevels: []float64{0, 140},
		Workers:  workers,
	}
}

// TestParallelFig12Table2Parity is the engine's core contract: the
// regenerated figure text and metrics are byte-identical at every
// worker count, and across repeated runs at the same count. Each of
// these figures runs its whole grid as one heaviest-first sweep.
func TestParallelFig12Table2Parity(t *testing.T) {
	if testing.Short() {
		t.Skip("parity sweep is slow")
	}
	type figure struct {
		name string
		run  func(Options) Result
	}
	for _, fig := range []figure{{"fig12", Fig12}, {"table2", Table2}, {"fig15", Fig15}} {
		fig := fig
		t.Run(fig.name, func(t *testing.T) {
			t.Parallel()
			base := fig.run(parityOpt(0))
			if base.Text == "" {
				t.Fatal("sequential run produced no text")
			}
			// 4 appears twice: repeated runs at the same worker
			// count must agree too, not just with sequential.
			for _, workers := range []int{0, 1, 4, 4, runtime.NumCPU()} {
				got := fig.run(parityOpt(workers))
				if got.Text != base.Text {
					t.Errorf("workers=%d: text differs from sequential run\n--- sequential ---\n%s\n--- workers=%d ---\n%s",
						workers, base.Text, workers, got.Text)
				}
				if !reflect.DeepEqual(got.Metrics, base.Metrics) {
					t.Errorf("workers=%d: metrics differ: %v vs %v", workers, got.Metrics, base.Metrics)
				}
			}
		})
	}
}

func TestSweepWorkersResolution(t *testing.T) {
	cases := []struct {
		workers, n, want int
	}{
		{0, 10, 0},                      // sequential
		{1, 10, 1},                      // single worker goroutine
		{4, 10, 4},                      // explicit count
		{4, 2, 2},                       // capped at cell count
		{-1, 1 << 20, runtime.NumCPU()}, // all cores
		{-1, 1, 1},                      // all cores, one cell
	}
	for _, c := range cases {
		if got := SweepWorkers(c.workers, c.n); got != c.want {
			t.Errorf("SweepWorkers(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

// TestParallelSweepOrdering stresses the engine under the race
// detector with many fast-returning cells: results must land at their
// own index no matter which worker ran them.
func TestParallelSweepOrdering(t *testing.T) {
	const n = 500
	for _, workers := range []int{0, 1, 4, -1} {
		out := SweepN(n, workers, func(i int) int {
			// A little uneven work so workers genuinely interleave.
			v := i
			for k := 0; k < (i%7)*50; k++ {
				v += k % 3
			}
			runtime.Gosched()
			return v - (v - i) // == i
		})
		for i, got := range out {
			if got != i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got, i)
			}
		}
	}
}

// TestSweepDispatchHeaviestFirst: over testbed Configs a single worker
// starts cells in descending offered load, ties in grid order, while
// every result still lands at its own grid index. Workers 0 runs
// inline in grid order.
func TestSweepDispatchHeaviestFirst(t *testing.T) {
	d := 10 * time.Second
	cfgs := []Config{
		{App: apps.Gaming, Duration: d},                          // lightest
		{App: apps.WebCamRTSP, Duration: d, BackgroundMbps: 160}, // heaviest
		{App: apps.VRidgeGVSP, Duration: d},                      // ≈9 Mb/s
		{App: apps.WebCamRTSP, Duration: 2 * d},                  // twice cell 5's load
		{App: apps.WebCamRTSP, Duration: d, BackgroundMbps: 160}, // ties with cell 1
		{App: apps.WebCamRTSP, Duration: d},
	}
	for i := range cfgs {
		cfgs[i].Seed = int64(i)
	}
	for _, tc := range []struct {
		workers int
		want    []int
	}{
		{1, []int{1, 4, 2, 3, 5, 0}},
		{0, []int{0, 1, 2, 3, 4, 5}},
	} {
		var started []int
		out := Sweep(cfgs, tc.workers, func(c Config) int64 {
			started = append(started, int(c.Seed))
			return c.Seed
		})
		if !reflect.DeepEqual(started, tc.want) {
			t.Errorf("workers=%d: cells started in order %v, want %v", tc.workers, started, tc.want)
		}
		for i, seed := range out {
			if seed != cfgs[i].Seed {
				t.Errorf("workers=%d: out[%d] came from cell %d", tc.workers, i, seed)
			}
		}
	}
}

// TestParallelSweepPanic: a panicking cell must not crash the other
// workers mid-flight, and the re-raised panic is deterministically the
// lowest-indexed failure regardless of completion order. Offered load
// grows with the grid index here, so the engine dispatches the two
// failing cells in reverse grid order; the panic still names cell 7.
func TestParallelSweepPanic(t *testing.T) {
	cfgs := make([]Config, 64)
	for i := range cfgs {
		cfgs[i] = Config{App: apps.Gaming, Duration: time.Second, BackgroundMbps: float64(i), Seed: int64(i)}
	}
	for _, workers := range []int{1, 4, -1} {
		var ran [64]bool
		var failed []int
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: expected panic", workers)
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, "sweep cell 7 panicked") || !strings.Contains(msg, "boom-7") {
					t.Fatalf("workers=%d: wrong panic %q, want lowest failing cell 7", workers, msg)
				}
			}()
			var mu sync.Mutex
			Sweep(cfgs, workers, func(c Config) int {
				i := int(c.Seed)
				mu.Lock()
				ran[i] = true
				if i == 7 || i == 23 {
					failed = append(failed, i)
				}
				mu.Unlock()
				if i == 7 || i == 23 {
					panic(fmt.Sprintf("boom-%d", i))
				}
				return i
			})
		}()
		if workers == 1 && !reflect.DeepEqual(failed, []int{23, 7}) {
			t.Fatalf("workers=1: failing cells ran in order %v, want [23 7] (heaviest first)", failed)
		}
		// Every cell still ran: one failure does not starve the rest.
		for i, ok := range ran {
			if !ok {
				t.Fatalf("workers=%d: cell %d never ran after panic in cell 7", workers, i)
			}
		}
	}
}

// TestSweepEmptyAndGeneric covers the zero-cell edge and the generic
// cell-descriptor form.
func TestSweepEmptyAndGeneric(t *testing.T) {
	if out := SweepN[int](0, 4, func(int) int { panic("unreachable") }); len(out) != 0 {
		t.Fatalf("empty sweep returned %d results", len(out))
	}
	cells := []string{"a", "bb", "ccc"}
	got := Sweep(cells, 2, func(c string) int { return len(c) })
	for i, want := range []int{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("Sweep lengths = %v", got)
		}
	}
}
