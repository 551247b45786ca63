package experiment

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the experiment suite's parallel sweep engine. Every
// table and figure is a grid of independent charging cycles — each
// cell builds its own Testbed with its own Scheduler, RNG, IDGen and
// PacketPool, so cells share no mutable state and can run on any
// goroutine. The engine fans cells across a worker pool while keeping
// the output *byte-identical* to a sequential run:
//
//   - every cell's seed is a pure function of the cell's grid
//     coordinates (see sim.SeedForCell and the per-figure seed
//     formulas), never of execution order;
//   - results land in a slice indexed by cell position, so the
//     aggregation loop reads them in grid order no matter which
//     worker finished first;
//   - dispatch order is a scheduling choice only: testbed Configs
//     are handed out heaviest offered load first (dispatchOrder), so
//     the longest cells start early instead of idling a worker at the
//     end, while results, seeds and failures stay keyed by grid index;
//   - a panicking cell does not tear down the process mid-sweep:
//     every worker drains, then the panic of the *lowest-indexed*
//     failing cell is re-raised, so even failures are deterministic.

// SweepWorkers resolves an Options.Workers value to a goroutine
// count for n cells: 0 means sequential (run inline on the caller's
// goroutine), negative means one worker per CPU, and any count is
// capped at the number of cells.
func SweepWorkers(workers, n int) int {
	if workers == 0 {
		return 0
	}
	if workers < 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	return workers
}

// SweepN runs runCell(i) for i in [0, n) across the given number of
// workers and returns the results ordered by cell index (Sweep over
// the indices themselves, so cells are handed out in grid order). See
// SweepWorkers for the workers semantics. runCell must not depend on
// any state shared with other cells.
func SweepN[R any](n, workers int, runCell func(int) R) []R {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return Sweep(idx, workers, runCell)
}

// Sweep runs runCell over every cell across the given number of
// workers, returning results in cell order. See SweepWorkers for the
// workers semantics; runCell must not depend on any state shared with
// other cells.
func Sweep[C, R any](cells []C, workers int, runCell func(C) R) []R {
	n := len(cells)
	out := make([]R, n)
	if n == 0 {
		return out
	}
	w := SweepWorkers(workers, n)
	if w == 0 {
		for i, c := range cells {
			out[i] = runCell(c)
		}
		return out
	}

	// Work-stealing by atomic counter over the dispatch order: cell
	// order never influences cell results (seeds come from
	// coordinates), so any assignment of cells to workers produces the
	// same output slice.
	order := dispatchOrder(cells)
	var next atomic.Int64
	panics := make([]any, n)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				i := order[k]
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[i] = r
						}
					}()
					out[i] = runCell(cells[i])
				}()
			}
		}()
	}
	wg.Wait()
	for i, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("experiment: sweep cell %d panicked: %v", i, p))
		}
	}
	return out
}

// dispatchOrder lists cell indices in the order workers pick them up.
// Testbed Configs go heaviest offered load first, ties in grid order:
// a cell's run time grows with the traffic it simulates, so starting
// the long cells first keeps a short one, not a long one, last on the
// critical path. Any other cell type is dispatched in grid order.
func dispatchOrder[C any](cells []C) []int {
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	if cfgs, ok := any(cells).([]Config); ok {
		load := make([]float64, len(cfgs))
		for i := range cfgs {
			load[i] = cfgs[i].offeredLoad()
		}
		sort.SliceStable(order, func(a, b int) bool { return load[order[a]] > load[order[b]] })
	}
	return order
}

// runCells executes one full charging cycle per config, fanned across
// opt.Workers goroutines, with results ordered like the configs.
func runCells(opt Options, cfgs []Config) []*CycleResult {
	return Sweep(cfgs, opt.Workers, func(c Config) *CycleResult {
		return NewTestbed(c).Run()
	})
}
