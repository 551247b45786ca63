// Command tlcbench regenerates the paper's evaluation tables and
// figures on the emulated testbed.
//
// Usage:
//
//	tlcbench -experiment all
//	tlcbench -experiment fig12 -duration 60s -seeds 3
//	tlcbench -experiment fig12,table2 -workers -1 -json bench.json
//	tlcbench -experiment table2 -cpuprofile cpu.pprof
//	tlcbench -experiment faults -duration 30s -seeds 3
//	tlcbench -experiment city -shards 0,2,4 -json BENCH_city.json
//	tlcbench -list
//
// The "faults" experiment is the deterministic fault-injection sweep
// (internal/faults): charging-gap metrics across fault intensity
// levels plus the byzantine negotiation battery, whose
// byz_forged_verified metric must always be zero.
//
// -workers fans each experiment's independent testbed cells across a
// worker pool (0 sequential, -1 one per CPU); the regenerated output
// is byte-identical at every setting. -shards applies to the sharded
// "city" experiment: it runs once per listed shard worker count (0 =
// the sequential golden path), with byte-identical metrics at every
// count — only the per-shard events_fired/stall_ms execution report
// changes. A shard count above the city's eNodeB count is an error
// (exit 2), never a silent clamp. -json writes a machine-readable
// report (per-experiment wall time, worker count and domain metrics)
// to the given path, or to stdout when the path is "-", establishing
// the BENCH_*.json perf trajectory tracked in the repo.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"tlc/internal/experiment"
	"tlc/internal/metrics"
)

// jsonReport is the -json document.
type jsonReport struct {
	// GoMaxProcs, NumCPU, Workers and Shards record the parallelism
	// the run used and the host offered: sweep workers for the cell
	// sweeps, shard worker counts for the sharded city simulation.
	GoMaxProcs int   `json:"gomaxprocs"`
	NumCPU     int   `json:"numcpu"`
	Workers    int   `json:"workers"`
	Shards     []int `json:"shards"`
	// Note is a free-form host annotation (e.g. "single-core CI: no
	// shard speedup expected").
	Note string `json:"note,omitempty"`
	// DurationSec and Seeds echo the sweep size.
	DurationSec float64          `json:"duration_sec"`
	Seeds       int              `json:"seeds"`
	Experiments []jsonExperiment `json:"experiments"`
	TotalMS     float64          `json:"total_ms"`
	// Registry is the process-wide metrics snapshot taken after every
	// experiment has published its run counters — the same series the
	// live tlcd exposes on /metrics, so bench numbers and scraped
	// numbers share one source of truth.
	Registry map[string]float64 `json:"registry,omitempty"`
}

// jsonExperiment is one experiment's entry.
type jsonExperiment struct {
	ID     string  `json:"id"`
	Title  string  `json:"title"`
	WallMS float64 `json:"wall_ms"`
	// EventsFired is the number of simulator events the experiment's
	// testbed cycles executed; EventsPerSec is that count over the
	// wall time, the event engine's throughput gauge.
	EventsFired  uint64  `json:"events_fired"`
	EventsPerSec float64 `json:"events_per_sec"`
	// AllocsPerEvent is the heap allocations (runtime.MemStats
	// Mallocs delta, all sources included) per simulator event — the
	// steady-state target is well under one.
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// Metrics are the experiment's domain numbers (gap ratios, ε
	// means, negotiation rounds, …).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Shards and ShardStats appear on sharded experiments (city):
	// the shard worker count this entry ran at (0 = sequential golden
	// path, hence the pointer), and the per-worker events_fired /
	// stall_ms execution report.
	Shards     *int                   `json:"shards,omitempty"`
	ShardStats []experiment.ShardStat `json:"shard_stats,omitempty"`
}

func main() {
	var (
		exp        = flag.String("experiment", "all", "experiment id, comma list, or 'all'")
		duration   = flag.Duration("duration", 60*time.Second, "charging cycle length per run")
		seeds      = flag.Int("seeds", 3, "repetitions per grid point")
		workers    = flag.Int("workers", 0, "sweep worker pool: 0 sequential, -1 one per CPU, n>0 exactly n")
		shards     = flag.String("shards", "0", "comma list of shard worker counts for the sharded city experiment (0 = sequential golden path); city runs once per value")
		note       = flag.String("note", "", "free-form host annotation recorded in the JSON report")
		quick      = flag.Bool("quick", false, "small configuration for smoke runs")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		jsonPath   = flag.String("json", "", "write a JSON report to this path ('-' for stdout)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProfile = flag.String("memprofile", "", "write a heap profile to this path")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiment.IDs, "\n"))
		return
	}
	opt := experiment.Options{Duration: *duration, Seeds: *seeds}
	if *quick {
		opt = experiment.Quick()
	}
	opt.Workers = *workers

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("create %s: %v", *cpuProfile, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("start CPU profile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatalf("close %s: %v", *cpuProfile, err)
			}
		}()
	}

	ids := experiment.IDs
	if *exp != "all" {
		ids = nil
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	shardCounts := parseShards(*shards)

	// Expand the run list: the sharded city experiment runs once per
	// requested shard count; everything else runs once. Shard counts
	// are validated up front against the city the options will build —
	// over-asking is a hard error, never a silent clamp.
	type runSpec struct {
		id      string
		shards  int
		sharded bool
	}
	var specs []runSpec
	for _, id := range ids {
		if id != "city" {
			specs = append(specs, runSpec{id: id})
			continue
		}
		enbs, _ := experiment.CityScale(opt)
		for _, sc := range shardCounts {
			if sc > enbs {
				fatalf("-shards %d exceeds the city's %d eNodeBs (refusing to clamp; shrink -shards or lengthen -duration)", sc, enbs)
			}
			specs = append(specs, runSpec{id: id, shards: sc, sharded: true})
		}
	}

	report := jsonReport{
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Workers:     *workers,
		Shards:      shardCounts,
		Note:        *note,
		DurationSec: opt.Duration.Seconds(),
		Seeds:       opt.Seeds,
	}
	quiet := *jsonPath == "-"
	var emptyMetrics []string
	var ms runtime.MemStats
	for _, spec := range specs {
		f, ok := experiment.ByID(spec.id)
		if !ok {
			fatalf("unknown experiment %q (use -list)", spec.id)
		}
		o := opt
		o.Shards = spec.shards
		runtime.ReadMemStats(&ms)
		allocsBefore := ms.Mallocs
		eventsBefore := experiment.EventsFired()
		start := time.Now()
		res := f(o)
		wall := time.Since(start)
		runtime.ReadMemStats(&ms)
		events := experiment.EventsFired() - eventsBefore
		allocs := ms.Mallocs - allocsBefore
		if !quiet {
			label := res.ID
			if spec.sharded {
				label = fmt.Sprintf("%s (shards=%d)", res.ID, spec.shards)
			}
			fmt.Printf("== %s — %s ==\n%s(elapsed %v)\n\n", label, res.Title, res.Text, wall.Round(time.Millisecond))
		}
		if len(res.Metrics) == 0 {
			emptyMetrics = append(emptyMetrics, spec.id)
		}
		entry := jsonExperiment{
			ID: res.ID, Title: res.Title,
			WallMS:      float64(wall.Microseconds()) / 1e3,
			EventsFired: events,
			Metrics:     res.Metrics,
		}
		if spec.sharded {
			sc := spec.shards
			entry.Shards = &sc
			entry.ShardStats = res.Shards
		}
		if secs := wall.Seconds(); secs > 0 {
			entry.EventsPerSec = float64(events) / secs
		}
		if events > 0 {
			entry.AllocsPerEvent = float64(allocs) / float64(events)
		}
		report.Experiments = append(report.Experiments, entry)
		report.TotalMS += float64(wall.Microseconds()) / 1e3
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatalf("create %s: %v", *memProfile, err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("write heap profile: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("close %s: %v", *memProfile, err)
		}
	}

	report.Registry = metrics.Default.Snapshot()

	if *jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatalf("marshal report: %v", err)
		}
		data = append(data, '\n')
		if quiet {
			if _, err := os.Stdout.Write(data); err != nil {
				fatalf("write report: %v", err)
			}
		} else if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fatalf("write %s: %v", *jsonPath, err)
		}
	}

	// An experiment with no machine-readable metrics is a regression
	// in itself: the perf trajectory (BENCH_*.json) loses its domain
	// cross-check. Fail loudly rather than silently emitting holes.
	if len(emptyMetrics) > 0 {
		fatalf("experiments with empty metrics: %s", strings.Join(emptyMetrics, ", "))
	}
}

// parseShards parses the -shards comma list. Negative counts are
// rejected here; counts above the city's eNodeB total are rejected in
// main once the scenario size is known.
func parseShards(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			fatalf("-shards: %q is not an integer", part)
		}
		if n < 0 {
			fatalf("-shards: negative shard count %d", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		fatalf("-shards: empty list")
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tlcbench: "+format+"\n", args...)
	os.Exit(2)
}
