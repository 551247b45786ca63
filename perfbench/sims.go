package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"tlc/internal/experiment"
	"tlc/internal/metrics"
)

// The simulator workloads run a fixed simulation again and again for
// the measured phase. Their inputs are pinned fixtures (the seeds live
// in the configurations below), so --seed does not change them; every
// repetition's domain output must equal the values the sequential path
// (Shards 0, Workers 0) produces for the same configuration, pinned
// here as the shortest decimal that round-trips each float64 plus a
// SHA-256 of the rendered table.

// cityConfig is the city workload: the full 12-cell, 40-UE-per-cell
// city over a 10 s cycle at two shard workers.
func cityConfig(duration time.Duration, shards int) experiment.CityConfig {
	return experiment.CityConfig{
		ENodeBs: 12, UEsPerENB: 40, Duration: duration, Seed: 4242, Shards: shards,
		Stopwatch: wallStopwatch,
	}
}

const (
	cityDuration = 10 * time.Second
	cityShards   = 2
	cityCells    = 12
)

var cityPinned = map[string]float64{
	"charged_mb":        1192.829736,
	"delivered_mb":      1092.409693,
	"events_fired":      3.582242e+06,
	"forward_drop_pkts": 0,
	"gap_mb":            100.420043,
	"gap_ratio":         0.08418640143625662,
	"handovers":         277,
	"loss_drop_pkts":    66605,
	"queue_drop_pkts":   7776,
	"ue_gap_p50":        0.08306575989432344,
	"ue_gap_p95":        0.11616368420930412,
	"x2_forwarded_pkts": 328,
	"x2_lane_pkts":      328,
}

const cityPinnedText = "0650d2631593eb4a0668eb70f5138d527a6a0a98f9f3f6e86f122475f661a90e"

// testbedOptions is the testbed workload: the Table 2 sweep (4 apps x 2
// background levels x 3 radio conditions, one seed, 15 s cycles) fanned
// over two sweep workers.
func testbedOptions(duration time.Duration, workers int) experiment.Options {
	return experiment.Options{
		Duration: duration, Seeds: 1, BGLevels: []float64{0, 160}, Workers: workers,
		Stopwatch: wallStopwatch,
	}
}

const (
	testbedDuration = 15 * time.Second
	testbedWorkers  = 2
	testbedCells    = 4 * 2 * 3
)

var testbedPinned = map[string]float64{
	"eps_mean_legacy":      0.10749589425547058,
	"eps_mean_tlc-optimal": 0.18575568146771773,
	"eps_mean_tlc-random":  0.08775559210101502,
}

const testbedPinnedText = "8ba3d41e7376ec74de48e59d93039f7d8e38518eebca3f2174efa8bfdd21c5e7"

// simSetups is how many warm-up simulations set-up runs; setup_s is
// their median.
const simSetups = 7

// wallQuantile picks the reported repetition time: a low quantile reads
// the simulator while the shared host runs at full speed (see
// rateQuantile), where a median would mostly measure the neighbours.
const wallQuantile = 0.1

// wallStopwatch is the wall clock handed to the simulator for its
// per-shard stall accounting.
func wallStopwatch() func() time.Duration {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

// simRep is one repetition's output as the checks and metrics see it.
type simRep struct {
	metrics map[string]float64
	text    string
	shards  []experiment.ShardStat
}

// simWorkload describes one simulator workload.
type simWorkload struct {
	name   string
	cells  int
	pinned map[string]float64
	text   string
	warmup func() (simRep, error)
	run    func() (simRep, error)
}

func runCity(p *pass) (*outcome, error) {
	return runSim(p, simWorkload{
		name: "city", cells: cityCells, pinned: cityPinned, text: cityPinnedText,
		warmup: func() (simRep, error) { return cityRep(cityConfig(time.Second, cityShards)) },
		run:    func() (simRep, error) { return cityRep(cityConfig(cityDuration, cityShards)) },
	})
}

func cityRep(cfg experiment.CityConfig) (simRep, error) {
	res, err := experiment.RunCity(cfg)
	if err != nil {
		return simRep{}, err
	}
	return simRep{metrics: res.Metrics, text: res.Text, shards: res.Shards}, nil
}

func runTestbed(p *pass) (*outcome, error) {
	table2 := func(d time.Duration) (simRep, error) {
		res := experiment.Table2(testbedOptions(d, testbedWorkers))
		return simRep{metrics: res.Metrics, text: res.Text}, nil
	}
	return runSim(p, simWorkload{
		name: "table2", cells: testbedCells, pinned: testbedPinned, text: testbedPinnedText,
		warmup: func() (simRep, error) { return table2(3 * time.Second) },
		run:    func() (simRep, error) { return table2(testbedDuration) },
	})
}

// simSnapshot is the slice of metrics.Default and the allocator a
// simulator pass diffs.
type simSnapshot struct {
	events, enqueued, lane, cdrs, poolGets, poolReuses float64
	mallocs                                            uint64
}

func snapshotSim() simSnapshot {
	m := metrics.Default.Snapshot()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := simSnapshot{
		events:     m["sim_events_fired_total"],
		lane:       m["netem_lane_packets_total"],
		cdrs:       m["epc_cdrs_emitted_total"],
		poolGets:   m["netem_pool_gets_total"],
		poolReuses: m["netem_pool_reuses_total"],
		mallocs:    ms.Mallocs,
	}
	for name, v := range m {
		if strings.HasPrefix(name, "netem_link_enqueued_packets_total") {
			s.enqueued += v
		}
	}
	return s
}

// runSim is one pass of a simulator workload: warm-up simulations as
// set-up, then repetitions of the fixed simulation until the pass's
// seconds are spent (at least three).
func runSim(p *pass, w simWorkload) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	for i := 0; i < simSetups; i++ {
		start := time.Now()
		if _, err := w.warmup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out.values["setup_s"] = median(setups)

	before := snapshotSim()
	var walls []float64
	var stallSecs, workerSecs, imbalance float64
	begin := time.Now()
	for len(walls) < 3 || time.Since(begin).Seconds() < p.seconds {
		span := p.tr.now()
		start := time.Now()
		rep, err := w.run()
		if err != nil {
			return nil, err
		}
		wall := time.Since(start).Seconds()
		p.tr.add("experiment."+w.name, 0, 0, span, p.tr.now())
		walls = append(walls, wall)
		out.attempted += w.cells
		if bad := checkPinned(rep, w.pinned, w.text); bad != "" {
			out.failed += w.cells
			out.problem("%s repetition %d: %s", w.name, len(walls), bad)
		}
		var maxEv, sumEv float64
		for _, s := range rep.shards {
			stallSecs += s.StallMS / 1e3
			ev := float64(s.EventsFired)
			sumEv += ev
			if ev > maxEv {
				maxEv = ev
			}
		}
		if n := len(rep.shards); n > 0 {
			workerSecs += float64(n) * wall
			imbalance = maxEv / (sumEv / float64(n))
		}
	}
	after := snapshotSim()
	reps := float64(len(walls))

	p50 := median(walls)
	fast := quantile(walls, wallQuantile)
	out.values["throughput_per_s"] = float64(w.cells) / fast
	out.values["latency_ms"] = 1e3 * fast
	out.note("%s: %d repetitions of %d cells, p%.0f %.1f ms and median %.1f ms per repetition, each checked against the pinned sequential-path values",
		w.name, len(walls), w.cells, 100*wallQuantile, 1e3*fast, 1e3*p50)

	events := (after.events - before.events) / reps
	out.values["sim.events"] = events
	out.values["sim.events_per_s"] = events / fast
	out.values["sim.allocs_per_event"] = float64(after.mallocs-before.mallocs) / (after.events - before.events)
	if workerSecs > 0 {
		out.values["sim.stall_share"] = stallSecs / workerSecs
		out.values["sim.shard_imbalance"] = imbalance
	}
	out.values["netem.pkts_enqueued"] = (after.enqueued - before.enqueued) / reps
	out.values["netem.pool_reuse_ratio"] = (after.poolReuses - before.poolReuses) / (after.poolGets - before.poolGets)
	out.values["netem.lane_pkts"] = (after.lane - before.lane) / reps
	out.values["epc.cdrs"] = (after.cdrs - before.cdrs) / reps
	return out, nil
}

// checkPinned compares one repetition with the pinned sequential-path
// output and describes the first difference ("" when equal).
func checkPinned(rep simRep, pinned map[string]float64, text string) string {
	if len(rep.metrics) != len(pinned) {
		return fmt.Sprintf("%d domain metrics, want %d", len(rep.metrics), len(pinned))
	}
	for name, want := range pinned {
		got, ok := rep.metrics[name]
		if !ok || got != want {
			return fmt.Sprintf("%s = %v, want %v", name, got, want)
		}
	}
	sum := sha256.Sum256([]byte(rep.text))
	if got := hex.EncodeToString(sum[:]); got != text {
		return fmt.Sprintf("rendered table sha256 %s, want %s", got, text)
	}
	return ""
}
