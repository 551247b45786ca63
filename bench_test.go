// Benchmarks regenerating every table and figure of the paper's
// evaluation (§7), plus microbenchmarks of the protocol primitives
// and ablations of the design choices called out in DESIGN.md.
//
// Each BenchmarkFig*/BenchmarkTable* target runs the corresponding
// experiment end-to-end and reports domain metrics (gap ratios,
// rounds, record errors) via b.ReportMetric, so `go test -bench=.`
// regenerates the paper's numbers alongside the timing.
package tlc_test

import (
	"fmt"
	"testing"
	"time"

	"tlc"
	"tlc/internal/apps"
	"tlc/internal/experiment"
	"tlc/internal/netem"
	"tlc/internal/poc"
	"tlc/internal/sim"
)

// benchOpt is the sweep size used by the figure benches: large enough
// to be representative, small enough for -bench=. to finish quickly.
func benchOpt() experiment.Options {
	return experiment.Options{
		Duration: 20 * time.Second,
		Seeds:    1,
		BGLevels: []float64{0, 100, 160},
	}
}

// benchSerialParallel runs a figure at Workers 0 (sequential) and -1
// (one worker per CPU) so every sweep-backed figure bench reports
// both timings; the output is byte-identical at both settings.
func benchSerialParallel(b *testing.B, run func(experiment.Options) experiment.Result, opt experiment.Options) {
	b.Helper()
	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial", 0}, {"parallel", -1}} {
		o := opt
		o.Workers = mode.workers
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := run(o)
				if res.Text == "" {
					b.Fatal("empty result")
				}
			}
		})
	}
}

// --- One benchmark per table/figure -------------------------------

func BenchmarkHeadlineGaps(b *testing.B) {
	benchSerialParallel(b, experiment.Headline, benchOpt())
}

func BenchmarkFig3CongestionGap(b *testing.B) {
	benchSerialParallel(b, experiment.Fig3, benchOpt())
}

func BenchmarkFig4Intermittent(b *testing.B) {
	// Fig4 is a single time-series cycle: no sweep to parallelise.
	for i := 0; i < b.N; i++ {
		_ = experiment.Fig4(benchOpt())
	}
}

func BenchmarkFig11cDataset(b *testing.B) {
	benchSerialParallel(b, experiment.Dataset, benchOpt())
}

func BenchmarkFig12SchemeCDF(b *testing.B) {
	// Seeds 3 (the tlcbench default) so at least one figure bench
	// exercises the multi-repetition grid.
	opt := benchOpt()
	opt.Seeds = 3
	benchSerialParallel(b, experiment.Fig12, opt)
}

func BenchmarkTable2AverageGap(b *testing.B) {
	var legacyEps, optEps float64
	for i := 0; i < b.N; i++ {
		// Recompute the table's underlying averages for metrics.
		r := experiment.NewTestbed(experiment.Config{
			App: apps.VRidgeGVSP, Seed: int64(i), C: 0.5,
			Duration: 20 * time.Second, BackgroundMbps: 120,
		}).Run()
		res := experiment.EvaluateAll(r, int64(i))
		legacyEps += res[experiment.SchemeLegacy].Epsilon
		optEps += res[experiment.SchemeOptimal].Epsilon
	}
	b.ReportMetric(legacyEps/float64(b.N)*100, "legacy-ε-%")
	b.ReportMetric(optEps/float64(b.N)*100, "optimal-ε-%")
}

func BenchmarkFig13CongestionRatio(b *testing.B) {
	benchSerialParallel(b, experiment.Fig13, benchOpt())
}

func BenchmarkFig14Disconnectivity(b *testing.B) {
	benchSerialParallel(b, experiment.Fig14, benchOpt())
}

func BenchmarkFig15LossWeight(b *testing.B) {
	benchSerialParallel(b, experiment.Fig15, benchOpt())
}

func BenchmarkFig16aRTT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiment.Fig16a(benchOpt())
	}
}

func BenchmarkFig16bRounds(b *testing.B) {
	var rounds float64
	for i := 0; i < b.N; i++ {
		rounds += experiment.Fig16b(benchOpt()).Metrics["rounds_random_"+apps.WebCamUDP.Name]
	}
	b.ReportMetric(rounds/float64(b.N), "random-rounds")
}

func BenchmarkFig17PoCCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiment.Fig17(benchOpt())
	}
}

func BenchmarkFig18RecordError(b *testing.B) {
	benchSerialParallel(b, experiment.Fig18, experiment.Options{
		Duration: 20 * time.Second, Seeds: 1, BGLevels: []float64{0, 160},
	})
}

func BenchmarkAppendixDGenericCharging(b *testing.B) {
	benchSerialParallel(b, experiment.AppendixD, benchOpt())
}

// --- Protocol microbenchmarks --------------------------------------

var (
	benchKeysOnce *poc.KeyPair
	benchKeysPeer *poc.KeyPair
)

func benchKeys(b *testing.B) (*poc.KeyPair, *poc.KeyPair) {
	b.Helper()
	if benchKeysOnce == nil {
		rng := sim.NewRNG(9001)
		var err error
		benchKeysOnce, err = poc.GenerateKeyPair(poc.DefaultKeyBits, rng.Fork("a"))
		if err != nil {
			b.Fatal(err)
		}
		benchKeysPeer, err = poc.GenerateKeyPair(poc.DefaultKeyBits, rng.Fork("b"))
		if err != nil {
			b.Fatal(err)
		}
	}
	return benchKeysOnce, benchKeysPeer
}

func benchPlan() poc.Plan { return poc.Plan{TStart: 0, TEnd: int64(time.Hour), C: 0.5} }

func BenchmarkPoCSign(b *testing.B) {
	edge, op := benchKeys(b)
	_ = edge
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := poc.BuildCDR(benchPlan(), poc.RoleOperator, 0, 1e6, rng, op.Private); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPoCVerify(b *testing.B) {
	edge, op := benchKeys(b)
	rng := sim.NewRNG(2)
	cdr, _ := poc.BuildCDR(benchPlan(), poc.RoleOperator, 0, 1e6, rng, op.Private)
	cda, _ := poc.BuildCDA(benchPlan(), poc.RoleEdge, 0, 9.3e5, cdr, rng, edge.Private)
	proof, _ := poc.BuildPoC(cda, op.Private)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := poc.VerifyStateless(proof, benchPlan(), edge.Public, op.Public); err != nil {
			b.Fatal(err)
		}
	}
	perHour := 3600 / (b.Elapsed().Seconds() / float64(b.N))
	b.ReportMetric(perHour/1e3, "K-PoCs/hour")
}

func BenchmarkPoCNegotiateLocal(b *testing.B) {
	edgeKeys, err := tlc.GenerateKeyPair()
	if err != nil {
		b.Fatal(err)
	}
	opKeys, err := tlc.GenerateKeyPair()
	if err != nil {
		b.Fatal(err)
	}
	start := time.Unix(0, 0)
	plan := tlc.Plan{Start: start, End: start.Add(time.Hour), C: 0.5}
	usage := tlc.Usage{Sent: 1e9, Received: 9.3e8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tlc.NegotiateLocal(plan, edgeKeys, opKeys, usage, usage,
			tlc.Optimal, tlc.Optimal, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCycleSimulation(b *testing.B) {
	// Raw simulator throughput: one 20s VR cycle per iteration.
	var events uint64
	for i := 0; i < b.N; i++ {
		tb := experiment.NewTestbed(experiment.Config{
			App: apps.VRidgeGVSP, Seed: int64(i), C: 0.5, Duration: 20 * time.Second,
		})
		tb.Run()
		events += tb.Sched.Fired()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds()/1e6, "M-events/s")
}

// BenchmarkCity runs the sharded city scenario at several shard
// worker counts against one fixed topology (8 eNodeBs so every count
// divides the partitions evenly). Metrics are byte-identical at every
// count; the timing spread is the scaling story BENCH_city.json
// records. On a single-core host the parallel counts show barrier
// overhead rather than speedup.
func BenchmarkCity(b *testing.B) {
	for _, shards := range []int{0, 1, 2, 4} {
		shards := shards
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunCity(experiment.CityConfig{
					ENodeBs: 8, UEsPerENB: 16,
					Duration: 10 * time.Second, Seed: 4242, Shards: shards,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range res.Cells {
					events += c.EventsFired
				}
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds()/1e6, "M-events/s")
		})
	}
}

// BenchmarkLinkForwarding pushes 1400-byte packets through a 1 Gb/s
// link in bursts of 1024. At 1 µs of delay a packet or two is on the
// wire; at 5 ms about 450 are (5 ms over 11.2 µs of transmission
// each), so the depth of the link's delivery stream shows. Packets
// come from and return to a pool, so once warm neither case
// allocates.
func BenchmarkLinkForwarding(b *testing.B) {
	for _, bc := range []struct {
		name  string
		delay time.Duration
	}{{"delay1us", time.Microsecond}, {"delay5ms", 5 * time.Millisecond}} {
		b.Run(bc.name, func(b *testing.B) {
			s := sim.NewScheduler()
			pool := &netem.PacketPool{}
			l := netem.NewLink("bench", s, 1e9, bc.delay, 1<<20, netem.NodeFunc(pool.Put))
			l.Pool = pool
			ids := &netem.IDGen{}
			send := func(i int) {
				p := pool.Get()
				p.ID, p.Size, p.QCI = ids.Next(), 1400, 9
				l.Recv(p)
				if i%1024 == 0 {
					s.RunUntil(s.Now() + time.Second)
				}
			}
			for i := 0; i < 4096; i++ { // warm the pool, queue, heap and stream
				send(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				send(i)
			}
			s.RunUntil(s.Now() + time.Minute)
		})
	}
}

// --- Event-engine microbenchmarks ----------------------------------

// BenchmarkSchedulerPushPop measures a steady-state push+pop cycle
// against the 4-ary heap at two resident sizes, so both the shallow
// and the cache-unfriendly deep regime are covered. The pooled path
// must report 0 allocs/op.
func BenchmarkSchedulerPushPop(b *testing.B) {
	for _, size := range []int{1e3, 1e5} {
		size := size
		b.Run(fmt.Sprintf("heap%d", size), func(b *testing.B) {
			s := sim.NewScheduler()
			rng := sim.NewRNG(int64(size))
			fn := func() {}
			for i := 0; i < size; i++ {
				s.AfterPooled(time.Duration(rng.Intn(1e9)), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.AfterPooled(time.Duration(rng.Intn(1e9)), fn)
				s.Step()
			}
		})
	}
}

// BenchmarkSchedulerCancelHeavy schedules non-pooled events and
// cancels half of them, exercising the lazy-discard path where
// cancelled entries must be skipped at the heap root.
func BenchmarkSchedulerCancelHeavy(b *testing.B) {
	s := sim.NewScheduler()
	rng := sim.NewRNG(17)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := s.After(time.Duration(rng.Intn(1e6)), fn)
		if i&1 == 0 {
			s.Cancel(ev)
		}
		if i&1023 == 0 {
			s.RunUntil(s.Now() + time.Millisecond)
		}
	}
	s.Run()
}

// BenchmarkSchedulerTickerHeavy drives 64 concurrent periodic tickers
// — the shape the testbed's meters, droppers and RSS scanners put on
// the heap — through repeated reschedules.
func BenchmarkSchedulerTickerHeavy(b *testing.B) {
	s := sim.NewScheduler()
	var ticks int
	for i := 0; i < 64; i++ {
		interval := time.Duration(i+1) * 100 * time.Microsecond
		s.Ticker(0, interval, func(sim.Time) { ticks++ })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	if ticks == 0 {
		b.Fatal("no ticks fired")
	}
}

// --- Ablations (design choices called out in DESIGN.md) ------------

func BenchmarkAblationQueueSize(b *testing.B) {
	for _, kb := range []int{64, 256, 1024} {
		kb := kb
		b.Run(fmt.Sprintf("%dKiB", kb), func(b *testing.B) {
			var loss float64
			for i := 0; i < b.N; i++ {
				r := experiment.NewTestbed(experiment.Config{
					App: apps.VRidgeGVSP, Seed: int64(i), C: 0.5,
					Duration:      20 * time.Second,
					AirQueueBytes: kb << 10,
					RSS:           experiment.RSSSpec{Base: -90, MeanGap: 8 * time.Second, MeanOutage: 1930 * time.Millisecond},
				}).Run()
				loss += (r.Truth.Sent - r.Truth.Received) / r.Truth.Sent
			}
			b.ReportMetric(loss/float64(b.N)*100, "loss-%")
		})
	}
}

func BenchmarkAblationCounterCheck(b *testing.B) {
	for _, period := range []time.Duration{2 * time.Second, 10 * time.Second, 60 * time.Second} {
		period := period
		b.Run(period.String(), func(b *testing.B) {
			var errSum float64
			for i := 0; i < b.N; i++ {
				r := experiment.NewTestbed(experiment.Config{
					App: apps.VRidgeGVSP, Seed: int64(i), C: 0.5,
					Duration:           20 * time.Second,
					CounterCheckPeriod: period,
					RSS:                experiment.RSSSpec{Base: -90, MeanGap: 6 * time.Second, MeanOutage: 2 * time.Second},
				}).Run()
				if r.Truth.Received > 0 {
					d := r.OpView.Received - r.Truth.Received
					if d < 0 {
						d = -d
					}
					errSum += d / r.Truth.Received
				}
			}
			b.ReportMetric(errSum/float64(b.N)*100, "op-record-err-%")
		})
	}
}

func BenchmarkAblationKeySize(b *testing.B) {
	for _, bits := range []int{1024, 2048, 3072} {
		bits := bits
		b.Run(fmt.Sprintf("RSA-%d", bits), func(b *testing.B) {
			rng := sim.NewRNG(int64(bits))
			kp, err := poc.GenerateKeyPair(bits, rng)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var size int
			for i := 0; i < b.N; i++ {
				cdr, err := poc.BuildCDR(benchPlan(), poc.RoleOperator, 0, 1e6, rng, kp.Private)
				if err != nil {
					b.Fatal(err)
				}
				d, _ := cdr.MarshalBinary()
				size = len(d)
			}
			b.ReportMetric(float64(size), "CDR-bytes")
		})
	}
}

func BenchmarkAblationCycleLength(b *testing.B) {
	for _, dur := range []time.Duration{10 * time.Second, 30 * time.Second, 60 * time.Second} {
		dur := dur
		b.Run(dur.String(), func(b *testing.B) {
			var eps float64
			for i := 0; i < b.N; i++ {
				r := experiment.NewTestbed(experiment.Config{
					App: apps.VRidgeGVSP, Seed: int64(i), C: 0.5, Duration: dur,
				}).Run()
				eps += experiment.Evaluate(r, experiment.SchemeOptimal, int64(i)).Epsilon
			}
			// Longer cycles amortise boundary skew: ε shrinks.
			b.ReportMetric(eps/float64(b.N)*100, "optimal-ε-%")
		})
	}
}
