// Command perfbench is the repository's benchmark. It runs one workload
// in a single process at GOMAXPROCS = the CPU count, measures it from
// outside through the packages' public entry points, checks the
// outputs, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the run is split into an untraced and a
// traced half; the metrics are the per-layer ones from the traced half
// plus the tracing overhead (traced minus untraced), a primitive cost
// table and a CPU profile folded by package. Spans are kept in memory
// and written to .bench_build/trace/ when the run ends.
//
// Build and run it from the repository root with perfbench/run.sh. The
// command exits non-zero when any output check fails.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// Workload names. BENCHMARK.json measures settle_durable and testbed,
// which between them cover every layer, in runs long enough to be
// steady on a shared host; settle (no ledger) and city (sharded) run on
// request, for comparison with them.
const (
	wlSettle        = "settle"
	wlSettleDurable = "settle_durable"
	wlCity          = "city"
	wlTestbed       = "testbed"
)

var (
	liveWorkloads = []string{wlSettle, wlSettleDurable}
	simWorkloads  = []string{wlCity, wlTestbed}
	allWorkloads  = []string{wlSettle, wlSettleDurable, wlCity, wlTestbed}
)

// metricSpec names one reported metric. need lists the workloads on
// which the metric measures work and so must read non-zero; counts of
// bad events (rejections, backlog) and overhead differences need not.
type metricSpec struct {
	name, unit, better string
	need               []string
}

// endToEnd are the user-visible metrics of a --trace 0 run. Each has a
// meaning on every workload: for the settle workloads the unit of work
// is a session, for city a simulated cell of one fixed city cycle and
// for testbed one testbed cycle of the fixed Table 2 sweep. latency_ms
// is the open-loop p50 of the fastest slice on the settle workloads and
// the wall time of one repetition of the fixed simulation (its p10 over
// the run) on the simulator workloads. Both it and throughput_per_s
// read the host at full speed: other tenants of the shared host slow
// this process by up to 2x for seconds at a time.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", allWorkloads},
	{"throughput_per_s", "1/s", "higher", allWorkloads},
	{"latency_ms", "ms", "lower", allWorkloads},
	{"peak_rss_mb", "MB", "lower", allWorkloads},
}

// cpuGroups are the package groups a traced run's CPU profile is folded
// into, reported as cpu.<group> self-time shares.
var cpuGroups = []string{
	"sim", "netem", "ran", "epc", "device", "apps", "transport", "core", "monitor", "experiment",
	"session", "protocol", "poc", "ledger", "crypto", "syscall", "runtime", "other",
}

// cpuNeed says on which workloads each CPU group must show samples even
// in a short run; smaller groups may draw none of the 100 Hz samples.
var cpuNeed = map[string][]string{
	"sim": simWorkloads, "netem": simWorkloads,
	"crypto": liveWorkloads, "runtime": allWorkloads,
}

// perLayer are the metrics of a --trace 1 run.
var perLayer = func() []metricSpec {
	ledgerOnly := []string{wlSettleDurable}
	cityOnly := []string{wlCity}
	specs := []metricSpec{
		{"trace.overhead_throughput_share", "ratio", "lower", nil},
		{"trace.overhead_latency_ms", "ms", "lower", nil},
		{"trace.spans", "count", "lower", allWorkloads},
		{"loadgen.settle_p90_ms", "ms", "lower", liveWorkloads},
		{"loadgen.settle_p99_ms", "ms", "lower", liveWorkloads},
		{"loadgen.late_p99_ms", "ms", "lower", liveWorkloads},
		{"loadgen.backlog", "count", "lower", nil},
		{"setup.keygen_s", "s", "lower", liveWorkloads},
		{"session.client_handle_us", "us", "lower", liveWorkloads},
		{"session.server_residence_p50_ms", "ms", "lower", liveWorkloads},
		{"session.server_residence_p99_ms", "ms", "lower", liveWorkloads},
		{"session.batch_mean", "count", "higher", liveWorkloads},
		{"session.active_peak", "count", "lower", liveWorkloads},
		{"session.rejected", "count", "lower", nil},
		{"session.backpressure", "count", "lower", nil},
		{"session.unexplained_share", "ratio", "lower", nil},
		{"poc.build_cdr_us", "us", "lower", allWorkloads},
		{"poc.build_cda_us", "us", "lower", allWorkloads},
		{"poc.build_poc_us", "us", "lower", allWorkloads},
		{"poc.verify_us", "us", "lower", allWorkloads},
		{"prim.ledger_append_sync1_us", "us", "lower", allWorkloads},
		{"prim.ledger_append_sync16_us", "us", "lower", allWorkloads},
		{"conn.write_calls_per_session", "count", "lower", liveWorkloads},
		{"conn.read_calls_per_session", "count", "lower", liveWorkloads},
		{"conn.bytes_per_session", "B", "lower", liveWorkloads},
		{"conn.write_us_per_session", "us", "lower", liveWorkloads},
		{"ledger.append_p50_us", "us", "lower", ledgerOnly},
		{"ledger.append_p99_us", "us", "lower", ledgerOnly},
		{"ledger.appends_per_sync", "count", "higher", ledgerOnly},
		{"ledger.bytes_per_record", "B", "lower", ledgerOnly},
		{"ledger.replay_s", "s", "lower", ledgerOnly},
		{"ledger.open_s", "s", "lower", ledgerOnly},
		{"ledger.audit_pocs_per_s", "1/s", "higher", ledgerOnly},
		{"sim.events", "count", "lower", simWorkloads},
		{"sim.events_per_s", "1/s", "higher", simWorkloads},
		{"sim.allocs_per_event", "count", "lower", simWorkloads},
		{"sim.stall_share", "ratio", "lower", cityOnly},
		{"sim.shard_imbalance", "ratio", "lower", cityOnly},
		{"netem.pkts_enqueued", "count", "lower", simWorkloads},
		{"netem.pool_reuse_ratio", "ratio", "higher", simWorkloads},
		{"netem.lane_pkts", "count", "lower", cityOnly},
		{"epc.cdrs", "count", "lower", []string{wlTestbed}},
	}
	for _, g := range cpuGroups {
		specs = append(specs, metricSpec{"cpu." + g, "ratio", "lower", cpuNeed[g]})
	}
	return specs
}()

// outcome is what one pass of a workload measured and checked.
type outcome struct {
	attempted, failed int
	// problems lists failed output checks; any entry fails the run.
	problems []string
	// values holds measured metrics by name (end-to-end and per-layer
	// alike; the caller picks the set the run reports).
	values map[string]float64
	// notes are human-readable report lines (check summaries).
	notes []string
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// pass is one measured pass of a workload.
type pass struct {
	seed    int64
	seconds float64
	// tr records spans; nil in an untraced pass.
	tr *tracer
	// dir is a scratch directory inside the checkout (ledgers).
	dir string
}

// workloadFuncs maps each workload to its pass runner.
var workloadFuncs = map[string]func(*pass) (*outcome, error){
	wlSettle:        func(p *pass) (*outcome, error) { return runLive(p, false) },
	wlSettleDurable: func(p *pass) (*outcome, error) { return runLive(p, true) },
	wlCity:          runCity,
	wlTestbed:       runTestbed,
}

// config is one invocation's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	commit   string
	// outDir holds everything the run writes.
	outDir string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fl.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(allWorkloads, ", "))
	fl.Int64Var(&cfg.seed, "seed", 1, "workload seed: arrival schedule, strategy RNG and nonce streams")
	fl.Float64Var(&cfg.seconds, "seconds", 25, "length of the measured phase in seconds")
	fl.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fl.StringVar(&cfg.commit, "commit", "unknown", "commit of the measured sources, for the provenance line")
	fl.StringVar(&cfg.outDir, "out", ".bench_build", "directory for ledgers and spans")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloadFuncs[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(allWorkloads, ", "))
		return 2
	}
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	res, specs, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := report(stdout, cfg, res, specs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

// execute runs the configured workload: one untraced pass, or an
// untraced and a traced half followed by the primitive table. It
// returns the outcome and the metric set the run reports.
func execute(cfg config) (*outcome, []metricSpec, error) {
	runPass := workloadFuncs[cfg.workload]
	scratch := filepath.Join(cfg.outDir, "run", fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, nil, err
	}
	defer func() { _ = os.RemoveAll(scratch) }()

	if !cfg.trace {
		out, err := runPass(&pass{seed: cfg.seed, seconds: cfg.seconds, dir: scratch})
		if err != nil {
			return nil, nil, err
		}
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return nil, nil, fmt.Errorf("getrusage: %w", err)
		}
		out.values["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
		return out, endToEnd, nil
	}

	half := cfg.seconds / 2
	plain, err := runPass(&pass{seed: cfg.seed, seconds: half, dir: scratch})
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	prof, err := startProfile()
	if err != nil {
		return nil, nil, err
	}
	traced, err := runPass(&pass{seed: cfg.seed, seconds: half, tr: tr, dir: scratch})
	shares, perr := prof.stop()
	if err != nil {
		return nil, nil, err
	}
	if perr != nil {
		return nil, nil, perr
	}
	for g, share := range shares {
		traced.values["cpu."+g] = share
	}
	if err := primitiveTable(traced, scratch); err != nil {
		return nil, nil, err
	}
	traced.values["trace.overhead_throughput_share"] =
		(plain.values["throughput_per_s"] - traced.values["throughput_per_s"]) / plain.values["throughput_per_s"]
	traced.values["trace.overhead_latency_ms"] = traced.values["latency_ms"] - plain.values["latency_ms"]
	traced.values["trace.spans"] = float64(tr.len())
	traced.attempted += plain.attempted
	traced.failed += plain.failed
	traced.problems = append(plain.problems, traced.problems...)

	spanFile := filepath.Join(cfg.outDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(spanFile); err != nil {
		return nil, nil, err
	}
	traced.note("spans: %d written to %s", tr.len(), spanFile)
	return traced, perLayer, nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the provenance, the notes, one line per metric and the
// checks, then the JSON result as the last line.
func report(w io.Writer, cfg config, res *outcome, specs []metricSpec) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# perfbench workload=%s seed=%d seconds=%g trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(&b, "# provenance gomaxprocs=%d numcpu=%d go=%s platform=%s/%s seed=%d commit=%s source_sha256=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		cfg.seed, cfg.commit, sourceDigest("."))
	for _, n := range res.notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	out := jsonResult{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, s := range specs {
		v, ok := res.values[s.name]
		switch {
		case !ok && needed(s, cfg.workload):
			res.problem("metric %s was not measured", s.name)
			continue
		case !ok:
			// The metric's layer is off this workload's path.
			v = 0
		case math.IsNaN(v) || math.IsInf(v, 0):
			res.problem("metric %s is not finite (%v)", s.name, v)
			continue
		}
		out.Metrics[s.name] = jsonMetric{Value: v, Unit: s.unit}
		fmt.Fprintf(&b, "metric %-34s %16.6g %s\n", s.name, v, s.unit)
	}
	if res.attempted < 1 {
		res.problem("no operation was attempted")
	}
	for _, p := range res.problems {
		fmt.Fprintf(&b, "check FAILED: %s\n", p)
	}
	out.Correct = len(res.problems) == 0
	if out.Correct {
		b.WriteString("check ok: every output check passed\n")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

// needed reports whether s measures work on workload.
func needed(s metricSpec, workload string) bool {
	for _, w := range s.need {
		if w == workload {
			return true
		}
	}
	return false
}

// sourceDigest fingerprints the Go sources under root, so a report can
// be tied to the code it measured even in a checkout without git.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		// A hash.Hash never returns a write error.
		_, _ = fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		_, _ = h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the method statistics.quantiles calls "inclusive").
// It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(i)
	if math.IsInf(xs[i+1], 1) {
		if frac == 0 {
			return xs[i]
		}
		return xs[i+1]
	}
	return xs[i] + frac*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// errNoWork marks a pass that completed nothing to measure.
var errNoWork = errors.New("pass completed no work")
