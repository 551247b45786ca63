package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"tlc/internal/metrics"
)

var updateGoldens = flag.Bool("update", false, "rewrite the figure and registry goldens under testdata/ from this build")

// goldenPair names the two goldens of one size: each experiment's text,
// and the deltas its run publishes into the metrics registry.
type goldenPair struct{ text, registry string }

// quickGolden holds every experiment at Quick() size.
var quickGolden = goldenPair{"testdata/figures_quick.golden", "testdata/registry_quick.golden"}

// goldenOptions returns size with the wall-clock probe replaced, so
// every line of every experiment is a pure function of the code.
func goldenOptions(size Options, workers int) Options {
	opt := size
	opt.Workers = workers
	opt.Stopwatch = fixedStopwatch(100*time.Millisecond, 250*time.Millisecond)
	return opt
}

// renderFigures runs every experiment in IDs order and returns two
// sections per experiment: its text, and the registry deltas its run
// published (see registryValues). Each section is a header line naming
// the experiment, its body and a blank line, so a golden file is the
// sections' concatenation.
func renderFigures(t *testing.T, opt Options) (text, registry []string) {
	t.Helper()
	for _, id := range IDs {
		run, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q in IDs has no runner", id)
		}
		before := make(map[string]int64)
		for _, s := range registryValues(t) {
			before[s.name] = s.value
		}
		res := run(opt)
		text = append(text, "== "+id+" — "+res.Title+" ==\n"+res.Text+"\n")
		var b strings.Builder
		b.WriteString("== " + id + " ==\n")
		for _, s := range registryValues(t) {
			b.WriteString(s.name + " " + strconv.FormatInt(s.value-before[s.name], 10) + "\n")
		}
		registry = append(registry, b.String()+"\n")
	}
	return text, registry
}

// wallClockSeries are the registry's histograms of wall-clock values,
// which no golden can pin.
var wallClockSeries = map[string]bool{"protocol_negotiate_seconds": true}

type series struct {
	name  string
	value int64
}

// registryValues reads metrics.Default in exposition order: every
// counter and gauge, and the bucket and count series of each histogram
// not in wallClockSeries. A histogram's sum is left out: parallel sweep
// cells publish in completion order, and a float sum depends on the
// order of its additions.
func registryValues(t *testing.T) []series {
	t.Helper()
	var b strings.Builder
	if err := metrics.Default.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	var out []series
	var base, kind string
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			base, kind, _ = strings.Cut(rest, " ")
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, value, _ := strings.Cut(line, " ")
		if kind == "histogram" && (wallClockSeries[base] || name == base+"_sum") {
			continue
		}
		v, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			t.Fatalf("registry series %s: %v", name, err)
		}
		out = append(out, series{name: name, value: v})
	}
	return out
}

// splitGolden cuts a golden file back into its sections, keyed by the
// experiment id on each header line.
func splitGolden(data string) map[string]string {
	out := make(map[string]string)
	var id string
	for _, line := range strings.SplitAfter(data, "\n") {
		if strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " ==\n") {
			id, _, _ = strings.Cut(line[len("== "):], " ")
		}
		out[id] += line
	}
	return out
}

// firstDiff returns the 1-based number and both versions of the first
// line where got and want differ.
func firstDiff(got, want string) (n int, g, w string) {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		g, w = "<missing>", "<missing>"
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return i + 1, g, w
		}
	}
	return 0, "", ""
}

// TestFigureGoldensQuick regenerates every experiment at Quick() size,
// sequentially and on two sweep workers (only on two under the race
// detector), and requires each text to equal the checked-in golden
// byte for byte. A change that moves a number regenerates the golden
// (go test ./internal/experiment -run FigureGoldens -update) in the
// same commit, so its diff shows every number that moved.
func TestFigureGoldensQuick(t *testing.T) {
	workerCounts := []int{0, 2}
	if raceEnabled {
		workerCounts = workerCounts[1:]
	}
	checkGolden(t, quickGolden, Quick(), workerCounts)
}

// fullGolden holds every experiment at the size of results_all.txt:
// 45 s cycles, 2 seeds per grid point.
var fullGolden = goldenPair{"testdata/figures_full.golden", "testdata/registry_full.golden"}

// TestFigureGoldensFull is the full-size twin of the quick golden, on
// two sweep workers. It takes about ten seconds, so -short and the race
// detector skip it.
func TestFigureGoldensFull(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-size figures take about ten seconds; run without -short and -race")
	}
	checkGolden(t, fullGolden, Options{Duration: 45 * time.Second, Seeds: 2}, []int{2})
}

// checkGolden renders every experiment at size opt for each worker
// count and compares each text and registry section with the goldens.
// With -update it first rewrites both goldens from the first worker
// count.
func checkGolden(t *testing.T, golden goldenPair, size Options, workerCounts []int) {
	t.Helper()
	paths := []string{filepath.FromSlash(golden.text), filepath.FromSlash(golden.registry)}
	if *updateGoldens {
		text, registry := renderFigures(t, goldenOptions(size, workerCounts[0]))
		for i, sections := range [][]string{text, registry} {
			if err := os.WriteFile(paths[i], []byte(strings.Join(sections, "")), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := make([]map[string]string, len(paths))
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden: %v", err)
		}
		want[i] = splitGolden(string(data))
		if len(want[i]) != len(IDs) {
			t.Errorf("%s holds %d sections, IDs lists %d experiments", path, len(want[i]), len(IDs))
		}
	}
	for _, workers := range workerCounts {
		text, registry := renderFigures(t, goldenOptions(size, workers))
		for i, got := range [][]string{text, registry} {
			for j, section := range got {
				id := IDs[j]
				exp, ok := want[i][id]
				if !ok {
					t.Errorf("workers=%d: %s has no %s section", workers, paths[i], id)
					continue
				}
				if section != exp {
					n, g, w := firstDiff(section, exp)
					t.Errorf("workers=%d: %s of %s differs from the golden at line %d:\n got: %q\nwant: %q",
						workers, paths[i], id, n, g, w)
				}
			}
		}
		for j, section := range registry {
			if in, out := linkBalance(section); in != out {
				t.Errorf("workers=%d: %s's links lose track of packets: %d enqueued + duplicated, %d delivered + dropped + in flight + queued",
					workers, IDs[j], in, out)
			}
		}
	}
}

// linkBalance sums one registry section's packet ledger over every
// link: what entered a link (enqueued, plus fault duplicates, which
// enter without an enqueue) and where it went (delivered, dropped, or
// still in flight or queued when the run stopped). Every packet a link
// takes in ends in exactly one of those, so the two sums are equal.
func linkBalance(section string) (in, out int64) {
	for _, line := range strings.Split(section, "\n") {
		name, value, _ := strings.Cut(line, " ")
		v, _ := strconv.ParseInt(value, 10, 64)
		base, _, _ := strings.Cut(name, "{")
		switch {
		case base == "netem_link_enqueued_packets_total", name == `faults_injected_total{family="dup"}`:
			in += v
		case base == "netem_link_delivered_packets_total", base == "netem_link_dropped_packets_total",
			name == "netem_link_in_flight_packets", name == "netem_link_queued_packets":
			out += v
		}
	}
	return in, out
}
