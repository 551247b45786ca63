package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGoldens = flag.Bool("update", false, "rewrite the figure goldens under testdata/ from this build")

// quickGolden holds the text of every experiment at Quick() size.
const quickGolden = "testdata/figures_quick.golden"

// goldenOptions returns size with the wall-clock probe replaced, so
// every line of every experiment is a pure function of the code.
func goldenOptions(size Options, workers int) Options {
	opt := size
	opt.Workers = workers
	opt.Stopwatch = fixedStopwatch(100*time.Millisecond, 250*time.Millisecond)
	return opt
}

// renderFigures runs every experiment in IDs order. Each section is a
// header line naming the experiment, its text and a blank line, so a
// golden file is the sections' concatenation.
func renderFigures(t *testing.T, opt Options) []string {
	t.Helper()
	sections := make([]string, 0, len(IDs))
	for _, id := range IDs {
		run, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q in IDs has no runner", id)
		}
		res := run(opt)
		sections = append(sections, "== "+id+" — "+res.Title+" ==\n"+res.Text+"\n")
	}
	return sections
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

// fullGolden holds the text of every experiment at the size of
// results_all.txt: 45 s cycles, 2 seeds per grid point.
const fullGolden = "testdata/figures_full.golden"

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
// count and compares each section with the golden at path. With
// -update it first rewrites the golden from the first worker count.
func checkGolden(t *testing.T, path string, size Options, workerCounts []int) {
	t.Helper()
	path = filepath.FromSlash(path)
	if *updateGoldens {
		data := strings.Join(renderFigures(t, goldenOptions(size, workerCounts[0])), "")
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	want := splitGolden(string(data))
	for _, workers := range workerCounts {
		for i, got := range renderFigures(t, goldenOptions(size, workers)) {
			id := IDs[i]
			exp, ok := want[id]
			if !ok {
				t.Errorf("workers=%d: %s has no %s section", workers, path, id)
				continue
			}
			if got != exp {
				n, g, w := firstDiff(got, exp)
				t.Errorf("workers=%d: %s differs from the golden at line %d:\n got: %q\nwant: %q",
					workers, id, n, g, w)
			}
		}
	}
	if len(want) != len(IDs) {
		t.Errorf("%s holds %d sections, IDs lists %d experiments", path, len(want), len(IDs))
	}
}
