package lint

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden report file")

// fixtureLoader is shared across tests: source-importing the standard
// library is the expensive part of loading, and one loader caches it.
var fixtureLoader *Loader

func TestMain(m *testing.M) {
	flag.Parse()
	var err error
	fixtureLoader, err = NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint_test:", err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// fixturePath is where a testdata package would live as a real import.
// Path-scoped analyzers (metricstier, goroleak) get synthetic paths
// inside their scope, the way the poc fixture has always stood in for
// the real crypto package.
func fixturePath(name string) string {
	switch name {
	case "metricstier":
		return "tlc/internal/epc/testdata/metricstier"
	case "goroleak":
		return "tlc/internal/protocol/testdata/goroleak"
	}
	return "tlc/internal/lint/testdata/" + name
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := fixtureLoader.LoadAs(dir, fixturePath(name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture %s has type errors: %v", name, pkg.TypeErrors)
	}
	return pkg
}

// want is one expectation parsed from a fixture comment of the form
//
//	expr // want <check> "<message substring>"
type want struct {
	file   string // absolute path
	line   int
	check  string
	substr string
}

var wantRe = regexp.MustCompile(`// want ([a-z]+) "([^"]+)"`)

// parseWants collects the expectations of every .go file under dir.
func parseWants(t *testing.T, dir string) []want {
	t.Helper()
	var wants []want
	err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantRe.FindStringSubmatch(line); m != nil {
				wants = append(wants, want{file: abs, line: i + 1, check: m[1], substr: m[2]})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// checkWants requires the findings to match the // want annotations
// under dir one for one.
func checkWants(t *testing.T, got []Finding, dir string) {
	t.Helper()
	unmatched := append([]Finding(nil), got...)
	for _, w := range parseWants(t, dir) {
		found := false
		for i, f := range unmatched {
			if f.Pos.Filename == w.file && f.Pos.Line == w.line &&
				f.Check == w.check && strings.Contains(f.Message, w.substr) {
				unmatched = append(unmatched[:i], unmatched[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing finding %s:%d [%s] ~%q", filepath.Base(w.file), w.line, w.check, w.substr)
		}
	}
	for _, f := range unmatched {
		t.Errorf("unexpected finding %s:%d: [%s] %s",
			filepath.Base(f.Pos.Filename), f.Pos.Line, f.Check, f.Message)
	}
}

// TestAnalyzers runs each analyzer on its fixture package and checks
// the findings against the // want annotations: every annotated line
// must be reported, suppressed and clean files must stay silent.
func TestAnalyzers(t *testing.T) {
	cases := []struct {
		fixture  string
		analyzer *Analyzer
		// analyzers overrides the run set; staleallow only judges
		// directives whose named checks all ran, so its fixture runs
		// everything.
		analyzers []*Analyzer
	}{
		{fixture: "simtime", analyzer: Simtime},
		{fixture: "seededrand", analyzer: SeededRand},
		{fixture: "poc", analyzer: CryptoRand},
		{fixture: "errdiscard", analyzer: ErrDiscard},
		{fixture: "hotalloc", analyzer: HotAlloc},
		{fixture: "metricstier", analyzer: MetricsTier},
		{fixture: "goroleak", analyzer: GoroLeak},
		{fixture: "staleallow", analyzer: StaleAllow, analyzers: All},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			pkg := loadFixture(t, tc.fixture)
			if tc.analyzer.Applies != nil && !tc.analyzer.Applies(pkg.Path) {
				t.Fatalf("%s does not apply to %s", tc.analyzer.Name, pkg.Path)
			}
			analyzers := tc.analyzers
			if analyzers == nil {
				analyzers = []*Analyzer{tc.analyzer}
			}
			checkWants(t, Run([]*Package{pkg}, analyzers), filepath.Join("testdata", tc.fixture))
		})
	}
}

// loadUnreached loads the unreached fixture as one program: a library,
// a command that uses it, and a main package in a nested module
// directory, as perfbench sits in the repository.
func loadUnreached(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := fixtureLoader.Load("./testdata/unreached/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 3 {
		t.Fatalf("unreached fixture loaded %d packages, want 3", len(pkgs))
	}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("fixture %s has type errors: %v", pkg.Path, pkg.TypeErrors)
		}
	}
	return pkgs
}

// TestUnreached checks every edge kind of the unreached check, each
// with a reached and a dead function, and the staleness of a waiver on
// a reached function.
func TestUnreached(t *testing.T) {
	got := Run(loadUnreached(t), []*Analyzer{Unreached, StaleAllow})
	checkWants(t, got, filepath.Join("testdata", "unreached"))
}

// TestUnreachedNeedsAMain checks that a load without a main package,
// which has no roots, judges nothing and leaves its waivers alone.
func TestUnreachedNeedsAMain(t *testing.T) {
	pkgs, err := fixtureLoader.Load("./testdata/unreached/lib")
	if err != nil {
		t.Fatal(err)
	}
	if got := Run(pkgs, []*Analyzer{Unreached, StaleAllow}); len(got) != 0 {
		t.Errorf("library-only load reported %d findings, want none: %v", len(got), got)
	}
}

// TestReportGolden locks down the "file:line: [check] message" report
// format over every fixture at once. Regenerate with `go test
// ./internal/lint -run Golden -update`.
func TestReportGolden(t *testing.T) {
	var pkgs []*Package
	for _, name := range []string{
		"errdiscard", "goroleak", "hotalloc", "metricstier",
		"poc", "seededrand", "simtime", "staleallow",
	} {
		pkgs = append(pkgs, loadFixture(t, name))
	}
	// The unreached fixture is a program of its own: loaded with the
	// others, its binaries would judge their functions too.
	findings := append(Run(pkgs, All), Run(loadUnreached(t), All)...)
	if len(findings) == 0 {
		t.Fatal("fixtures produced no findings; the verify gate would pass vacuously")
	}
	base, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	Render(&b, findings, base)
	golden := filepath.Join("testdata", "report.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.String(), string(data); got != want {
		t.Errorf("report mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLoadResolvesModulePath checks that plain and recursive patterns
// map directories to their real module import paths.
func TestLoadResolvesModulePath(t *testing.T) {
	pkgs, err := fixtureLoader.Load("./testdata/simtime")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != fixturePath("simtime") {
		t.Fatalf("got %+v, want single package %s", pkgs, fixturePath("simtime"))
	}

	all, err := fixtureLoader.Load("./testdata/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 11 {
		t.Fatalf("recursive load found %d packages, want 11", len(all))
	}
	// The acceptance contract: tlcvet must exit non-zero on the
	// fixtures, i.e. running everything over them finds problems.
	if findings := Run(all, All); len(findings) == 0 {
		t.Error("no findings across fixture packages")
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(All) {
		t.Fatalf("Select(\"\") = %v, %v; want all %d analyzers", all, err, len(All))
	}
	two, err := Select("simtime, errdiscard")
	if err != nil || len(two) != 2 || two[0] != Simtime || two[1] != ErrDiscard {
		t.Fatalf("Select subset = %v, %v", two, err)
	}
	if _, err := Select("nope"); err == nil {
		t.Fatal("Select accepted an unknown check")
	}
}

// TestJSONReportRoundTrip checks that the -json document survives
// encoding/json both ways and carries base-relative forward-slashed
// paths in stable order.
func TestJSONReportRoundTrip(t *testing.T) {
	pkg := loadFixture(t, "simtime")
	findings := Run([]*Package{pkg}, []*Analyzer{Simtime})
	if len(findings) == 0 {
		t.Fatal("simtime fixture produced no findings")
	}
	base, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteJSON(&buf, findings, All, base); err != nil {
		t.Fatal(err)
	}
	var report JSONReport
	if err := json.Unmarshal([]byte(buf.String()), &report); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if report.Version != "tlcvet-report/1" {
		t.Errorf("version = %q", report.Version)
	}
	if len(report.Checks) != len(All) {
		t.Errorf("checks = %d, want %d", len(report.Checks), len(All))
	}
	if len(report.Findings) != len(findings) {
		t.Fatalf("findings = %d, want %d", len(report.Findings), len(findings))
	}
	for i, f := range report.Findings {
		if f.File != "simtime/bad.go" {
			t.Errorf("finding %d file = %q, want base-relative slash path", i, f.File)
		}
		if f.Check != "simtime" || f.Line <= 0 || f.Column <= 0 || f.Message == "" {
			t.Errorf("finding %d incomplete: %+v", i, f)
		}
	}
}

// TestSARIFMinimumShape validates the -sarif document against the
// SARIF 2.1.0 minimum shape: schema/version header, one run with a
// named driver and rules, and results pointing at physical locations.
func TestSARIFMinimumShape(t *testing.T) {
	pkg := loadFixture(t, "simtime")
	findings := Run([]*Package{pkg}, []*Analyzer{Simtime})
	if len(findings) == 0 {
		t.Fatal("simtime fixture produced no findings")
	}
	base, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteSARIF(&buf, findings, All, base); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("SARIF does not parse: %v", err)
	}
	if doc.Version != "2.1.0" || !strings.Contains(doc.Schema, "sarif-schema-2.1.0") {
		t.Errorf("header = %q %q", doc.Schema, doc.Version)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(doc.Runs))
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name != "tlcvet" || len(run.Tool.Driver.Rules) != len(All) {
		t.Errorf("driver = %q with %d rules, want tlcvet with %d",
			run.Tool.Driver.Name, len(run.Tool.Driver.Rules), len(All))
	}
	if len(run.Results) != len(findings) {
		t.Fatalf("results = %d, want %d", len(run.Results), len(findings))
	}
	for i, r := range run.Results {
		if r.RuleID != "simtime" || r.Level != "error" || r.Message.Text == "" {
			t.Errorf("result %d incomplete: %+v", i, r)
		}
		if len(r.Locations) != 1 ||
			r.Locations[0].PhysicalLocation.ArtifactLocation.URI != "simtime/bad.go" ||
			r.Locations[0].PhysicalLocation.Region.StartLine <= 0 {
			t.Errorf("result %d location incomplete: %+v", i, r.Locations)
		}
	}
}

func TestDirectiveChecks(t *testing.T) {
	cases := []struct {
		rest string
		want []string
	}{
		{" simtime — real deadline", []string{"simtime"}},
		{" simtime, errdiscard best effort", []string{"simtime", "errdiscard"}},
		{" simtime errdiscard", []string{"simtime", "errdiscard"}},
		{" Simtime is not lower-case", nil},
		{"", nil},
	}
	for _, tc := range cases {
		got := directiveChecks(tc.rest)
		if len(got) != len(tc.want) {
			t.Errorf("directiveChecks(%q) = %v, want %v", tc.rest, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("directiveChecks(%q) = %v, want %v", tc.rest, got, tc.want)
				break
			}
		}
	}
}
