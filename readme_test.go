package tlc

import (
	"os"
	"strings"
	"testing"

	"tlc/internal/metrics"

	// Every package that registers a series, so this binary's
	// registry holds the whole catalogue.
	_ "tlc/internal/epc"
	_ "tlc/internal/faults"
	_ "tlc/internal/ledger"
	_ "tlc/internal/netem"
	_ "tlc/internal/protocol"
	_ "tlc/internal/session"
	_ "tlc/internal/sim"
)

// registeredSeries lists metrics.Default by series: every counter and
// gauge under its registered name, labels included, and each histogram
// under its base name.
func registeredSeries(t *testing.T) []string {
	t.Helper()
	var b strings.Builder
	if err := metrics.Default.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	var out []string
	kind := ""
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			var base string
			base, kind, _ = strings.Cut(rest, " ")
			if kind == "histogram" {
				out = append(out, base)
			}
			continue
		}
		if strings.HasPrefix(line, "#") || kind == "histogram" {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		out = append(out, name)
	}
	return out
}

// catalogueSeries reads README's metric catalogue table and expands
// each code span into series names. A brace group without "=" lists
// alternatives (`a_{x,y}_total` is a_x_total and a_y_total); a
// trailing label group names the label values the series carries
// (`{family=drop\|dup}`), or any value when it holds "…". It returns
// the exact series and the base names documented for any label value.
func catalogueSeries(t *testing.T) (exact, anyLabels map[string]bool) {
	t.Helper()
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(data), "The metric catalogue, by layer:\n\n")
	if !ok {
		t.Fatal("README.md has no metric catalogue")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	exact, anyLabels = map[string]bool{}, map[string]bool{}
	for _, row := range strings.Split(table, "\n")[2:] { // skip header and rule
		spans := strings.Split(strings.ReplaceAll(row, `\|`, "|"), "`")
		for i := 1; i < len(spans); i += 2 {
			name, labels := spans[i], ""
			if j := strings.LastIndex(name, "{"); j >= 0 && strings.Contains(name[j:], "=") {
				name, labels = name[:j], strings.Trim(name[j:], "{}")
			}
			for _, n := range expandBraces(name) {
				key, values, _ := strings.Cut(labels, "=")
				switch {
				case labels == "":
					exact[n] = true
				case strings.Contains(values, "…"):
					anyLabels[n] = true
				default:
					for _, v := range strings.Split(values, "|") {
						exact[n+"{"+key+`="`+v+`"}`] = true
					}
				}
			}
		}
	}
	return exact, anyLabels
}

// expandBraces expands the first {a,b,…} group of s and recurses on
// each alternative.
func expandBraces(s string) []string {
	i := strings.Index(s, "{")
	j := strings.Index(s, "}")
	if i < 0 || j < i {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[i+1:j], ",") {
		out = append(out, expandBraces(s[:i]+alt+s[j+1:])...)
	}
	return out
}

// TestReadmeCataloguesEveryRegisteredSeries fails, naming the series,
// when a registered series has no row in README's metric catalogue,
// or when the catalogue names a series that nothing registers.
func TestReadmeCataloguesEveryRegisteredSeries(t *testing.T) {
	exact, anyLabels := catalogueSeries(t)
	registered, bases := map[string]bool{}, map[string]bool{}
	for _, name := range registeredSeries(t) {
		base, _, _ := strings.Cut(name, "{")
		registered[name], bases[base] = true, true
		if !exact[name] && !anyLabels[base] {
			t.Errorf("series %s is registered but README's metric catalogue has no row for it", name)
		}
	}
	for name := range exact {
		if !registered[name] {
			t.Errorf("README's metric catalogue lists %s but nothing registers it", name)
		}
	}
	for base := range anyLabels {
		if !bases[base] {
			t.Errorf("README's metric catalogue lists %s{…} but nothing registers it", base)
		}
	}
}
