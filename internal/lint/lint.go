// Package lint implements tlcvet, the project-specific static
// analysis behind the tier-1 verify gate. The repository's results
// depend on properties that ordinary review loses as the code grows:
// byte-exact replay of the emulated testbed (a single stray wall-clock
// read or global math/rand draw in internal/ breaks determinism), the
// nonce/randomness discipline that makes the Proof-of-Charging
// trustworthy, allocation-free event-engine hot paths, the two-tier
// metrics rule that keeps instrumentation from perturbing simulations,
// and goroutine lifecycle discipline in the long-lived daemons. Each
// invariant is machine-checked by an Analyzer; `tlcvet ./...` runs
// them all and exits non-zero on any finding.
//
// Analyzers are table-registered in All. A finding is reported as
// "file:line: [check] message" and can be suppressed for one line with
// a directive comment on the same line or the line directly above:
//
//	conn.SetDeadline(t) //tlcvet:allow simtime — real network deadline
//
// The directive names one or more checks (comma separated); anything
// after the check names is a free-form justification. Suppressions are
// deliberately per-line so each exemption carries its own paper trail,
// and the staleallow analyzer closes the lifecycle: a directive that
// suppresses nothing in the current run is itself a finding, so
// waivers can never outlive the code they excused.
//
// Two analyzers (hotalloc, staleallow) need the whole run, not one
// package at a time — hotalloc walks the call graph across packages
// and staleallow judges directives against every other analyzer's
// suppressions — so the engine runs in two phases: per-package
// analyzers first, then program-level ones over the accumulated
// Program state.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

// Analyzer is one registered check. Exactly one of Run and RunProgram
// is set: Run inspects a single type-checked package, RunProgram sees
// the whole load (for cross-package call graphs and waiver-lifecycle
// accounting) and runs after every per-package analyzer.
type Analyzer struct {
	// Name is the check identifier used in reports and in
	// //tlcvet:allow directives.
	Name string
	// Doc is a one-line description shown by `tlcvet -list`.
	Doc string
	// Applies filters the packages Run sees by import path; nil means
	// every package. RunProgram always sees the whole program.
	Applies func(importPath string) bool
	// Run reports findings for one package.
	Run func(*Pass)
	// RunProgram reports findings over the whole loaded program.
	RunProgram func(*Program)
}

// All is the registry of project checks, in report order. StaleAllow
// must stay last: it judges the directives every other analyzer had a
// chance to use.
var All = []*Analyzer{
	Simtime, SeededRand, CryptoRand, ErrDiscard,
	HotAlloc, MetricsTier, GoroLeak, Unreached, StaleAllow,
}

// Select resolves a comma-separated list of check names ("" selects
// every registered analyzer).
func Select(names string) ([]*Analyzer, error) {
	if strings.TrimSpace(names) == "" {
		return All, nil
	}
	byName := make(map[string]*Analyzer, len(All))
	for _, a := range All {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Path is the import path analyzers scope on. Fixture tests load
	// testdata packages under a synthetic path (e.g. "tlc/internal/poc")
	// to target a specific analyzer.
	Path string

	check    string
	allow    directiveIndex
	findings *[]Finding
}

// Reportf records a finding at pos unless an //tlcvet:allow directive
// covers it. A directive that suppresses a finding is marked used,
// which is what keeps it alive under the staleallow lifecycle check.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allow.covers(position, p.check) {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Pos:     position,
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// PkgNameOf resolves the package an identifier qualifies, if the
// identifier names an import (e.g. the `time` in time.Now). It returns
// nil for anything else.
func (p *Pass) PkgNameOf(id *ast.Ident) *types.Package {
	if obj, ok := p.Info.Uses[id].(*types.PkgName); ok {
		return obj.Imported()
	}
	return nil
}

// directive is one parsed //tlcvet:allow comment. used flips when the
// directive suppresses a finding; staleallow reports directives that
// finish a full run with used still false.
type directive struct {
	pos      token.Pos
	position token.Position
	checks   []string
}

// directiveIndex maps file -> line -> the directives on that line,
// plus the per-directive usage state for the waiver lifecycle.
type directiveIndex struct {
	byLine map[string]map[int][]*directive
	used   map[*directive]bool
}

// covers reports whether check is allowed at position, honouring a
// directive on the same line or the line directly above, and marks the
// covering directive used.
func (d directiveIndex) covers(pos token.Position, check string) bool {
	lines := d.byLine[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, dir := range lines[line] {
			for _, c := range dir.checks {
				if c == check {
					d.used[dir] = true
					return true
				}
			}
		}
	}
	return false
}

const directivePrefix = "//tlcvet:allow"

// parseDirectives indexes every //tlcvet:allow comment in the package.
func parseDirectives(fset *token.FileSet, files []*ast.File) directiveIndex {
	idx := directiveIndex{
		byLine: make(map[string]map[int][]*directive),
		used:   make(map[*directive]bool),
	}
	for _, file := range files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				rest, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := idx.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*directive)
					idx.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], &directive{
					pos:      c.Pos(),
					position: pos,
					checks:   directiveChecks(rest),
				})
			}
		}
	}
	return idx
}

// directiveChecks extracts the check names from the text after the
// //tlcvet:allow prefix. Names are separated by spaces or commas; the
// first token that is not a registered check name starts the free-form
// justification and ends the list. Requiring registered names means a
// typo ("simtym") suppresses nothing instead of silently allowing —
// and staleallow then reports the impotent directive.
func directiveChecks(rest string) []string {
	var names []string
	for _, field := range strings.FieldsFunc(rest, func(r rune) bool {
		return r == ' ' || r == '\t' || r == ','
	}) {
		if !isCheckName(field) {
			break
		}
		names = append(names, field)
	}
	return names
}

func isCheckName(s string) bool {
	for _, a := range All {
		if a.Name == s {
			return true
		}
	}
	return false
}

// Run applies the analyzers to each package — per-package analyzers
// first, then program-level ones in registry order — and returns the
// surviving findings in a stable cross-package order (file, line,
// column, check, message). The order depends only on the source, never
// on package load order, so CI diffs and the golden report stay
// byte-stable.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	prog := newProgram(pkgs, analyzers)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			if a.Applies != nil && !a.Applies(pkg.Path) {
				continue
			}
			a.Run(prog.Pass(pkg, a.Name))
		}
	}
	for _, a := range analyzers {
		if a.RunProgram != nil {
			a.RunProgram(prog)
		}
	}
	findings := prog.findings
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return findings
}

// Render writes findings as "file:line: [check] message" lines, with
// filenames shown relative to base when possible.
func Render(w io.Writer, findings []Finding, base string) {
	for _, f := range findings {
		//tlcvet:allow errdiscard — best-effort report printing; a failed write cannot be reported anywhere better
		fmt.Fprintf(w, "%s:%d: [%s] %s\n", relName(f.Pos.Filename, base), f.Pos.Line, f.Check, f.Message)
	}
}

// relName shows name relative to base when it lies underneath it.
func relName(name, base string) string {
	if base != "" {
		if rel, err := filepath.Rel(base, name); err == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
	}
	return name
}

// internalPackage reports whether the import path has an "internal"
// path segment, i.e. the package belongs to the simulation core rather
// than the CLI/example shell.
func internalPackage(importPath string) bool {
	for _, seg := range strings.Split(importPath, "/") {
		if seg == "internal" {
			return true
		}
	}
	return false
}

// pathHasSegment reports whether the import path contains seg as a
// whole path element. Analyzer scoping matches on segments rather than
// literal prefixes so the lint fixtures (loaded under synthetic
// testdata paths) land in scope of the analyzer they exercise.
func pathHasSegment(importPath, seg string) bool {
	for _, s := range strings.Split(importPath, "/") {
		if s == seg {
			return true
		}
	}
	return false
}
