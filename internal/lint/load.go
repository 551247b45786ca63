// Package loading for tlcvet. The module cache is empty in the build
// environment, so nothing here may depend on golang.org/x/tools: the
// loader resolves this module's packages itself (go.mod discovery +
// go/build directory scans) and delegates standard-library imports to
// go/importer's source importer, which type-checks GOROOT sources
// directly and therefore works fully offline.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	// Path is the import path ("tlc/internal/sim"). Fixture loads may
	// override it to scope analyzers (see LoadAs).
	Path string
	// Dir is the absolute directory the sources came from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checker diagnostics. Analyzers still
	// run on partial information, but the CLI treats these as fatal:
	// missing type info silently hides findings.
	TypeErrors []error

	loader *Loader // the loader of its module, for OmittedMains
}

// Loader loads packages of a single module rooted at a go.mod.
type Loader struct {
	fset       *token.FileSet
	ctxt       build.Context
	std        types.ImporterFrom
	moduleRoot string
	modulePath string
	pkgs       map[string]*Package
	rootPkgs   map[string]*Package
	loading    map[string]bool
	mains      []string // see moduleMains; nil until first asked

	// IncludeTests makes Load parse and type-check each matched
	// package's in-package _test.go files together with its ordinary
	// sources, so the analyzers see test code too. Only matched (root)
	// packages get their tests: a package loaded as a dependency of
	// another import never includes them, exactly like the go tool —
	// test files are not part of a package's importable surface, and
	// loading them for dependencies would manufacture import cycles
	// (sim's tests may import packages that import sim). External
	// _test packages (XTestGoFiles) are not loaded.
	IncludeTests bool
}

// NewLoader finds the module containing dir and prepares a loader for
// it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}
	// Disable cgo in the loader's own context so module packages
	// resolve to their pure-Go fallbacks, which type-check without
	// invoking the cgo tool. The standard-library side needs the same
	// override but cannot take a context: importer.ForCompiler
	// hard-wires &build.Default into its srcimporter, so importStd
	// saves and restores the global flag around each call instead of
	// mutating it for the life of the process (which used to leak the
	// override into the host test binary).
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &Loader{
		fset:       fset,
		ctxt:       ctxt,
		std:        std,
		moduleRoot: root,
		modulePath: modPath,
		pkgs:       make(map[string]*Package),
		rootPkgs:   make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					mod := strings.TrimSpace(rest)
					mod = strings.Trim(mod, `"`)
					if mod != "" {
						return d, mod, nil
					}
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// Load resolves package patterns ("./...", "./internal/sim", "...")
// relative to the current directory and returns the matched packages.
// Dependencies inside the module are loaded and type-checked as needed
// but only matched packages are returned.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := make(map[string]bool)
	for _, pattern := range patterns {
		expanded, err := l.expand(pattern)
		if err != nil {
			return nil, err
		}
		for _, d := range expanded {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// expand turns one pattern into a list of absolute package
// directories. "..." matches recursively, skipping testdata and
// hidden/underscore directories exactly like the go tool.
func (l *Loader) expand(pattern string) ([]string, error) {
	recursive := false
	if rest, ok := strings.CutSuffix(pattern, "..."); ok {
		recursive = true
		pattern = strings.TrimSuffix(rest, "/")
		if pattern == "" {
			pattern = "."
		}
	}
	base, err := filepath.Abs(pattern)
	if err != nil {
		return nil, err
	}
	if !recursive {
		return []string{base}, nil
	}
	var dirs []string
	err = filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != base &&
			(name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := l.ctxt.ImportDir(path, 0); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil // directory without Go files
			}
			return err
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dirs, nil
}

// OmittedMains returns the import paths of the main packages of pkgs'
// module that pkgs leave out, in path order. The module's main
// packages are those ./... finds from its root, perfbench's included:
// the walk does not stop at a nested go.mod.
func OmittedMains(pkgs []*Package) ([]string, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	mains, err := pkgs[0].loader.moduleMains()
	if err != nil {
		return nil, err
	}
	loaded := make(map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		loaded[pkg.Path] = true
	}
	var omitted []string
	for _, path := range mains {
		if !loaded[path] {
			omitted = append(omitted, path)
		}
	}
	return omitted, nil
}

// moduleMains lists the import paths of the module's main packages.
func (l *Loader) moduleMains() ([]string, error) {
	if l.mains != nil {
		return l.mains, nil
	}
	dirs, err := l.expand(filepath.Join(l.moduleRoot, "..."))
	if err != nil {
		return nil, err
	}
	mains := []string{}
	for _, dir := range dirs {
		bp, err := l.ctxt.ImportDir(dir, 0)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", dir, err)
		}
		if bp.Name != "main" || len(bp.GoFiles) == 0 {
			continue
		}
		path, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		mains = append(mains, path)
	}
	sort.Strings(mains)
	l.mains = mains
	return mains, nil
}

// importPathFor maps an absolute directory inside the module to its
// import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.moduleRoot)
	}
	return l.modulePath + "/" + filepath.ToSlash(rel), nil
}

// loadDir loads the package in dir under its natural import path. As a
// root (pattern-matched) package it includes in-package test files when
// IncludeTests is set; the test-augmented variant is cached separately
// from the plain one so dependency imports of the same path keep seeing
// the importable (test-free) package.
func (l *Loader) loadDir(dir string) (*Package, error) {
	importPath, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if !l.IncludeTests {
		return l.LoadAs(dir, importPath)
	}
	if pkg, ok := l.rootPkgs[importPath]; ok {
		return pkg, nil
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	if len(bp.TestGoFiles) == 0 {
		pkg, err := l.LoadAs(dir, importPath)
		if err == nil {
			l.rootPkgs[importPath] = pkg
		}
		return pkg, err
	}
	names := make([]string, 0, len(bp.GoFiles)+len(bp.TestGoFiles))
	names = append(names, bp.GoFiles...)
	names = append(names, bp.TestGoFiles...)
	pkg, err := l.check(dir, importPath, names)
	if err == nil {
		l.rootPkgs[importPath] = pkg
	}
	return pkg, err
}

// LoadAs parses and type-checks the single package in dir, recording
// it under importPath. Tests use synthetic paths (e.g.
// "tlc/internal/poc") to point path-scoped analyzers at testdata
// fixtures.
func (l *Loader) LoadAs(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	pkg, err := l.check(dir, importPath, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// check parses the named files in dir and type-checks them as one
// package under importPath.
func (l *Loader) check(dir, importPath string, names []string) (*Package, error) {
	pkg := &Package{Path: importPath, Dir: dir, Fset: l.fset, loader: l}
	for _, name := range names {
		file, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, file)
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns an error when TypeErrors is non-empty; the partial
	// package is still usable, and the caller decides severity.
	pkg.Types, _ = conf.Check(importPath, l.fset, pkg.Files, pkg.Info)
	return pkg, nil
}

// Import implements types.Importer: module-internal paths load through
// the loader, everything else through the standard-library source
// importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		dir := filepath.Join(l.moduleRoot, filepath.FromSlash(rel))
		pkg, err := l.LoadAs(dir, path)
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("lint: type-checking %s failed", path)
		}
		return pkg.Types, nil
	}
	return l.importStd(path)
}

// importStd type-checks a standard-library package via the source
// importer. That importer captured &build.Default at construction and
// offers no way to inject a context, so the cgo override is applied to
// the global for exactly the duration of the call (the import graph of
// the requested package is resolved entirely within it) and restored
// after, instead of being left set for the whole process.
func (l *Loader) importStd(path string) (*types.Package, error) {
	saved := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = saved }()
	return l.std.ImportFrom(path, l.moduleRoot, 0)
}
