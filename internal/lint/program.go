package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Program is the state of one whole tlcvet run: every loaded package,
// its parsed //tlcvet:allow directives with usage accounting, and the
// accumulated findings. Per-package analyzers see it only through
// their Pass; program-level analyzers (hotalloc's cross-package call
// graph, staleallow's waiver lifecycle) receive it directly after the
// per-package phase completes.
type Program struct {
	Pkgs []*Package

	allow    map[*Package]directiveIndex
	ran      map[string]bool
	findings []Finding

	funcs     map[string]declSite
	funcsOnce bool
}

func newProgram(pkgs []*Package, analyzers []*Analyzer) *Program {
	prog := &Program{
		Pkgs:  pkgs,
		allow: make(map[*Package]directiveIndex, len(pkgs)),
		ran:   make(map[string]bool, len(analyzers)),
	}
	for _, pkg := range pkgs {
		prog.allow[pkg] = parseDirectives(pkg.Fset, pkg.Files)
	}
	for _, a := range analyzers {
		prog.ran[a.Name] = true
	}
	return prog
}

// Pass builds the view one analyzer gets of one package. Findings and
// directive usage accumulate in the program.
func (prog *Program) Pass(pkg *Package, check string) *Pass {
	return &Pass{
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Path:     pkg.Path,
		check:    check,
		allow:    prog.allow[pkg],
		findings: &prog.findings,
	}
}

// Ran reports whether the named check was part of this run. staleallow
// uses it to judge only directives whose every named check actually
// had the chance to suppress something.
func (prog *Program) Ran(check string) bool { return prog.ran[check] }

// declSite locates one function declaration and the package that owns
// it.
type declSite struct {
	decl *ast.FuncDecl
	pkg  *Package
}

// funcKey identifies a function declaration across type-check
// universes. A package matched by the patterns is type-checked with
// its test files while the same package imported as a dependency is
// checked without them, so two distinct *types.Func objects can stand
// for one declaration; the qualified FullName ("(*tlc/internal/sim.
// Scheduler).At") is the stable program-wide identity.
func funcKey(f *types.Func) string { return f.FullName() }

// FuncDecls indexes every function and method declaration with a body
// across the program by funcKey, so analyzers can chase static calls
// from one package into another.
func (prog *Program) FuncDecls() map[string]declSite {
	if prog.funcsOnce {
		return prog.funcs
	}
	prog.funcsOnce = true
	prog.funcs = make(map[string]declSite)
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					prog.funcs[funcKey(obj)] = declSite{decl: fd, pkg: pkg}
				}
			}
		}
	}
	return prog.funcs
}

// directivesInOrder returns every parsed directive of the program in
// stable (file, line, column) order, with the package it came from.
func (prog *Program) directivesInOrder() []directiveAt {
	var out []directiveAt
	for _, pkg := range prog.Pkgs {
		idx := prog.allow[pkg]
		for _, lines := range idx.byLine {
			for _, dirs := range lines {
				for _, d := range dirs {
					out = append(out, directiveAt{pkg: pkg, dir: d, used: idx.used})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].dir.position, out[j].dir.position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out
}

type directiveAt struct {
	pkg  *Package
	dir  *directive
	used map[*directive]bool
}

// unparen strips parentheses from an expression.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeOf resolves the declared function or method a call statically
// invokes. A call into a generic function or a method of a generic
// type resolves to its generic declaration (Origin), whatever the type
// arguments. Dynamic calls (function values, interface methods bound
// at run time) and builtins resolve to nil.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f.Origin()
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f.Origin()
		}
	}
	return nil
}

// funcDisplayName renders a function for reports: "Name" for plain
// functions, "Type.Name" for methods (pointer receivers shown without
// the star).
func funcDisplayName(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return f.Name()
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	if named, ok := recv.(*types.Named); ok {
		return named.Obj().Name() + "." + f.Name()
	}
	return f.Name()
}

// isTestFile reports whether the position's file is a _test.go file.
// Some analyzers (metricstier) exempt in-package tests: they exercise
// instruments directly and never run inside a sweep.
func isTestFileName(filename string) bool {
	return strings.HasSuffix(filename, "_test.go")
}
