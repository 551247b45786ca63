package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Unreached reports the functions that no binary of the program can
// reach, the same set the linker drops. Its roots are main and init of
// every loaded main package (cmd/*, examples/* and perfbench, which
// the loader reads as a package of this module although it carries its
// own go.mod), plus init and the package-level variable initializers
// of every package those binaries import. Its edges are:
//
//   - every reference to a declared function from a reached body: a
//     call, a method value, a function value passed on, a generic
//     instantiation (which resolves to its generic declaration);
//   - interface dispatch, modelled on the linker: a method is reached
//     when reached code converts its type to an interface (the types
//     that type holds go with it, as reflection can reach them) and
//     some reached call, or code the program has no syntax for, can
//     invoke it. A reached call names an interface method; code
//     without syntax — the standard library, or module packages the
//     patterns left out — may invoke any method of any interface it
//     declares. A method matches by name and signature.
//
// A function waived with //tlcvet:allow unreached and a reason is a
// root too, so what only it reaches is not reported; a waiver on a
// function a binary reaches suppresses nothing, and staleallow reports
// it. Test files are never roots and never reported.
//
// The check judges the program the patterns load, so it belongs on
// ./... from the module root. A load with no main package has no roots:
// the check then judges nothing, and its waivers are not stale.
var Unreached = &Analyzer{
	Name:       unreachedCheck,
	Doc:        "report functions that no binary's main or init reaches (delete, move into _test.go, or waive)",
	RunProgram: runUnreached,
}

const unreachedCheck = "unreached"

func runUnreached(prog *Program) {
	r := &reacher{
		prog:      prog,
		funcs:     prog.FuncDecls(),
		reached:   make(map[string]bool),
		converted: make(map[string]types.Type),
		invocable: make(map[string]bool),
	}
	byPath := make(map[string]*Package, len(prog.Pkgs))
	var mains []*Package
	for _, pkg := range prog.Pkgs {
		byPath[pkg.Path] = pkg
		if pkg.Types != nil && pkg.Types.Name() == "main" {
			mains = append(mains, pkg)
		}
	}
	if len(mains) == 0 {
		delete(prog.ran, unreachedCheck)
		return
	}
	for _, pkg := range linkedPackages(mains, byPath) {
		for _, file := range pkg.Files {
			if isTestFileName(pkg.Fset.Position(file.Pos()).Filename) {
				continue
			}
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					isMain := d.Name.Name == "main" && pkg.Types.Name() == "main"
					if d.Recv == nil && (d.Name.Name == "init" || isMain) {
						r.reachDecl(pkg, d)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						r.scan(pkg, d, nil)
					}
				}
			}
		}
	}
	r.noteOpaqueInterfaces()
	r.run()

	// Waived functions are roots: what only they reach is not reported.
	unreached := r.unreachedDecls()
	for _, site := range unreached {
		if prog.allow[site.pkg].covers(site.pkg.Fset.Position(site.decl.Pos()), unreachedCheck) {
			r.reachDecl(site.pkg, site.decl)
		}
	}
	r.run()
	for _, site := range r.unreachedDecls() {
		fn := site.pkg.Info.Defs[site.decl.Name].(*types.Func)
		prog.Pass(site.pkg, unreachedCheck).Reportf(site.decl.Pos(),
			"%s is reached from no binary's main or init; delete it, move it into a _test.go file, or waive it with //tlcvet:allow unreached and a reason",
			funcDisplayName(fn))
	}
}

// linkedPackages returns the main packages and the loaded packages
// their non-test files import, directly or transitively.
func linkedPackages(mains []*Package, byPath map[string]*Package) []*Package {
	linked := append([]*Package(nil), mains...)
	seen := make(map[string]bool)
	var visit func(pkg *Package)
	visit = func(pkg *Package) {
		for _, file := range pkg.Files {
			if isTestFileName(pkg.Fset.Position(file.Pos()).Filename) {
				continue
			}
			for _, spec := range file.Imports {
				imported, ok := byPath[strings.Trim(spec.Path.Value, `"`)]
				if ok && !seen[imported.Path] {
					seen[imported.Path] = true
					linked = append(linked, imported)
					visit(imported)
				}
			}
		}
	}
	for _, m := range mains {
		visit(m)
	}
	return linked
}

// reacher is the state of one reachability walk.
type reacher struct {
	prog    *Program
	funcs   map[string]declSite
	reached map[string]bool
	queue   []declSite
	// converted holds every type reached code converts to an
	// interface, keyed by its path-qualified string.
	converted map[string]types.Type
	// invocable holds the method keys (methodKey) some reached call or
	// some code without syntax may invoke through an interface.
	invocable map[string]bool
}

// reachDecl marks one declaration reached and queues its body.
func (r *reacher) reachDecl(pkg *Package, decl *ast.FuncDecl) {
	if obj, ok := pkg.Info.Defs[decl.Name].(*types.Func); ok {
		r.reach(obj)
	}
}

// reach marks the declaration of fn reached, if the program has one.
func (r *reacher) reach(fn *types.Func) {
	key := funcKey(fn.Origin())
	if r.reached[key] {
		return
	}
	site, ok := r.funcs[key]
	if !ok || isTestFileName(site.pkg.Fset.Position(site.decl.Pos()).Filename) {
		return
	}
	r.reached[key] = true
	r.queue = append(r.queue, site)
}

// run drains the queue to a fixed point: bodies first, then the
// methods of converted types that an invocable interface method names,
// until neither adds anything. A method reached through an interface
// hands its parameter and result types over too, as its entry in the
// type's method table lets reflection reach them.
func (r *reacher) run() {
	for {
		for len(r.queue) > 0 {
			site := r.queue[0]
			r.queue = r.queue[1:]
			r.scan(site.pkg, site.decl, site.pkg.Info.Defs[site.decl.Name].(*types.Func).Type().(*types.Signature))
		}
		converted := len(r.converted)
		for _, t := range r.converted {
			ms := types.NewMethodSet(types.NewPointer(t))
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj().(*types.Func); r.invocable[methodKey(m)] {
					r.reach(m)
					r.markConverted(m.Type())
				}
			}
		}
		if len(r.queue) == 0 && len(r.converted) == converted {
			return
		}
	}
}

// unreachedDecls lists the non-test declarations not reached, in load
// order.
func (r *reacher) unreachedDecls() []declSite {
	var out []declSite
	for _, pkg := range r.prog.Pkgs {
		for _, file := range pkg.Files {
			if isTestFileName(pkg.Fset.Position(file.Pos()).Filename) {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Name.Name == "_" {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok && !r.reached[funcKey(obj)] {
					out = append(out, declSite{decl: fd, pkg: pkg})
				}
			}
		}
	}
	return out
}

// noteOpaqueInterfaces makes every method of every interface declared
// in a package the load has no syntax for invocable: that code is
// opaque, so it may call any of them.
func (r *reacher) noteOpaqueInterfaces() {
	loaded := make(map[string]bool, len(r.prog.Pkgs))
	for _, pkg := range r.prog.Pkgs {
		loaded[pkg.Path] = true
	}
	r.noteInterface(types.Universe.Lookup("error").Type())
	done := make(map[string]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if done[p.Path()] {
			return
		}
		done[p.Path()] = true
		if !loaded[p.Path()] {
			scope := p.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					r.noteInterface(tn.Type())
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range r.prog.Pkgs {
		if pkg.Types != nil {
			walk(pkg.Types)
		}
	}
}

// noteInterface makes the methods of t invocable if t is an interface.
func (r *reacher) noteInterface(t types.Type) {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		r.invocable[methodKey(iface.Method(i))] = true
	}
}

// methodKey identifies a method by name and signature, receiver and
// parameter names left out, the way the linker matches a method to an
// interface call.
func methodKey(m *types.Func) string {
	sig := m.Type().(*types.Signature)
	var b strings.Builder
	b.WriteString(m.Name())
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString("(")
		for i := 0; i < tuple.Len(); i++ {
			if i > 0 {
				b.WriteString(",")
			}
			if sig.Variadic() && tuple == sig.Params() && i == tuple.Len()-1 {
				b.WriteString("...")
			}
			b.WriteString(typeKey(tuple.At(i).Type()))
		}
		b.WriteString(")")
	}
	return b.String()
}

// typeKey renders a type with full package paths, which is the same
// string in every type-check universe of one program.
func typeKey(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Path() })
}

// scan follows every edge out of one reached node: a function body
// (sig is its signature, for return conversions) or a package-level
// var declaration (sig is nil).
func (r *reacher) scan(pkg *Package, node ast.Node, sig *types.Signature) {
	info := pkg.Info
	var stack []ast.Node
	ast.Inspect(node, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch x := n.(type) {
		case *ast.Ident:
			// A generic body may call its type arguments' methods
			// through their constraint: the instantiation hands them
			// over like a conversion does.
			for i, args := 0, info.Instances[x].TypeArgs; args != nil && i < args.Len(); i++ {
				r.markConverted(args.At(i))
			}
			if fn, ok := info.Uses[x].(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && isIfaceType(recv.Type()) {
					r.invocable[methodKey(fn)] = true
				} else {
					r.reach(fn)
				}
			}
		case *ast.CallExpr:
			r.scanCall(info, x)
		case *ast.AssignStmt:
			if x.Tok != token.ASSIGN {
				break
			}
			for i, lhs := range x.Lhs {
				r.convertTo(info, info.TypeOf(lhs), x.Rhs, i)
			}
		case *ast.ValueSpec:
			if x.Type != nil {
				for i := range x.Names {
					r.convertTo(info, info.TypeOf(x.Type), x.Values, i)
				}
			}
		case *ast.ReturnStmt:
			var results *types.Tuple
			if sig != nil {
				results = sig.Results()
			}
			for i := len(stack) - 2; i >= 0; i-- {
				if lit, ok := stack[i].(*ast.FuncLit); ok {
					results = info.TypeOf(lit).(*types.Signature).Results()
					break
				}
			}
			for i := 0; results != nil && i < results.Len(); i++ {
				r.convertTo(info, results.At(i).Type(), x.Results, i)
			}
		case *ast.CompositeLit:
			r.scanCompositeLit(info, x)
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(x.Chan).Underlying().(*types.Chan); ok {
				r.convert(info, ch.Elem(), x.Value)
			}
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				r.convert(info, info.TypeOf(x.X), x.Y)
				r.convert(info, info.TypeOf(x.Y), x.X)
			}
		case *ast.IndexExpr:
			if m, ok := info.TypeOf(x.X).Underlying().(*types.Map); ok {
				r.convert(info, m.Key(), x.Index)
			}
		}
		return true
	})
}

// scanCall notes the conversions a call makes: an explicit conversion
// to an interface, an argument passed to an interface parameter, or an
// element appended to a slice of interfaces.
func (r *reacher) scanCall(info *types.Info, call *ast.CallExpr) {
	tv, ok := info.Types[unparen(call.Fun)]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsType() {
		if len(call.Args) == 1 {
			r.convert(info, tv.Type, call.Args[0])
		}
		return
	}
	if builtinName(info, call) == "append" && len(call.Args) > 0 && !call.Ellipsis.IsValid() {
		if s, ok := info.TypeOf(call.Args[0]).Underlying().(*types.Slice); ok {
			for _, arg := range call.Args[1:] {
				r.convert(info, s.Elem(), arg)
			}
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if len(call.Args) == 1 && params.Len() > 1 {
		r.convertTuple(info, params, call.Args[0])
		return
	}
	for i, arg := range call.Args {
		switch {
		case sig.Variadic() && i >= params.Len()-1 && !call.Ellipsis.IsValid():
			r.convert(info, params.At(params.Len()-1).Type().(*types.Slice).Elem(), arg)
		case i < params.Len():
			r.convert(info, params.At(i).Type(), arg)
		}
	}
}

// scanCompositeLit notes the conversions of a composite literal's
// elements to interface-typed fields, elements, keys and values.
func (r *reacher) scanCompositeLit(info *types.Info, lit *ast.CompositeLit) {
	t := info.TypeOf(lit)
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	for i, elt := range lit.Elts {
		kv, keyed := elt.(*ast.KeyValueExpr)
		switch u := t.Underlying().(type) {
		case *types.Struct:
			if keyed {
				if id, ok := kv.Key.(*ast.Ident); ok {
					if f, ok := info.Uses[id].(*types.Var); ok {
						r.convert(info, f.Type(), kv.Value)
					}
				}
			} else if i < u.NumFields() {
				r.convert(info, u.Field(i).Type(), elt)
			}
		case *types.Slice:
			r.convert(info, u.Elem(), elementValue(elt))
		case *types.Array:
			r.convert(info, u.Elem(), elementValue(elt))
		case *types.Map:
			if keyed {
				r.convert(info, u.Key(), kv.Key)
				r.convert(info, u.Elem(), kv.Value)
			}
		}
	}
}

// elementValue strips an index key from a slice or array element.
func elementValue(elt ast.Expr) ast.Expr {
	if kv, ok := elt.(*ast.KeyValueExpr); ok {
		return kv.Value
	}
	return elt
}

// convertTo notes the conversion of the i-th value of an assignment
// to type to; a single multi-valued right-hand side is split.
func (r *reacher) convertTo(info *types.Info, to types.Type, values []ast.Expr, i int) {
	switch {
	case len(values) == 1 && i > 0:
		if tuple, ok := info.TypeOf(values[0]).(*types.Tuple); ok && i < tuple.Len() {
			r.convertType(to, tuple.At(i).Type())
		}
	case len(values) == 1:
		if tuple, ok := info.TypeOf(values[0]).(*types.Tuple); ok {
			if tuple.Len() > 0 {
				r.convertType(to, tuple.At(0).Type())
			}
			return
		}
		r.convert(info, to, values[0])
	case i < len(values):
		r.convert(info, to, values[i])
	}
}

// convertTuple notes the conversions of f(g()) where g returns
// several values.
func (r *reacher) convertTuple(info *types.Info, params *types.Tuple, arg ast.Expr) {
	tuple, ok := info.TypeOf(arg).(*types.Tuple)
	if !ok {
		r.convert(info, params.At(0).Type(), arg)
		return
	}
	for i := 0; i < tuple.Len() && i < params.Len(); i++ {
		r.convertType(params.At(i).Type(), tuple.At(i).Type())
	}
}

// convert notes that expr is converted to type to.
func (r *reacher) convert(info *types.Info, to types.Type, expr ast.Expr) {
	if to == nil || expr == nil {
		return
	}
	r.convertType(to, info.TypeOf(expr))
}

// convertType notes a conversion from a concrete type to an interface.
func (r *reacher) convertType(to, from types.Type) {
	if to == nil || from == nil || !isIfaceType(to) || isIfaceType(from) {
		return
	}
	r.markConverted(from)
}

// markConverted records t and, as the linker does for the type
// descriptors reflection can reach from it, every type t holds.
func (r *reacher) markConverted(t types.Type) {
	switch u := t.(type) {
	case *types.Named:
		key := typeKey(u)
		if _, ok := r.converted[key]; ok {
			return
		}
		r.converted[key] = u
		r.markConverted(u.Underlying())
	case *types.Pointer:
		r.markConverted(u.Elem())
	case *types.Slice:
		r.markConverted(u.Elem())
	case *types.Array:
		r.markConverted(u.Elem())
	case *types.Chan:
		r.markConverted(u.Elem())
	case *types.Map:
		r.markConverted(u.Key())
		r.markConverted(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			r.markConverted(u.Field(i).Type())
		}
	case *types.Signature:
		r.markConverted(u.Params())
		r.markConverted(u.Results())
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			r.markConverted(u.At(i).Type())
		}
	case *types.Interface:
		for i := 0; i < u.NumMethods(); i++ {
			r.markConverted(u.Method(i).Type())
		}
	}
}
