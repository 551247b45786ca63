package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroLeak guards goroutine lifecycle in the long-lived components:
// cmd/tlcd (a daemon that must drain cleanly on SIGTERM),
// internal/protocol (whose parties tlcd spawns per connection),
// internal/session (whose per-conn writer goroutines live as long as
// their conns) and internal/sim (whose shard workers must all park
// before RunUntil returns, even when a partition panics). Every
// `go` statement there must have a reachable stop path: each
// unconditional `for` loop in the spawned body — or in an in-package
// function it statically calls, transitively — must be able to leave
// the goroutine via `return`, a `break` that actually targets that
// loop, `goto`, or a terminating call (panic, os.Exit, log.Fatal*,
// runtime.Goexit). Conditional and range loops count as bounded: their
// condition or channel close is the stop signal.
//
// The break analysis honours Go's targeting rules: a bare `break`
// inside a nested select/switch/for exits that construct, not the
// outer loop, so the classic leak
//
//	go func() { for { select { case v := <-work: handle(v) } } }()
//
// is reported even though it contains a breakable statement. A
// goroutine that is deliberately immortal takes a
// //tlcvet:allow goroleak waiver naming who owns its lifetime.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "require a reachable stop path for goroutines in long-lived components (cmd/tlcd, internal/protocol, internal/session, internal/sim)",
	Applies: func(importPath string) bool {
		return pathHasSegment(importPath, "tlcd") || pathHasSegment(importPath, "protocol") ||
			pathHasSegment(importPath, "session") || pathHasSegment(importPath, "sim")
	},
	Run: runGoroLeak,
}

func runGoroLeak(pass *Pass) {
	decls := packageFuncDecls(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(pass, decls, gs)
			return true
		})
	}
}

// checkGoStmt resolves the goroutine's body and walks its in-package
// call graph looking for unbounded loops with no exit.
func checkGoStmt(pass *Pass, decls map[*types.Func]*ast.FuncDecl, gs *ast.GoStmt) {
	var bodies []*ast.BlockStmt
	visited := make(map[*types.Func]bool)
	var enqueue func(fn *types.Func)
	enqueue = func(fn *types.Func) {
		if fn == nil || visited[fn] {
			return
		}
		visited[fn] = true
		if fd, ok := decls[fn]; ok {
			bodies = append(bodies, fd.Body)
		}
	}

	switch fun := unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		bodies = append(bodies, fun.Body)
	default:
		enqueue(calleeOf(pass.Info, gs.Call))
	}

	for i := 0; i < len(bodies); i++ {
		body := bodies[i]
		for _, pos := range leakyLoops(pass.Info, body) {
			pass.Reportf(gs.Pos(),
				"goroutine has no stop path: unbounded for loop at %s never returns, breaks out, or terminates; select on a stop/ctx channel, bound the loop, or waive with the lifetime owner",
				shortPos(pass.Fset, pos))
		}
		// Follow in-package static calls: the goroutine's loop may live
		// in a helper (go o.acceptLoop(...)). Calls inside nested
		// literals are followed too — a closure built here usually runs
		// here.
		ast.Inspect(body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				enqueue(calleeOf(pass.Info, call))
			}
			return true
		})
	}
}

// leakyLoops returns the positions of unconditional for loops in body
// that have no reachable exit. Nested function literals are skipped:
// their loops run when the literal is invoked, not in this goroutine's
// frame (and callbacks passed elsewhere have their own spawn sites).
func leakyLoops(info *types.Info, body *ast.BlockStmt) []token.Pos {
	// Pre-pass: map loops to their labels so labeled breaks resolve.
	labelOf := make(map[*ast.ForStmt]string)
	ast.Inspect(body, func(n ast.Node) bool {
		if ls, ok := n.(*ast.LabeledStmt); ok {
			if loop, ok := ls.Stmt.(*ast.ForStmt); ok {
				labelOf[loop] = ls.Label.Name
			}
		}
		return true
	})

	var bad []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if x.Cond == nil && !loopExits(info, x.Body, labelOf[x]) {
				bad = append(bad, x.Pos())
			}
		}
		return true
	})
	return bad
}

// loopExits reports whether the body of an unconditional loop contains
// a statement that leaves the loop: return, goto, a break targeting
// this loop (honouring Go's nearest-breakable rule), or a terminating
// call. depth counts breakable constructs between the statement and
// the loop, so a bare break deep inside a select does not count.
func loopExits(info *types.Info, body *ast.BlockStmt, label string) bool {
	var stmtExits func(s ast.Stmt, depth int) bool
	listExits := func(list []ast.Stmt, depth int) bool {
		for _, s := range list {
			if stmtExits(s, depth) {
				return true
			}
		}
		return false
	}
	stmtExits = func(s ast.Stmt, depth int) bool {
		switch x := s.(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.BranchStmt:
			switch x.Tok {
			case token.GOTO:
				return true // conservatively assume the jump leaves the loop
			case token.BREAK:
				if x.Label != nil {
					return label != "" && x.Label.Name == label
				}
				return depth == 0
			}
			return false
		case *ast.ExprStmt:
			call, ok := x.X.(*ast.CallExpr)
			return ok && isTerminatingCall(info, call)
		case *ast.LabeledStmt:
			return stmtExits(x.Stmt, depth)
		case *ast.BlockStmt:
			return listExits(x.List, depth)
		case *ast.IfStmt:
			if listExits(x.Body.List, depth) {
				return true
			}
			if x.Else != nil {
				return stmtExits(x.Else, depth)
			}
			return false
		case *ast.ForStmt:
			return listExits(x.Body.List, depth+1)
		case *ast.RangeStmt:
			return listExits(x.Body.List, depth+1)
		case *ast.SelectStmt:
			for _, clause := range x.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && listExits(cc.Body, depth+1) {
					return true
				}
			}
			return false
		case *ast.SwitchStmt:
			for _, clause := range x.Body.List {
				if cc, ok := clause.(*ast.CaseClause); ok && listExits(cc.Body, depth+1) {
					return true
				}
			}
			return false
		case *ast.TypeSwitchStmt:
			for _, clause := range x.Body.List {
				if cc, ok := clause.(*ast.CaseClause); ok && listExits(cc.Body, depth+1) {
					return true
				}
			}
			return false
		case *ast.DeferStmt, *ast.GoStmt:
			return false // runs elsewhere / later, not an exit of this loop
		}
		return false
	}
	return listExits(body.List, 0)
}

// isTerminatingCall matches calls that never return: panic, os.Exit,
// runtime.Goexit and the log.Fatal family.
func isTerminatingCall(info *types.Info, call *ast.CallExpr) bool {
	if builtinName(info, call) == "panic" {
		return true
	}
	f := calleeOf(info, call)
	if f == nil || f.Pkg() == nil {
		return false
	}
	switch f.Pkg().Path() {
	case "os":
		return f.Name() == "Exit"
	case "runtime":
		return f.Name() == "Goexit"
	case "log":
		switch f.Name() {
		case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
			return true
		}
	}
	return false
}
