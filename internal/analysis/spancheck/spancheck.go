// Package spancheck verifies the telemetry span pairing invariant:
// every done-func returned by telemetry.StartEvent must be called
// exactly once on every return path of the function that started the
// span. A path that returns without calling it silently truncates the
// trace (the PR 1 span-leak class); calling it twice double-reports
// the span's duration.
//
// The analysis is intra-procedural and path-sensitive over the AST:
// it tracks each done-func variable through the statement list with a
// small abstract state (pending, done, maybe), splitting at branches
// and merging after them. `defer done()` (directly or via a deferred
// function literal) satisfies every subsequent exit. A done-func that
// escapes — assigned elsewhere, passed as an argument, captured by a
// non-deferred closure — leaves the intra-procedural world and is
// skipped. Calls under loops or after break/continue/goto degrade to
// "maybe", which is never reported: the checker prefers silence to
// false positives.
package spancheck

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/sepe-go/sepe/internal/analysis"
)

// Analyzer is the spancheck analysis.
var Analyzer = &analysis.Analyzer{
	Name: "spancheck",
	Doc:  "check that every telemetry.StartEvent done-func is called exactly once on every return path",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body == nil {
				return true
			}
			checkFunc(pass, body)
			return true
		})
	}
	return nil
}

// checkFunc finds the StartEvent assignments directly inside this
// function (not inside nested function literals — those are their own
// units) and verifies each tracked variable.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false // nested unit
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				return true
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok || !isStartEvent(pass, call) {
				return true
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				return true
			}
			c := &checker{pass: pass, obj: obj, def: as}
			st := c.stmts(body.List, stInactive)
			if st == stPending {
				pass.Reportf(body.Rbrace, "span done-func %s not called before the end of the function", obj.Name())
			}
			return true
		})
	}
	walk(body)
}

// isStartEvent reports whether call invokes StartEvent from a
// telemetry package, the one function that starts a span.
func isStartEvent(pass *analysis.Pass, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	obj, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return false
	}
	if obj.Name() != "StartEvent" {
		return false
	}
	path := obj.Pkg().Path()
	return path == "telemetry" || strings.HasSuffix(path, "/telemetry")
}

// state is the abstract call count of one done-func on one path.
type state int

const (
	// stInactive: the variable is not yet assigned on this path.
	stInactive state = iota
	// stPending: assigned, not yet called.
	stPending
	// stDone: called exactly once (or satisfied by a defer).
	stDone
	// stMaybe: call count unknown (loop, merge of unequal branches).
	stMaybe
	// stEscaped: the value left the function; give up.
	stEscaped
)

// merge joins the states of two paths.
func merge(a, b state) state {
	if a == b {
		return a
	}
	if a == stEscaped || b == stEscaped {
		return stEscaped
	}
	return stMaybe
}

// checker walks one function body for one tracked done-func.
type checker struct {
	pass *analysis.Pass
	obj  types.Object
	def  *ast.AssignStmt
}

// stmts threads the state through a statement list.
func (c *checker) stmts(list []ast.Stmt, st state) state {
	for _, s := range list {
		st = c.stmt(s, st)
	}
	return st
}

func (c *checker) stmt(s ast.Stmt, st state) state {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if s == c.def {
			return stPending
		}
		// A reassignment of the variable re-arms it; any use of the
		// variable on the right side escapes or calls as usual.
		st = c.exprs(s.Rhs, st, false)
		for _, l := range s.Lhs {
			if id, ok := l.(*ast.Ident); ok && c.isVar(id) {
				return stEscaped // overwritten by something else
			}
			st = c.expr(l, st, false)
		}
		return st
	case *ast.ExprStmt:
		return c.expr(s.X, st, false)
	case *ast.DeferStmt:
		return c.deferCall(s.Call, st)
	case *ast.GoStmt:
		return c.expr(s.Call, st, false)
	case *ast.ReturnStmt:
		st = c.exprs(s.Results, st, false)
		if st == stPending {
			c.pass.Reportf(s.Pos(), "return leaks span done-func %s (StartEvent at %s)",
				c.obj.Name(), c.pass.Fset.Position(c.def.Pos()))
			return stDone // report each leaking path once
		}
		return st
	case *ast.IfStmt:
		st = c.stmtOpt(s.Init, st)
		st = c.expr(s.Cond, st, false)
		then := c.stmts(s.Body.List, st)
		els := st
		if s.Else != nil {
			els = c.stmt(s.Else, st)
		}
		return merge(then, els)
	case *ast.BlockStmt:
		return c.stmts(s.List, st)
	case *ast.SwitchStmt:
		return c.switchLike(s.Init, s.Tag, nil, s.Body, st)
	case *ast.TypeSwitchStmt:
		return c.switchLike(s.Init, nil, s.Assign, s.Body, st)
	case *ast.SelectStmt:
		out := stInactive
		first := true
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			cst := c.stmtOpt(cc.Comm, st)
			cst = c.stmts(cc.Body, cst)
			if first {
				out, first = cst, false
			} else {
				out = merge(out, cst)
			}
		}
		if first {
			return st
		}
		return out
	case *ast.ForStmt:
		st = c.stmtOpt(s.Init, st)
		if s.Cond != nil {
			st = c.expr(s.Cond, st, false)
		}
		in := st
		out := c.stmts(s.Body.List, st)
		out = c.stmtOpt(s.Post, out)
		if out != in {
			return merge(in, out) // 0 or N iterations: unknown count
		}
		return in
	case *ast.RangeStmt:
		st = c.expr(s.X, st, false)
		in := st
		out := c.stmts(s.Body.List, st)
		if out != in {
			return merge(in, out)
		}
		return in
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, st)
	case *ast.BranchStmt:
		if st == stPending || st == stDone {
			return stMaybe // control flow leaves the structured walk
		}
		return st
	case *ast.DeclStmt, *ast.EmptyStmt, *ast.IncDecStmt, *ast.SendStmt:
		if s, ok := s.(*ast.SendStmt); ok {
			st = c.expr(s.Chan, st, false)
			st = c.expr(s.Value, st, false)
		}
		return st
	default:
		return st
	}
}

func (c *checker) stmtOpt(s ast.Stmt, st state) state {
	if s == nil {
		return st
	}
	return c.stmt(s, st)
}

// switchLike merges an expression or type switch's cases; without a
// default the zero-case path keeps the entry state.
func (c *checker) switchLike(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt, st state) state {
	st = c.stmtOpt(init, st)
	if tag != nil {
		st = c.expr(tag, st, false)
	}
	st = c.stmtOpt(assign, st)
	out := st
	hasDefault, first := false, true
	for _, cl := range body.List {
		cc := cl.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		cst := c.stmts(cc.Body, st)
		if first {
			out, first = cst, false
		} else {
			out = merge(out, cst)
		}
	}
	if first || !hasDefault {
		out = merge(out, st)
	}
	return out
}

// deferCall handles `defer f(...)`: a defer of the done-func (or of a
// function literal that calls it exactly once) satisfies every
// subsequent exit.
func (c *checker) deferCall(call *ast.CallExpr, st state) state {
	if id, ok := call.Fun.(*ast.Ident); ok && c.isVar(id) {
		st = c.exprs(call.Args, st, false)
		switch st {
		case stPending:
			return stDone
		case stDone:
			c.pass.Reportf(call.Pos(), "span done-func %s deferred after already being called", c.obj.Name())
			return stDone
		default:
			return st
		}
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		calls, escapes := c.scanLit(lit)
		if escapes {
			return stEscaped
		}
		if calls > 0 {
			st = c.exprs(call.Args, st, false)
			switch st {
			case stPending:
				if calls == 1 {
					return stDone
				}
				return stMaybe
			case stDone:
				c.pass.Reportf(call.Pos(), "deferred closure re-calls span done-func %s", c.obj.Name())
				return stDone
			default:
				return st
			}
		}
	}
	return c.expr(call, st, false)
}

// expr scans an expression for uses of the tracked variable. A direct
// call `x(...)` advances the state machine; a nested function literal
// using x, or any other appearance of x, escapes.
func (c *checker) expr(e ast.Expr, st state, inCallee bool) state {
	switch e := e.(type) {
	case nil:
		return st
	case *ast.Ident:
		if !c.isVar(e) {
			return st
		}
		if inCallee {
			switch st {
			case stPending:
				return stDone
			case stDone:
				c.pass.Reportf(e.Pos(), "span done-func %s called twice on this path", c.obj.Name())
				return stDone
			case stInactive:
				return st // call before the tracked definition: different binding epoch
			default:
				return st
			}
		}
		return stEscaped
	case *ast.CallExpr:
		st = c.expr(e.Fun, st, true)
		return c.exprs(e.Args, st, false)
	case *ast.FuncLit:
		if calls, escapes := c.scanLit(e); escapes || calls > 0 {
			return stEscaped // captured by a non-deferred closure
		}
		return st
	case *ast.ParenExpr:
		return c.expr(e.X, st, inCallee)
	case *ast.SelectorExpr:
		return c.expr(e.X, st, false)
	case *ast.IndexExpr:
		st = c.expr(e.X, st, false)
		return c.expr(e.Index, st, false)
	case *ast.IndexListExpr:
		st = c.expr(e.X, st, false)
		return c.exprs(e.Indices, st, false)
	case *ast.SliceExpr:
		st = c.expr(e.X, st, false)
		st = c.expr(e.Low, st, false)
		st = c.expr(e.High, st, false)
		return c.expr(e.Max, st, false)
	case *ast.StarExpr:
		return c.expr(e.X, st, false)
	case *ast.UnaryExpr:
		return c.expr(e.X, st, false)
	case *ast.BinaryExpr:
		st = c.expr(e.X, st, false)
		return c.expr(e.Y, st, false)
	case *ast.KeyValueExpr:
		st = c.expr(e.Key, st, false)
		return c.expr(e.Value, st, false)
	case *ast.CompositeLit:
		return c.exprs(e.Elts, st, false)
	case *ast.TypeAssertExpr:
		return c.expr(e.X, st, false)
	default:
		return st
	}
}

func (c *checker) exprs(es []ast.Expr, st state, inCallee bool) state {
	for _, e := range es {
		st = c.expr(e, st, inCallee)
	}
	return st
}

// scanLit counts direct calls of the tracked variable inside a
// function literal and reports whether it escapes from it (any
// non-callee use, or capture by a further nested literal).
func (c *checker) scanLit(lit *ast.FuncLit) (calls int, escapes bool) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && c.isVar(id) {
				calls++
				for _, a := range n.Args {
					ast.Inspect(a, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok && c.isVar(id) {
							escapes = true
						}
						return true
					})
				}
				return false
			}
		case *ast.Ident:
			if c.isVar(n) {
				escapes = true
			}
		}
		return true
	})
	return calls, escapes
}

// isVar reports whether id denotes the tracked done-func variable.
func (c *checker) isVar(id *ast.Ident) bool {
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Defs[id]
	}
	return obj == c.obj
}
