// Package lockorder checks the program's locks against a declared
// partial order. It is whole-program: it classifies every
// sync.Mutex/RWMutex in the module into a lock class (the struct
// field, embedding type, or package variable that declares it), builds
// the inter-procedural acquired-while-held graph over those classes,
// and reports
//
//   - cycles in the graph — two classes each acquired while the other
//     is held on some call path can deadlock, even if no single
//     function nests them;
//   - re-acquiring a class already held — a self-deadlock, or two
//     stripes of one class nested, which striping forbids;
//   - violations of the declared ranks: a `//sepe:lockrank N`
//     directive on a mutex field (or on a type embedding a mutex, or a
//     package-level mutex variable) places the class in the intended
//     order, and every edge between two ranked classes must go from a
//     lower rank to a strictly higher one;
//   - callbacks under ranked locks: calling a func value while a
//     ranked lock is held hands control to code outside the order —
//     the shard→callback deadlock shape. A caller-supplied func
//     parameter counts directly and through any function that
//     synchronously invokes one (a ForEach forwarding it). A func read
//     from a struct field counts only where it is called under the
//     lock, not through callees: container tables call their own
//     stored hash field, and the shard layer calls those tables under
//     its lock, so propagating field calls would flag every locked
//     table operation. Locally bound literals are package code.
//
// The analysis is syntactic and flow-approximate: the held set threads
// through straight-line flow, branches fork it, deferred unlocks pin a
// lock to function exit, and goroutine bodies start empty (a spawned
// goroutine does not hold its creator's locks, and locks it takes are
// concurrent, not nested). Function literals are analyzed as functions
// of their own.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/sepe-go/sepe/internal/analysis"
)

// Analyzer is the lockorder analysis.
var Analyzer = &analysis.Analyzer{
	Name:       "lockorder",
	Doc:        "check lock acquisitions against the //sepe:lockrank partial order and for cycles",
	RunProgram: runProgram,
}

// lockClass is one mutex identity: all instances reached through the
// same field, embedding type or package variable share a class.
type lockClass struct {
	name   string // display name, e.g. "shard.shardLock" or "registry.mu"
	rank   int
	ranked bool
	local  bool // function-local mutex: tracked for nesting, never ranked
}

// edge is one acquired-while-held observation: to was acquired (or may
// be acquired by a callee) while from was held.
type edge struct {
	from, to *lockClass
	pos      token.Pos
	note     string // "" for direct acquisition, "via call to f" for inter-procedural
}

// callSite is a static call to another in-module function.
type callSite struct {
	callee *types.Func
	held   []*lockClass
	pos    token.Pos
	// localFuncArgs marks calls whose every func-typed argument is a
	// function literal (or a local bound to one): the callee's
	// callback is package code, not a caller-supplied func — the
	// snapshot-collect shape. Callback reachability does not propagate
	// through such calls.
	localFuncArgs bool
}

// callbackSite is a dynamic call through a func value.
type callbackSite struct {
	held []*lockClass
	pos  token.Pos
	expr string
}

// funcInfo is one function's summary.
type funcInfo struct {
	name      string
	acquires  map[*lockClass]bool // direct, synchronous acquisitions
	calls     []callSite
	callbacks []callbackSite
	// invokesCallback marks functions that synchronously call a
	// func-typed value: holding a lock across a call to one hands
	// control outside the order.
	invokesCallback bool
	// may is the transitive acquisition set (fixpoint over calls).
	may map[*lockClass]bool
}

type checker struct {
	pass *analysis.ProgramPass
	// classes indexes lock classes by declaring object: the mutex
	// field, the embedding named type, or the package-level variable.
	classes map[types.Object]*lockClass
	funcs   map[*types.Func]*funcInfo
	edges   []edge
}

func runProgram(pass *analysis.ProgramPass) error {
	c := &checker{
		pass:    pass,
		classes: map[types.Object]*lockClass{},
		funcs:   map[*types.Func]*funcInfo{},
	}
	for _, pkg := range pass.Pkgs {
		c.collectClasses(pkg)
	}
	for _, pkg := range pass.Pkgs {
		c.collectFuncs(pkg)
	}
	c.propagate()
	c.interEdges()
	c.reportRankViolations()
	c.reportCycles()
	c.reportCallbacks()
	return nil
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// embedsMutex reports whether named's underlying struct embeds a
// sync mutex (possibly through another embedding level).
func embedsMutex(t types.Type, depth int) bool {
	if depth > 3 {
		return false
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Embedded() {
			continue
		}
		if isMutexType(f.Type()) || embedsMutex(f.Type(), depth+1) {
			return true
		}
	}
	return false
}

// collectClasses walks the package's declarations registering lock
// classes and their //sepe:lockrank ranks.
func (c *checker) collectClasses(pkg *analysis.Package) {
	for _, file := range pkg.Syntax {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			switch gd.Tok {
			case token.TYPE:
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					c.collectTypeClasses(pkg, gd, ts)
				}
			case token.VAR:
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for _, name := range vs.Names {
						obj := pkg.TypesInfo.Defs[name]
						if obj == nil || !isMutexType(obj.Type()) {
							continue
						}
						cl := &lockClass{name: pkg.Types.Name() + "." + name.Name}
						c.applyRank(cl, obj.Pos(), gd.Doc, vs.Doc, vs.Comment)
						c.classes[obj] = cl
					}
				}
			}
		}
	}
}

// collectTypeClasses registers the classes a struct type declares: one
// per named mutex field, and one for the type itself when it embeds a
// mutex (shardLock embeds Mutex; locking any instance locks the
// class).
func (c *checker) collectTypeClasses(pkg *analysis.Package, gd *ast.GenDecl, ts *ast.TypeSpec) {
	tobj := pkg.TypesInfo.Defs[ts.Name]
	if tobj == nil {
		return
	}
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	typeName := pkg.Types.Name() + "." + ts.Name.Name
	for _, field := range st.Fields.List {
		ftype := pkg.TypesInfo.TypeOf(field.Type)
		if ftype == nil {
			continue
		}
		if len(field.Names) == 0 {
			// Embedded mutex: the owning type is the class.
			if isMutexType(ftype) {
				cl := &lockClass{name: typeName}
				c.applyRank(cl, ts.Pos(), field.Doc, field.Comment, gd.Doc, ts.Doc)
				c.classes[tobj] = cl
			}
			continue
		}
		if !isMutexType(ftype) {
			// A rank on a non-mutex field is a stale annotation.
			if d, ok := analysis.FindDirective("lockrank", field.Doc, field.Comment); ok {
				c.pass.Reportf(d.Pos.Pos(), "//sepe:lockrank on non-mutex field %s.%s", typeName, field.Names[0].Name)
			}
			continue
		}
		for _, name := range field.Names {
			obj := pkg.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			cl := &lockClass{name: typeName + "." + name.Name}
			c.applyRank(cl, obj.Pos(), field.Doc, field.Comment)
			c.classes[obj] = cl
		}
	}
	// A type that embeds a mutex through another struct level can
	// still be ranked on its declaration.
	if _, have := c.classes[tobj]; !have && embedsMutex(tobj.Type(), 0) {
		cl := &lockClass{name: typeName}
		c.applyRank(cl, ts.Pos(), gd.Doc, ts.Doc)
		c.classes[tobj] = cl
	}
}

// applyRank parses a //sepe:lockrank directive from the groups into cl.
func (c *checker) applyRank(cl *lockClass, at token.Pos, groups ...*ast.CommentGroup) {
	d, ok := analysis.FindDirective("lockrank", groups...)
	if !ok {
		return
	}
	n, ok := d.IntArg()
	if !ok {
		c.pass.Reportf(d.Pos.Pos(), "//sepe:lockrank on %s needs one integer argument", cl.name)
		return
	}
	cl.rank, cl.ranked = n, true
	_ = at
}

// collectFuncs builds per-function summaries for the package.
func (c *checker) collectFuncs(pkg *analysis.Package) {
	for _, file := range pkg.Syntax {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			info := &funcInfo{name: fd.Name.Name, acquires: map[*lockClass]bool{}}
			c.funcs[obj] = info
			params := map[types.Object]bool{}
			collectFuncParams(pkg, fd.Type, params)
			w := &walker{c: c, pkg: pkg, info: info, litBound: map[types.Object]bool{}, params: params}
			w.collectLitBindings(fd.Body)
			w.stmts(fd.Body.List, map[*lockClass]token.Pos{})
			// Function literals are separate functions: their locks are
			// not held by the enclosing function's callers. A literal's
			// callbacks include the enclosing function's captured func
			// parameters, so the params set is shared and extended.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					collectFuncParams(pkg, lit.Type, params)
					lw := &walker{c: c, pkg: pkg, info: &funcInfo{name: fd.Name.Name + ".func", acquires: map[*lockClass]bool{}}, litBound: w.litBound, params: params}
					lw.stmts(lit.Body.List, map[*lockClass]token.Pos{})
					return false
				}
				return true
			})
		}
	}
}

// walker threads the held-lock set through one function body.
type walker struct {
	c    *checker
	pkg  *analysis.Package
	info *funcInfo
	// litBound marks local objects bound to function literals —
	// package-internal code, not user callbacks.
	litBound map[types.Object]bool
	// params holds the func-typed parameter objects of this function
	// (and, for literals, of the enclosing function): the values whose
	// invocation counts as running a callback.
	params map[types.Object]bool
}

// collectFuncParams records ft's func-typed parameters into params.
func collectFuncParams(pkg *analysis.Package, ft *ast.FuncType, params map[types.Object]bool) {
	if ft.Params == nil {
		return
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj := pkg.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			if _, ok := obj.Type().Underlying().(*types.Signature); ok {
				params[obj] = true
			}
		}
	}
}

func (w *walker) collectLitBindings(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := w.pkg.TypesInfo.Defs[id]
			if obj == nil {
				obj = w.pkg.TypesInfo.Uses[id]
			}
			if obj == nil {
				continue
			}
			if _, isLit := as.Rhs[i].(*ast.FuncLit); isLit {
				if _, seen := w.litBound[obj]; !seen {
					w.litBound[obj] = true
				}
			} else {
				w.litBound[obj] = false
			}
		}
		return true
	})
}

// classOf resolves the lock class of a mutex receiver expression.
// Unclassifiable receivers (local mutexes, expressions the resolver
// does not model) get a per-object local class so nesting among them
// is still tracked.
func (w *walker) classOf(x ast.Expr) *lockClass {
	t := w.pkg.TypesInfo.TypeOf(x)
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	// A named non-sync type (shardLock embedding Mutex): the type is
	// the class.
	if named, ok := t.(*types.Named); ok && !isMutexType(t) {
		if cl, ok := w.c.classes[named.Obj()]; ok {
			return cl
		}
		cl := &lockClass{name: named.Obj().Name(), local: true}
		w.c.classes[named.Obj()] = cl
		return cl
	}
	switch x := x.(type) {
	case *ast.SelectorExpr:
		if sel, ok := w.pkg.TypesInfo.Selections[x]; ok && sel.Kind() == types.FieldVal {
			obj := sel.Obj()
			if cl, ok := w.c.classes[obj]; ok {
				return cl
			}
			cl := &lockClass{name: types.ExprString(x), local: true}
			w.c.classes[obj] = cl
			return cl
		}
		// Qualified package-level var: pkg.mu.
		if obj := w.pkg.TypesInfo.Uses[x.Sel]; obj != nil {
			if cl, ok := w.c.classes[obj]; ok {
				return cl
			}
		}
	case *ast.Ident:
		if obj := w.pkg.TypesInfo.Uses[x]; obj != nil {
			if cl, ok := w.c.classes[obj]; ok {
				return cl
			}
			cl := &lockClass{name: x.Name, local: true}
			w.c.classes[obj] = cl
			return cl
		}
	case *ast.IndexExpr:
		return w.classOf(x.X)
	case *ast.ParenExpr:
		return w.classOf(x.X)
	case *ast.StarExpr:
		return w.classOf(x.X)
	}
	return nil
}

// mutexCall classifies a call as a sync mutex operation.
func (w *walker) mutexCall(call *ast.CallExpr) (cl *lockClass, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	fn, isFn := w.pkg.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
		return w.classOf(sel.X), fn.Name(), true
	}
	return nil, "", false
}

func copyHeld(held map[*lockClass]token.Pos) map[*lockClass]token.Pos {
	c := make(map[*lockClass]token.Pos, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

func heldList(held map[*lockClass]token.Pos) []*lockClass {
	out := make([]*lockClass, 0, len(held))
	for cl := range held {
		out = append(out, cl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (w *walker) stmts(list []ast.Stmt, held map[*lockClass]token.Pos) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func (w *walker) stmt(s ast.Stmt, held map[*lockClass]token.Pos) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, held)
		}
		for _, e := range s.Lhs {
			w.expr(e, held)
		}
	case *ast.DeferStmt:
		if cl, method, ok := w.mutexCall(s.Call); ok && cl != nil {
			switch method {
			case "Unlock", "RUnlock":
				// Deferred unlock: held to function exit.
				return
			}
		}
		w.expr(s.Call, held)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		w.stmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			w.stmt(s.Else, copyHeld(held))
		}
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.expr(s.Cond, held)
		}
		inner := copyHeld(held)
		w.stmts(s.Body.List, inner)
		if s.Post != nil {
			w.stmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		w.expr(s.X, held)
		w.stmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.expr(s.Tag, held)
		}
		for _, cl := range s.Body.List {
			w.stmts(cl.(*ast.CaseClause).Body, copyHeld(held))
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range s.Body.List {
			w.stmts(cl.(*ast.CaseClause).Body, copyHeld(held))
		}
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			w.stmts(cl.(*ast.CommClause).Body, copyHeld(held))
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.GoStmt:
		// Arguments evaluate synchronously; the spawned call runs with
		// no inherited locks and its acquisitions are concurrent, not
		// nested, so they stay out of this function's summary.
		for _, a := range s.Call.Args {
			w.expr(a, held)
		}
	case *ast.SendStmt:
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
	case *ast.IncDecStmt:
		w.expr(s.X, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, held)
					}
				}
			}
		}
	}
}

func (w *walker) expr(e ast.Expr, held map[*lockClass]token.Pos) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		ast.Inspect(e, func(n ast.Node) bool {
			if inner, ok := n.(*ast.CallExpr); ok && inner != e {
				w.expr(inner, held)
				return false
			}
			if _, ok := n.(*ast.FuncLit); ok && n != e {
				return false // analyzed as its own function
			}
			return true
		})
		return
	}
	if cl, method, ok := w.mutexCall(call); ok {
		if cl == nil {
			return
		}
		switch method {
		case "Lock", "RLock", "TryLock", "TryRLock":
			for from := range held {
				w.c.edges = append(w.c.edges, edge{from: from, to: cl, pos: call.Pos()})
			}
			w.info.acquires[cl] = true
			held[cl] = call.Pos()
		case "Unlock", "RUnlock":
			delete(held, cl)
		}
		return
	}
	for _, a := range call.Args {
		w.expr(a, held)
	}
	// Static call to an in-module function: record for the
	// inter-procedural fixpoint.
	if callee := w.staticCallee(call); callee != nil {
		w.info.calls = append(w.info.calls, callSite{
			callee:        callee,
			held:          heldList(held),
			pos:           call.Pos(),
			localFuncArgs: w.localFuncArgs(call),
		})
		return
	}
	// Dynamic dispatch through a func value.
	if expr, param, ok := w.dynamicCallee(call); ok {
		if param {
			w.info.invokesCallback = true
		}
		if len(held) > 0 {
			w.info.callbacks = append(w.info.callbacks, callbackSite{
				held: heldList(held),
				pos:  call.Pos(),
				expr: expr,
			})
		}
	}
}

// staticCallee resolves a call to a named function or method.
func (w *walker) staticCallee(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = w.pkg.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = w.pkg.TypesInfo.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	// Map instantiated generic methods back to their declaration.
	return fn.Origin()
}

// localFuncArgs reports whether the call passes at least one
// func-typed argument and every such argument is a function literal
// or a local bound to one. The callee's callback parameters are then
// package code: running them under a lock cannot hand control to the
// package's caller.
func (w *walker) localFuncArgs(call *ast.CallExpr) bool {
	hasFuncArg := false
	for _, a := range call.Args {
		t := w.pkg.TypesInfo.TypeOf(a)
		if t == nil {
			continue
		}
		if _, ok := t.Underlying().(*types.Signature); !ok {
			continue
		}
		hasFuncArg = true
		switch a := a.(type) {
		case *ast.FuncLit:
			// A literal that captures a caller-supplied func param could
			// smuggle the user callback under the lock; only literals
			// touching no func params are local.
			if w.litReferencesParam(a) {
				return false
			}
		case *ast.Ident:
			if obj := w.pkg.TypesInfo.Uses[a]; obj == nil || !w.litBound[obj] {
				return false
			}
		default:
			return false
		}
	}
	return hasFuncArg
}

// litReferencesParam reports whether the literal's body mentions any
// func-typed parameter of the enclosing function.
func (w *walker) litReferencesParam(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !found {
			if obj := w.pkg.TypesInfo.Uses[id]; obj != nil && w.params[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// dynamicCallee reports a call through a caller-supplied func
// parameter (param) or through a func-typed struct field. Locally bound
// literals are package code, not callbacks — see the package comment.
func (w *walker) dynamicCallee(call *ast.CallExpr) (expr string, param, ok bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj, isVar := w.pkg.TypesInfo.Uses[fun].(*types.Var); isVar && w.params[obj] && !w.litBound[obj] {
			return fun.Name, true, true
		}
	case *ast.SelectorExpr:
		if sel, found := w.pkg.TypesInfo.Selections[fun]; found && sel.Kind() == types.FieldVal {
			return types.ExprString(fun), false, true
		}
	}
	return "", false, false
}

// propagate computes each function's transitive may-acquire set and
// callback reachability.
func (c *checker) propagate() {
	for _, info := range c.funcs {
		info.may = map[*lockClass]bool{}
		for cl := range info.acquires {
			info.may[cl] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, info := range c.funcs {
			for _, call := range info.calls {
				callee, ok := c.funcs[call.callee]
				if !ok {
					continue
				}
				for cl := range callee.may {
					if !info.may[cl] {
						info.may[cl] = true
						changed = true
					}
				}
				if callee.invokesCallback && !call.localFuncArgs && !info.invokesCallback {
					info.invokesCallback = true
					changed = true
				}
			}
		}
	}
}

// interEdges adds acquired-while-held edges through calls: f holds A
// and calls g, and g may (transitively) acquire B, so A precedes B.
func (c *checker) interEdges() {
	for _, info := range c.funcs {
		for _, call := range info.calls {
			if len(call.held) == 0 {
				continue
			}
			callee, ok := c.funcs[call.callee]
			if !ok {
				continue
			}
			for to := range callee.may {
				for _, from := range call.held {
					c.edges = append(c.edges, edge{
						from: from, to: to, pos: call.pos,
						note: fmt.Sprintf("via call to %s", call.callee.Name()),
					})
				}
			}
		}
	}
}

func describe(e edge) string {
	suffix := ""
	if e.note != "" {
		suffix = " " + e.note
	}
	return fmt.Sprintf("acquires %s while holding %s%s", e.to.name, e.from.name, suffix)
}

// reportRankViolations checks every edge between ranked classes.
func (c *checker) reportRankViolations() {
	seen := map[string]bool{}
	for _, e := range c.edges {
		if !e.from.ranked || !e.to.ranked {
			continue
		}
		if e.to.rank > e.from.rank {
			continue
		}
		key := fmt.Sprintf("%s→%s@%d", e.from.name, e.to.name, e.pos)
		if seen[key] {
			continue
		}
		seen[key] = true
		c.pass.Reportf(e.pos, "%s: lockrank %d does not increase over %d — violates the declared lock order",
			describe(e), e.to.rank, e.from.rank)
	}
}

// reportCycles finds strongly connected components in the class graph.
func (c *checker) reportCycles() {
	adj := map[*lockClass]map[*lockClass]edge{}
	for _, e := range c.edges {
		if adj[e.from] == nil {
			adj[e.from] = map[*lockClass]edge{}
		}
		if _, ok := adj[e.from][e.to]; !ok {
			adj[e.from][e.to] = e
		}
	}
	// Self-edges: re-acquiring a class already held is a deadlock (or,
	// for stripes of one class, an ordering the striping discipline
	// forbids).
	reported := map[string]bool{}
	for from, tos := range adj {
		if e, ok := tos[from]; ok {
			key := "self:" + from.name
			if !reported[key] {
				reported[key] = true
				c.pass.Reportf(e.pos, "%s — same lock class is already held (self-deadlock or stripe nesting)", describe(e))
			}
		}
	}
	// Tarjan over the class graph for larger cycles.
	index := map[*lockClass]int{}
	low := map[*lockClass]int{}
	onStack := map[*lockClass]bool{}
	var stack []*lockClass
	next := 0
	var strongconnect func(v *lockClass)
	strongconnect = func(v *lockClass) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for wcl := range adj[v] {
			if _, seen := index[wcl]; !seen {
				strongconnect(wcl)
				if low[wcl] < low[v] {
					low[v] = low[wcl]
				}
			} else if onStack[wcl] && index[wcl] < low[v] {
				low[v] = index[wcl]
			}
		}
		if low[v] == index[v] {
			var scc []*lockClass
			for {
				wcl := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[wcl] = false
				scc = append(scc, wcl)
				if wcl == v {
					break
				}
			}
			if len(scc) < 2 {
				return
			}
			names := make([]string, len(scc))
			in := map[*lockClass]bool{}
			for i, cl := range scc {
				names[i] = cl.name
				in[cl] = true
			}
			sort.Strings(names)
			cycle := strings.Join(names, " ⇄ ")
			for _, cl := range scc {
				for to, e := range adj[cl] {
					if !in[to] || cl == to {
						continue
					}
					key := "cycle:" + e.from.name + "→" + e.to.name
					if reported[key] {
						continue
					}
					reported[key] = true
					c.pass.Reportf(e.pos, "%s — completes a lock-order cycle [%s]", describe(e), cycle)
				}
			}
		}
	}
	for v := range adj {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
}

// reportCallbacks flags user code running under ranked locks: direct
// dynamic calls, and static calls into functions that synchronously
// invoke callbacks.
func (c *checker) reportCallbacks() {
	seen := map[token.Pos]bool{}
	for _, info := range c.funcs {
		for _, cb := range info.callbacks {
			for _, cl := range cb.held {
				if !cl.ranked {
					continue
				}
				if seen[cb.pos] {
					break
				}
				seen[cb.pos] = true
				c.pass.Reportf(cb.pos, "calls func value %s while holding %s (lockrank %d): callbacks must not run under ranked locks",
					cb.expr, cl.name, cl.rank)
				break
			}
		}
		for _, call := range info.calls {
			callee, ok := c.funcs[call.callee]
			if !ok || !callee.invokesCallback || call.localFuncArgs {
				continue
			}
			for _, cl := range call.held {
				if !cl.ranked {
					continue
				}
				if seen[call.pos] {
					break
				}
				seen[call.pos] = true
				c.pass.Reportf(call.pos, "call to %s may run a callback while holding %s (lockrank %d): callbacks must not run under ranked locks",
					call.callee.Name(), cl.name, cl.rank)
				break
			}
		}
	}
}
