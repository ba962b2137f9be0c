package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathCheck enforces the 0-alloc contract on annotated hot paths.
// A function whose doc comment carries //lint:hotpath — stage.Enforce,
// the token bucket's TryTake, the sharded counter add path — must not
// allocate, and neither may anything it statically calls. The analyzer
// walks the call graph through the Program's cross-package facts and
// flags the allocation-shaped constructs inside every reached body:
//
//   - composite literals, make, new, append (heap or growth allocation)
//   - map writes and deletes (bucket allocation, write barriers)
//   - function literals that capture variables (closure allocation)
//   - explicit conversions of non-pointer values to interface types
//   - string concatenation
//   - defer and go statements
//   - calls into fmt
//
// It also flags a read of the injected clock (Now on an internal/clock
// type): on the request path a clock read costs more than everything
// around it, so a hot path takes its instants from a caller or reads the
// clock for a sample of its calls only. A read is accepted under a
// sampling guard — inside an if whose condition is a mask test
// (x&m == k), directly or through a bool assigned from one, or in the
// else of its negation (x&m != k) — or with a
// //lint:allow hotpathcheck <reason>.
//
// Traversal stops at functions annotated //lint:coldpath <reason> — the
// deliberate amortized or blocking slow paths (window rolls, queue
// waits). A coldpath annotation without a reason is itself a finding.
// Calls through interfaces and into packages outside the module are
// opaque: the repo's hot paths keep those to the injected clock, whose
// implementations are trusted by design.
var HotPathCheck = &Analyzer{
	Name: "hotpathcheck",
	Doc:  "//lint:hotpath functions and their static callees must not allocate",
	Run:  runHotPathCheck,
}

func runHotPathCheck(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	// Annotation hygiene for every function in this package.
	for _, name := range sortedKeys(pass.Prog.funcIndex[pass.Pkg.Path]) {
		fact := pass.Prog.funcIndex[pass.Pkg.Path][name]
		if fact.ann.coldpath && fact.ann.coldReason == "" {
			pass.Reportf(fact.decl.Pos(),
				"//lint:coldpath on %s has no reason; a justification is mandatory", fact.decl.Name.Name)
		}
		if fact.ann.coldpath && fact.ann.hotpath {
			pass.Reportf(fact.decl.Pos(),
				"%s is annotated both //lint:hotpath and //lint:coldpath; pick one", fact.decl.Name.Name)
		}
	}
	// Walk each hot root's static call graph.
	for _, name := range sortedKeys(pass.Prog.funcIndex[pass.Pkg.Path]) {
		fact := pass.Prog.funcIndex[pass.Pkg.Path][name]
		if !fact.ann.hotpath || fact.ann.coldpath {
			continue
		}
		w := &hotWalker{
			pass:    pass,
			root:    fact.decl.Name.Name,
			visited: make(map[*funcFact]bool),
		}
		w.visit(fact)
	}
}

// hotWalker carries one root's traversal state.
type hotWalker struct {
	pass    *Pass
	root    string
	visited map[*funcFact]bool
}

func (w *hotWalker) visit(fact *funcFact) {
	if w.visited[fact] {
		return
	}
	w.visited[fact] = true
	w.checkBody(fact.pkg, fact.decl.Name.Name, fact.decl.Body)
}

// reportf reports in the file-set coordinates of the package that owns
// the body being checked (which may not be pass.Pkg — hot paths cross
// packages; every loaded package shares the loader's FileSet, so the
// pass's Reportf resolves positions correctly either way).
func (w *hotWalker) reportf(pos token.Pos, format string, args ...interface{}) {
	w.pass.Reportf(pos, format, args...)
}

// checkBody flags allocation-shaped constructs in one function body and
// recurses into static callees.
func (w *hotWalker) checkBody(pkg *Package, fn string, body *ast.BlockStmt) {
	where := func(construct string) string {
		return "hot path (root " + w.root + "): " + construct + " in " + fn
	}
	sampled := sampledRanges(pkg, body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CompositeLit:
			w.reportf(node.Pos(), "%s allocates; hoist it off the hot path or annotate the callee //lint:coldpath", where("composite literal"))
		case *ast.FuncLit:
			if capturesVariables(pkg, node) {
				w.reportf(node.Pos(), "%s allocates a closure; hoist the function or its captured state", where("capturing function literal"))
			}
			return false // literal body runs only if called; not this path
		case *ast.DeferStmt:
			w.reportf(node.Pos(), "%s defers; open-code the cleanup on the hot path", where("defer"))
			return true
		case *ast.GoStmt:
			w.reportf(node.Pos(), "%s spawns a goroutine", where("go statement"))
			return true
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapType(pkg, idx.X) {
					w.reportf(lhs.Pos(), "%s writes a map entry; maps allocate on growth and take write barriers", where("map write"))
				}
			}
		case *ast.BinaryExpr:
			if node.Op == token.ADD && isStringType(pkg, node.X) {
				w.reportf(node.Pos(), "%s allocates the joined string", where("string concatenation"))
			}
		case *ast.CallExpr:
			if isClockNow(pkg, node) && !sampled.contains(node.Pos()) {
				w.reportf(node.Pos(), "%s reads the clock on every call; take the instant from the caller, read it under a sampling guard (if n&mask == k), or //lint:allow hotpathcheck <reason>", where("clock read"))
			}
			w.checkCall(pkg, fn, node, where)
		}
		return true
	})
}

// isClockNow reports whether call is Now on the injected clock: a method
// declared in internal/clock, on the Clock interface or an implementation.
func isClockNow(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Now" {
		return false
	}
	fn, ok := pkg.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "internal/clock")
}

// posRanges is a set of source extents.
type posRanges [][2]token.Pos

func (r posRanges) contains(p token.Pos) bool {
	for _, x := range r {
		if x[0] <= p && p < x[1] {
			return true
		}
	}
	return false
}

// sampledRanges returns the bodies of the sampling guards in body: the
// then-branch of every if whose condition is a mask test x&m == k, or a
// bool variable every assignment to which is one, and the else-branch of
// every if on x&m != k (whose then-branch is the 63 calls in 64).
func sampledRanges(pkg *Package, body *ast.BlockStmt) posRanges {
	// flags maps a bool variable to whether all its assignments so far
	// are mask tests.
	flags := make(map[types.Object]bool)
	note := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := pkg.TypesInfo.ObjectOf(id)
		if obj == nil {
			return
		}
		prev, seen := flags[obj]
		flags[obj] = maskTest(pkg, rhs) == token.EQL && (prev || !seen)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i := range as.Lhs {
				note(as.Lhs[i], as.Rhs[i])
			}
		}
		return true
	})
	var out posRanges
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		cond := ast.Unparen(ifs.Cond)
		op := maskTest(pkg, cond)
		if id, ok := cond.(*ast.Ident); ok && flags[pkg.TypesInfo.ObjectOf(id)] {
			op = token.EQL
		}
		switch {
		case op == token.EQL:
			out = append(out, [2]token.Pos{ifs.Body.Pos(), ifs.Body.End()})
		case op == token.NEQ && ifs.Else != nil:
			out = append(out, [2]token.Pos{ifs.Else.Pos(), ifs.Else.End()})
		}
		return true
	})
	return out
}

// maskTest recognises the 1-in-N idiom, x&m == k with a constant on
// either side of the mask, and its negation x&m != k: it returns the
// comparison's operator, or token.ILLEGAL for any other expression.
func maskTest(pkg *Package, e ast.Expr) token.Token {
	cmp, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || (cmp.Op != token.EQL && cmp.Op != token.NEQ) {
		return token.ILLEGAL
	}
	for _, side := range []ast.Expr{cmp.X, cmp.Y} {
		and, ok := ast.Unparen(side).(*ast.BinaryExpr)
		if !ok || and.Op != token.AND {
			continue
		}
		if pkg.TypesInfo.Types[and.X].Value != nil || pkg.TypesInfo.Types[and.Y].Value != nil {
			return cmp.Op
		}
	}
	return token.ILLEGAL
}

// checkCall classifies one call on the hot path: allocation builtins,
// fmt, conversions to interfaces, and recursion into static callees.
func (w *hotWalker) checkCall(pkg *Package, fn string, call *ast.CallExpr, where func(string) string) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				w.reportf(call.Pos(), "%s may grow its backing array", where("append"))
			case "make":
				w.reportf(call.Pos(), "%s allocates", where("make"))
			case "new":
				w.reportf(call.Pos(), "%s allocates", where("new"))
			case "delete":
				w.reportf(call.Pos(), "%s takes map write barriers", where("delete"))
			}
			return
		}
	}
	// Explicit conversion to an interface type boxes non-pointer values.
	if tv, ok := pkg.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if types.IsInterface(tv.Type) {
			argT := pkg.TypesInfo.Types[call.Args[0]].Type
			if argT != nil && !isPointerLike(argT) {
				w.reportf(call.Pos(), "%s boxes a non-pointer value", where("interface conversion"))
			}
		}
		return
	}
	callee := staticCallee(pkg, call)
	if callee == nil {
		return // indirect or interface call: opaque by design
	}
	if recv := callee.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return // interface method (fmt.Stringer et al.): opaque by design
	}
	if callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		w.reportf(call.Pos(), "%s calls fmt.%s; fmt formats through reflection and allocates", where("fmt call"), callee.Name())
		return
	}
	fact := calleeFact(pkg, w.pass.Prog, call)
	if fact == nil {
		return // stdlib / out-of-module / interface method: opaque
	}
	if fact.ann.coldpath {
		return // deliberate slow path; traversal stops here
	}
	w.visit(fact)
}

// capturesVariables reports whether a function literal references
// variables declared outside its own body (closure allocation). A
// literal that captures nothing compiles to a plain function value.
func capturesVariables(pkg *Package, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := pkg.TypesInfo.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		// Struct fields ride on their receiver; capture is decided by
		// the receiver identifier itself.
		if v.IsField() {
			return true
		}
		// Package-level variables are not captured; locals declared
		// outside the literal's extent are.
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = true
		}
		return true
	})
	return captured
}

// isMapType reports whether the expression has map type.
func isMapType(pkg *Package, expr ast.Expr) bool {
	t := pkg.TypesInfo.Types[expr].Type
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isStringType reports whether the expression has string type.
func isStringType(pkg *Package, expr ast.Expr) bool {
	t := pkg.TypesInfo.Types[expr].Type
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isPointerLike reports types whose interface conversion does not box:
// pointers, channels, maps, funcs, and unsafe pointers.
func isPointerLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	}
	return false
}
