package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop flags silently discarded error returns on the call surfaces
// where PADLL has been bitten before: posix.FileSystem.Apply (every
// dropped error there is a lost I/O failure), io.Closer-shaped Close
// methods, and the rpcio conn layer (a dropped RPC error desynchronizes
// the control plane from its stages). Deferred Close on *os.File is also
// flagged: write errors surface at close time, so `defer f.Close()` on an
// output file throws them away. Assigning to the blank identifier
// (`_ = f.Close()`) is accepted as an explicit, visible decision.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "discarded errors from posix.FileSystem, Close() and the rpcio conn layer",
	Run:  runErrDrop,
}

func runErrDrop(pass *Pass) {
	fsIface := lookupFileSystemInterface(pass.Pkg)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok {
					checkDroppedCall(pass, call, fsIface, false)
				}
			case *ast.GoStmt:
				checkDroppedCall(pass, stmt.Call, fsIface, false)
			case *ast.DeferStmt:
				checkDroppedCall(pass, stmt.Call, fsIface, true)
			}
			return true
		})
	}
}

// checkDroppedCall reports the call if it discards an error from one of
// the guarded surfaces. Deferred calls are only reported for *os.File
// Close (flush-on-close errors); deferring other Closes on shutdown paths
// is accepted idiom.
func checkDroppedCall(pass *Pass, call *ast.CallExpr, fsIface *types.Interface, deferred bool) {
	fn := calleeOf(pass, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !resultsIncludeError(sig) {
		return
	}
	switch {
	case deferred:
		if isNiladicClose(fn, sig) && receiverIsOSFile(sig) {
			pass.Reportf(call.Pos(),
				"deferred %s.Close() discards the error; write errors surface at close time — close explicitly and check (or `_ =` it deliberately)",
				shortTypeString(pass, sig.Recv().Type()))
		}
	case isNiladicClose(fn, sig):
		pass.Reportf(call.Pos(),
			"%s.Close() error discarded; handle it or assign to _ explicitly",
			shortTypeString(pass, sig.Recv().Type()))
	case fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "internal/rpcio"):
		pass.Reportf(call.Pos(),
			"rpcio.%s error discarded; a dropped RPC error desynchronizes the control plane from its stages",
			fn.Name())
	case fsIface != nil && isFileSystemApply(fn, sig, fsIface):
		pass.Reportf(call.Pos(),
			"posix.FileSystem Apply error discarded; every dropped error is a lost I/O failure")
	}
}

// calleeOf resolves the called function or method, or nil for indirect
// calls through function values.
func calleeOf(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		fn, _ := pass.Pkg.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := pass.Pkg.TypesInfo.Uses[fun].(*types.Func)
		return fn
	}
	return nil
}

// shortTypeString renders a type with bare package names ("rpcio.
// StageHandle", not the full import path), dropping the current package's
// qualifier entirely.
func shortTypeString(pass *Pass, t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string {
		if p == pass.Pkg.Types {
			return ""
		}
		return p.Name()
	})
}

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type()

func resultsIncludeError(sig *types.Signature) bool {
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), errorType) {
			return true
		}
	}
	return false
}

// isNiladicClose matches the io.Closer shape: method Close() error.
func isNiladicClose(fn *types.Func, sig *types.Signature) bool {
	return fn.Name() == "Close" && sig.Recv() != nil &&
		sig.Params().Len() == 0 && sig.Results().Len() == 1
}

func receiverIsOSFile(sig *types.Signature) bool {
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "os" && named.Obj().Name() == "File"
}

// isFileSystemApply matches Apply methods on types implementing
// posix.FileSystem.
func isFileSystemApply(fn *types.Func, sig *types.Signature, iface *types.Interface) bool {
	if fn.Name() != "Apply" || sig.Recv() == nil {
		return false
	}
	return types.Implements(sig.Recv().Type(), iface) ||
		types.Implements(types.NewPointer(sig.Recv().Type()), iface)
}

// lookupFileSystemInterface finds posix.FileSystem in the package's
// import graph (or in the package itself), nil when out of reach.
func lookupFileSystemInterface(pkg *Package) *types.Interface {
	candidates := append([]*types.Package{pkg.Types}, pkg.Types.Imports()...)
	for _, p := range candidates {
		if !strings.HasSuffix(p.Path(), "internal/posix") {
			continue
		}
		obj := p.Scope().Lookup("FileSystem")
		if obj == nil {
			continue
		}
		if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
			return iface
		}
	}
	return nil
}
