package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ClockCheck enforces PADLL's determinism invariant: outside the clock
// package itself, time never comes from the time package directly — it is
// read from an injected clock.Clock, so the same code runs unchanged
// against the wall clock and against internal/clock's simulated clock.
// Every way to wait on the time package is banned, and so is time.Since,
// which is wall-clock Now in disguise.
var ClockCheck = &Analyzer{
	Name: "clockcheck",
	Doc:  "direct time.Now/Sleep/Since and timer calls bypass the injected clock.Clock",
	Run:  runClockCheck,
}

// bannedTimeFuncs maps banned time-package functions to the clock.Clock
// replacement named in the diagnostic.
var bannedTimeFuncs = map[string]string{
	"Now":       "clock.Clock.Now()",
	"Sleep":     "clock.Clock.Sleep()",
	"After":     "clock.Clock.NewFuncTimer()",
	"NewTimer":  "clock.Clock.NewFuncTimer()",
	"AfterFunc": "clock.Clock.NewFuncTimer()",
	"NewTicker": "clock.Clock.NewFuncTimer()",
	"Tick":      "clock.Clock.NewFuncTimer()",
	"Since":     "clock.Clock.Now().Sub(t)",
}

func runClockCheck(pass *Pass) {
	// The clock package is the one place allowed to touch the time
	// package: it is where the wall clock is wrapped.
	if strings.HasSuffix(pass.Pkg.Path, "internal/clock") {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			replacement, banned := bannedTimeFuncs[sel.Sel.Name]
			if !banned {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.Pkg.TypesInfo.Uses[ident].(*types.PkgName)
			if !ok || pkgName.Imported().Path() != "time" {
				return true
			}
			pass.Reportf(call.Pos(),
				"direct time.%s call; use the injected %s so simulated-clock runs stay deterministic (or //lint:allow clockcheck <reason>)",
				sel.Sel.Name, replacement)
			return true
		})
	}
}
