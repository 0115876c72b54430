// Package ctxfirst enforces the Run path's context-plumbing contract: work
// that can block must be cancellable from the outside, which means
// context.Context travels as the first parameter and is never silently
// replaced by context.Background on the way to the engine.
//
// Three rules:
//
//  1. A function with a context.Context parameter takes it first (a leading
//     *testing.T/B/F or testing.TB is tolerated for test helpers).
//  2. An exported production function with no ctx parameter must not bake
//     context.Background()/TODO() into a call: its callers can never cancel
//     the work.
//  3. A production function that already receives a ctx must not hand
//     context.Background()/TODO() to a callee, which would detach that call
//     from cancellation. (Assigning "ctx = context.Background()" to
//     normalize a nil ctx is not a call argument and stays legal.)
//
// Deliberate detachments — e.g. a graceful-shutdown path that must outlive
// the cancelled request context — use "//lint:allow ctxfirst <reason>".
package ctxfirst

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analyzers/analysis"
	"repro/internal/analyzers/astwalk"
)

// New returns the ctxfirst analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "ctxfirst",
		Doc:  "enforces context.Context as first parameter and forbids dropping the caller's ctx for context.Background on the Run path",
		Run:  run,
	}
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		isTest := pass.IsTestFile(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkParamOrder(pass, n.Type)
				if !isTest && n.Body != nil {
					checkBackgroundUse(pass, n)
				}
			case *ast.FuncLit:
				checkParamOrder(pass, n.Type)
			}
			return true
		})
	}
	return nil
}

// checkParamOrder flags a context.Context parameter that is not first
// (ignoring a leading testing.T/B/F/TB, the accepted helper convention).
func checkParamOrder(pass *analysis.Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	var params []types.Type
	var positions []token.Pos
	for _, field := range ft.Params.List {
		t := pass.Info.TypeOf(field.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			params = append(params, t)
			positions = append(positions, field.Pos())
		}
	}
	firstAllowed := 0
	if len(params) > 0 && isTestingParam(params[0]) {
		firstAllowed = 1
	}
	for i, t := range params {
		if isContext(t) && i > firstAllowed {
			pass.Reportf(positions[i], "context.Context is parameter %d; the Run path takes ctx first so call chains thread it uniformly", i+1)
			return
		}
	}
}

// checkBackgroundUse applies rules 2 and 3 to one declared function.
func checkBackgroundUse(pass *analysis.Pass, fn *ast.FuncDecl) {
	hasCtx := funcHasCtxParam(pass.Info, fn.Type)
	if !hasCtx && !fn.Name.IsExported() {
		return
	}
	astwalk.WithStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isBackgroundOrTODO(pass.Info, call) {
			return true
		}
		if hasCtx {
			// Only flag the fresh context when it is fed straight into
			// another call; "ctx = context.Background()" nil-normalization
			// is legal and stays an assignment, not a call argument.
			if !isCallArgument(call, stack) {
				return true
			}
			pass.Reportf(call.Pos(), "%s already receives a ctx but hands %s to a callee, detaching it from cancellation; pass the caller's ctx (or //lint:allow ctxfirst <reason> for deliberate detachment)", fn.Name.Name, callName(call))
		} else {
			pass.Reportf(call.Pos(), "exported %s bakes %s in, so callers can never cancel the work; take ctx context.Context as the first parameter", fn.Name.Name, callName(call))
		}
		return true
	})
}

func isCallArgument(call *ast.CallExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	parent, ok := stack[len(stack)-1].(*ast.CallExpr)
	if !ok {
		return false
	}
	for _, arg := range parent.Args {
		if ast.Unparen(arg) == call {
			return true
		}
	}
	return false
}

func funcHasCtxParam(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if isContext(info.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

func isContext(t types.Type) bool {
	return astwalk.NamedFromPackage(t, "Context", "context")
}

func isTestingParam(t types.Type) bool {
	for _, name := range []string{"T", "B", "F", "TB"} {
		if astwalk.NamedFromPackage(t, name, "testing") {
			return true
		}
	}
	return false
}

func isBackgroundOrTODO(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return false
	}
	obj := info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func callName(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return "context." + sel.Sel.Name + "()"
	}
	return "context.Background()"
}
