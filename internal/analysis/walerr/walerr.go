// Package walerr defines an analyzer enforcing the sticky-error contract of
// the durability layer (PR 2): the error results of WAL append/commit/replay
// and the engine's durable-write entry points carry the "durability has
// degraded" signal, and discarding one severs the chain that makes the
// engine's DurabilityStats().Err sticky and the server's /stats honest. A
// discarded error here is not sloppiness, it is a silent-data-loss bug.
//
// Discarding covers: the call as a bare statement, `_ =` assignment of the
// error position, and `go`/`defer` of the call (the error is unobservable).
// A deliberate discard documents itself with `//lint:allowdiscard <reason>`.
package walerr

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"iomodels/internal/analysis/lintutil"
)

const doc = `forbid discarding errors from WAL and engine durable-write calls

The sticky-error degradation contract depends on these errors propagating.
Configure the watched functions with -walerr.funcs (pkg.Type.Method or
pkg.Func entries); deliberate discards use //lint:allowdiscard <reason>.`

// DefaultFuncs lists the repo's durability entry points.
const DefaultFuncs = "internal/wal.Log.Append," +
	"internal/wal.Log.Commit," +
	"internal/wal.Log.Replay," +
	"internal/engine.Engine.Sync," +
	"internal/engine.Engine.Checkpoint," +
	"internal/engine.Engine.EnableDurability," +
	"internal/engine.Engine.ApplyBatch," +
	"internal/engine.Engine.ApplyBatchNoSync," +
	"internal/engine.Engine.CommitPending," +
	"internal/engine.Recovery.Replay"

var Analyzer = &analysis.Analyzer{
	Name:     "walerr",
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var funcsFlag string

func init() {
	Analyzer.Flags.StringVar(&funcsFlag, "funcs", DefaultFuncs,
		"comma-separated pkg.Type.Method or pkg.Func durability entry points")
}

func run(pass *analysis.Pass) (interface{}, error) {
	ws := lintutil.ParseFuncPatterns(funcsFlag)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	match := func(call *ast.CallExpr) *types.Func {
		fn := lintutil.Callee(pass.TypesInfo, call)
		if fn == nil {
			return nil
		}
		for _, w := range ws {
			if w.Matches(fn) {
				return fn
			}
		}
		return nil
	}

	report := func(call *ast.CallExpr, fn *types.Func, how string) {
		if lintutil.IsTestFile(pass.Fset, call.Pos()) {
			return
		}
		if reason, ok := lintutil.Directive(pass.Fset, pass.Files, call.Pos(), "allowdiscard"); ok && reason != "" {
			return
		} else if ok {
			pass.Reportf(call.Pos(), "//lint:allowdiscard needs a reason")
			return
		}
		pass.Reportf(call.Pos(), "error from %s %s; the durability degradation contract requires propagating it", fn.Name(), how)
	}

	nodeFilter := []ast.Node{
		(*ast.ExprStmt)(nil),
		(*ast.AssignStmt)(nil),
		(*ast.GoStmt)(nil),
		(*ast.DeferStmt)(nil),
	}
	ins.Preorder(nodeFilter, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if fn := match(call); fn != nil {
					report(call, fn, "discarded")
				}
			}
		case *ast.GoStmt:
			if fn := match(st.Call); fn != nil {
				report(st.Call, fn, "unobservable in go statement")
			}
		case *ast.DeferStmt:
			if fn := match(st.Call); fn != nil {
				report(st.Call, fn, "unobservable in defer")
			}
		case *ast.AssignStmt:
			// f() as the sole RHS: the error is the last LHS position.
			if len(st.Rhs) == 1 {
				if call, ok := st.Rhs[0].(*ast.CallExpr); ok {
					if fn := match(call); fn != nil && len(st.Lhs) > 0 {
						if isBlank(st.Lhs[len(st.Lhs)-1]) {
							report(call, fn, "assigned to _")
						}
					}
					return
				}
			}
			// Parallel assignment a, b = f(), g(): single-valued calls line
			// up 1:1 with the LHS.
			if len(st.Lhs) == len(st.Rhs) {
				for i, rhs := range st.Rhs {
					if call, ok := rhs.(*ast.CallExpr); ok {
						if fn := match(call); fn != nil && isBlank(st.Lhs[i]) {
							report(call, fn, "assigned to _")
						}
					}
				}
			}
		}
	})
	return nil, nil
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
