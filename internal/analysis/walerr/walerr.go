// Package walerr defines an analyzer enforcing the sticky-error contract of
// the durability layer (PR 2): the error results of WAL append/commit/replay
// and the engine's durable-write entry points carry the "durability has
// degraded" signal, and discarding one severs the chain that makes the
// engine's DurabilityStats().Err sticky and the server's /stats honest. A
// discarded error here is not sloppiness, it is a silent-data-loss bug.
//
// Discarding covers the shapes lintutil.Discards finds: the call as a bare
// statement, `_ =` assignment of the error position, and `go`/`defer` of the
// call (the error is unobservable).
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
Deliberate discards use //lint:allowdiscard <reason>.`

// funcs lists the repo's durability entry points.
const funcs = "internal/wal.Log.Append," +
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

func run(pass *analysis.Pass) (interface{}, error) {
	ws := lintutil.ParseFuncPatterns(funcs)
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

	lintutil.Discards(ins, match, report)
	return nil, nil
}
