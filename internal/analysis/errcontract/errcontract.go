// Package errcontract defines an analyzer for the two error contracts
// whose errors callers must not drop.
//
// The durability layer's sticky-error contract: the error results of
// WAL append/commit/replay and the engine's durable-write entry points
// carry the "durability has degraded" signal, and discarding one severs
// the chain that makes the engine's DurabilityStats().Err sticky and the
// server's /stats honest. A discarded error here is not sloppiness, it is
// a silent-data-loss bug. A deliberate discard documents itself with
// //lint:allowdiscard <reason>.
//
// The wire protocol's typed error contract: the client maps every
// non-OK status to a typed sentinel (ErrTimeout, ErrPoisoned,
// ErrNotPrimary, ErrSnapExpired, ErrShipGap, ErrBusy), and the failover,
// retry, and poisoned-connection machinery all dispatch on errors.Is
// against them. Two caller mistakes break that machinery silently:
//
//   - discarding the error of a wire-client call: a missed ErrPoisoned
//     leaves a desynced connection in use, a missed ErrNotPrimary retries
//     the wrong node forever;
//   - matching on err.Error() text (== comparison or strings.Contains and
//     friends): the rendered text is not the contract, the sentinel is —
//     text matching breaks the moment a message is reworded and ignores
//     wrapping.
//
// The watched client types are the repo's wire client and cluster router.
// Every method on them whose last result is an error is covered, except
// Close (shutdown-path errors are advisory). The err.Error() text check
// applies to all analyzed code. Neither wire-client check has an escape
// hatch.
//
// Discarding covers the shapes lintutil.Discards finds: the call as a bare
// statement, `_ =` assignment of the error position, and `go`/`defer` of the
// call (the error is unobservable).
package errcontract

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"iomodels/internal/analysis/lintutil"
)

const doc = `forbid discarding durable-write and wire-client errors

The sticky-error degradation contract depends on WAL and engine
durable-write errors propagating; deliberate discards use
//lint:allowdiscard <reason>. Errors from the wire client and router carry
typed sentinels the failover and poisoned-connection machinery dispatch on;
discarding them or matching on err.Error() text breaks that contract.`

// durableFuncs lists the repo's durability entry points.
const durableFuncs = "internal/wal.Log.Append," +
	"internal/wal.Log.Commit," +
	"internal/wal.Log.Replay," +
	"internal/engine.Engine.Sync," +
	"internal/engine.Engine.Checkpoint," +
	"internal/engine.Engine.EnableDurability," +
	"internal/engine.Engine.ApplyBatch," +
	"internal/engine.Engine.ApplyBatchNoSync," +
	"internal/engine.Engine.CommitPending," +
	"internal/engine.Recovery.Replay"

// clientTypes names the wire client and the cluster router (pkg.Type
// entries: each parses as a pattern whose Name is the type).
const clientTypes = "internal/server.Client,internal/cluster.Router"

var Analyzer = &analysis.Analyzer{
	Name:     "errcontract",
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	durable, clients := lintutil.ParseFuncPatterns(durableFuncs), lintutil.ParseFuncPatterns(clientTypes)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	info := pass.TypesInfo
	errType := types.Universe.Lookup("error").Type()

	isDurable := func(fn *types.Func) bool {
		return slices.ContainsFunc(durable, func(p lintutil.FuncPattern) bool { return p.Matches(fn) })
	}
	// isClient: a watched client method whose last result is an error,
	// other than Close.
	isClient := func(fn *types.Func) bool {
		sig := fn.Type().(*types.Signature)
		named := lintutil.RecvNamed(fn)
		if fn.Name() == "Close" || named == nil || named.Obj().Pkg() == nil || sig.Results().Len() == 0 ||
			!types.Identical(sig.Results().At(sig.Results().Len()-1).Type(), errType) {
			return false
		}
		return slices.ContainsFunc(clients, func(p lintutil.FuncPattern) bool {
			return named.Obj().Name() == p.Name && lintutil.PkgMatch(p.Pkg, named.Obj().Pkg().Path())
		})
	}
	match := func(call *ast.CallExpr) *types.Func {
		if fn := lintutil.Callee(info, call); fn != nil && (isDurable(fn) || isClient(fn)) {
			return fn
		}
		return nil
	}
	lintutil.Discards(ins, match, func(call *ast.CallExpr, fn *types.Func, how string) {
		if isDurable(fn) {
			lintutil.Report(pass, call.Pos(), "allowdiscard", "error from %s %s; the durability degradation contract requires propagating it", fn.Name(), how)
			return
		}
		lintutil.Report(pass, call.Pos(), "", "error from %s.%s %s; the typed protocol contract (ErrTimeout, ErrPoisoned, ErrNotPrimary, ...) requires handling it",
			lintutil.RecvNamed(fn).Obj().Name(), fn.Name(), how)
	})

	// err.Error() text matching: comparison against a string, or passed to
	// a strings predicate. (Printing the text is fine; dispatching on it is
	// not.)
	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		call := n.(*ast.CallExpr)
		if !push || !isErrorError(info, call) || len(stack) < 2 {
			return true
		}
		switch parent := stack[len(stack)-2].(type) {
		case *ast.BinaryExpr:
			if parent.Op == token.EQL || parent.Op == token.NEQ {
				lintutil.Report(pass, call.Pos(), "", "dispatching on err.Error() text; use errors.Is with the typed protocol sentinels instead")
			}
		case *ast.CallExpr:
			if fn := lintutil.Callee(info, parent); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "strings" && stringsPredicates[fn.Name()] {
				lintutil.Report(pass, call.Pos(), "", "dispatching on err.Error() text via strings.%s; use errors.Is with the typed protocol sentinels instead", fn.Name())
			}
		}
		return true
	})
	return nil, nil
}

var stringsPredicates = map[string]bool{
	"Contains": true, "HasPrefix": true, "HasSuffix": true,
	"EqualFold": true, "Index": true, "LastIndex": true,
}

// isErrorError reports whether call is x.Error() on an error value.
func isErrorError(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" || len(call.Args) != 0 {
		return false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	errType, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return ok && types.Implements(t, errType)
}
