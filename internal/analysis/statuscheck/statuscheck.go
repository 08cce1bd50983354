// Package statuscheck defines an analyzer enforcing the wire protocol's
// typed error contract (PR 7): the client maps every non-OK status to a
// typed sentinel (ErrTimeout, ErrPoisoned, ErrNotPrimary, ErrSnapExpired,
// ErrShipGap, ErrBusy), and the failover, retry, and poisoned-connection
// machinery all dispatch on errors.Is against them. Two caller mistakes
// break that machinery silently:
//
//   - discarding the error of a wire-client call (bare statement, `_ =`,
//     go/defer): a missed ErrPoisoned leaves a desynced connection in use,
//     a missed ErrNotPrimary retries the wrong node forever;
//   - matching on err.Error() text (== comparison or strings.Contains and
//     friends): the rendered text is not the contract, the sentinel is —
//     text matching breaks the moment a message is reworded and ignores
//     wrapping.
//
// The watched client types are the repo's wire client and cluster router.
// Every method on them whose last result is an error is covered,
// except Close (shutdown-path errors are advisory). The err.Error() text
// check applies to all analyzed code. Audited exceptions use
// //lint:allowstatus <reason>.
package statuscheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"iomodels/internal/analysis/lintutil"
)

const doc = `require handling the wire client's typed error contract

Errors from the wire client and router carry typed sentinels the failover
and poisoned-connection machinery dispatch on; discarding them or matching
on err.Error() text breaks that contract. Audited exceptions use
//lint:allowstatus <reason>.`

// watched names the wire client and the cluster router (pkg.Type entries).
const watched = "internal/server.Client,internal/cluster.Router"

var Analyzer = &analysis.Analyzer{
	Name:     "statuscheck",
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	ws := lintutil.ParseFuncPatterns(watched) // pkg.Type entries: Name is the type
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	info := pass.TypesInfo

	report := func(pos token.Pos, format string, args ...interface{}) {
		if lintutil.IsTestFile(pass.Fset, pos) {
			return
		}
		if reason, ok := lintutil.Directive(pass.Fset, pass.Files, pos, "allowstatus"); ok && reason != "" {
			return
		} else if ok {
			pass.Reportf(pos, "//lint:allowstatus needs a reason")
			return
		}
		pass.Reportf(pos, format, args...)
	}

	// match resolves call to a watched client method whose last result is
	// an error; Close is excluded (shutdown errors are advisory, not
	// protocol statuses).
	match := func(call *ast.CallExpr) *types.Func {
		fn := lintutil.Callee(info, call)
		if fn == nil || fn.Name() == "Close" || fn.Pkg() == nil {
			return nil
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || sig.Results().Len() == 0 {
			return nil
		}
		last := sig.Results().At(sig.Results().Len() - 1).Type()
		if !types.Identical(last, types.Universe.Lookup("error").Type()) {
			return nil
		}
		named := lintutil.RecvNamed(fn)
		if named == nil || named.Obj().Pkg() == nil {
			return nil
		}
		for _, w := range ws {
			if named.Obj().Name() == w.Name && lintutil.PkgMatch(w.Pkg, named.Obj().Pkg().Path()) {
				return fn
			}
		}
		return nil
	}

	reportDiscard := func(call *ast.CallExpr, fn *types.Func, how string) {
		report(call.Pos(), "error from %s.%s %s; the typed protocol contract (ErrTimeout, ErrPoisoned, ErrNotPrimary, ...) requires handling it",
			recvName(fn), fn.Name(), how)
	}

	// Discard shapes, walerr's taxonomy.
	lintutil.Discards(ins, match, reportDiscard)

	// err.Error() text matching: comparison against a string, or passed to
	// a strings predicate. (Printing the text is fine; dispatching on it is
	// not.)
	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		call := n.(*ast.CallExpr)
		if !isErrorError(info, call) || len(stack) < 2 {
			return true
		}
		switch parent := stack[len(stack)-2].(type) {
		case *ast.BinaryExpr:
			if parent.Op == token.EQL || parent.Op == token.NEQ {
				report(call.Pos(), "dispatching on err.Error() text; use errors.Is with the typed protocol sentinels instead")
			}
		case *ast.CallExpr:
			if fn := lintutil.Callee(info, parent); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "strings" && stringsPredicates[fn.Name()] {
				report(call.Pos(), "dispatching on err.Error() text via strings.%s; use errors.Is with the typed protocol sentinels instead", fn.Name())
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

func recvName(fn *types.Func) string {
	if named := lintutil.RecvNamed(fn); named != nil {
		return named.Obj().Name()
	}
	return "client"
}
