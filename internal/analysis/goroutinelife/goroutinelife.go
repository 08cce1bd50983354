// Package goroutinelife defines an analyzer requiring every goroutine
// spawned in the serving path to have a provable exit signal. A shipper, a
// scheduler loop, or a connection handler that nothing can stop outlives
// shutdown and failover: the test binary hangs, the replica keeps a stale
// dial alive, the conn table pins memory. The cure is structural — a
// goroutine's loop must wait on something the outside world can close.
//
// The check: a goroutine whose body contains an unconditional `for` loop
// (or a range over a channel) must also contain one of
//
//   - a receive, select clause, or range over a channel that originates
//     outside the goroutine (a captured done/stop channel, a field like
//     s.writeCh, ctx.Done());
//   - a sync.WaitGroup.Done call (its lifecycle is tracked by a waiter);
//   - a Read/Accept-style call on a value whose type has Close (reads on a
//     net.Conn or net.Listener fail when it is closed — the idiomatic
//     connection-handler exit), or a parameter of such a type.
//
// Goroutines without unbounded loops terminate on their own and pass. The
// check is scoped (-goroutinelife.scope) to the packages whose goroutines
// hold resources: server, cluster, engine. Audited exceptions use
// //lint:allowleak <reason>.
package goroutinelife

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"iomodels/internal/analysis/lintutil"
)

const doc = `require a provable exit signal for serving-path goroutines

A goroutine with an unbounded loop must wait on an external channel, be
tracked by a WaitGroup, or read from a closable connection, so shutdown and
failover cannot leak it. Audited exceptions use //lint:allowleak <reason>.`

// DefaultScope: the packages whose goroutines hold connections, WAL tails,
// and scheduler state.
const DefaultScope = "internal/server,internal/cluster,internal/engine"

var Analyzer = &analysis.Analyzer{
	Name:     "goroutinelife",
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var scopeFlag string

func init() {
	Analyzer.Flags.StringVar(&scopeFlag, "scope", DefaultScope,
		"comma-separated package patterns whose goroutines are checked")
}

var readish = map[string]bool{
	"Read": true, "ReadFrom": true, "ReadByte": true, "ReadString": true,
	"ReadBytes": true, "ReadSlice": true, "ReadLine": true, "ReadRune": true,
	"ReadFull": true, "Accept": true, "AcceptTCP": true, "Recv": true,
	"RecvMsg": true, "Scan": true, "Next": true, "Peek": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	scope := lintutil.ParseScope(scopeFlag)
	if !scope.ContainsPkg(pass.Pkg.Path()) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	// Bodies of named functions, for `go s.loop()` style spawns.
	bodies := map[*types.Func]*ast.FuncDecl{}
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if decl.Body == nil {
			return
		}
		if fn, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func); ok {
			bodies[fn] = decl
		}
	})

	ins.Preorder([]ast.Node{(*ast.GoStmt)(nil)}, func(n ast.Node) {
		gs := n.(*ast.GoStmt)
		if lintutil.IsTestFile(pass.Fset, gs.Pos()) {
			return
		}
		var body *ast.BlockStmt
		var ftype *ast.FuncType
		switch fun := ast.Unparen(gs.Call.Fun).(type) {
		case *ast.FuncLit:
			body, ftype = fun.Body, fun.Type
		default:
			fn := lintutil.Callee(pass.TypesInfo, gs.Call)
			if fn == nil {
				return // function value: nothing to inspect, stay quiet
			}
			decl, ok := bodies[fn]
			if !ok {
				return // other package: its own analysis covers it
			}
			body, ftype = decl.Body, decl.Type
			if decl.Recv != nil && closableParam(pass, decl.Recv) {
				return
			}
		}
		if !hasUnboundedLoop(pass, body) {
			return // runs to completion on its own
		}
		if hasExitSignal(pass, body) || closableParam(pass, ftype.Params) {
			return
		}
		if reason, ok := lintutil.Directive(pass.Fset, pass.Files, gs.Pos(), "allowleak"); ok && reason != "" {
			return
		} else if ok {
			pass.Reportf(gs.Pos(), "//lint:allowleak needs a reason")
			return
		}
		pass.Reportf(gs.Pos(), "goroutine has no provable exit signal (external channel, WaitGroup.Done, or closable-connection read); shutdown can leak it")
	})
	return nil, nil
}

// hasUnboundedLoop reports whether body contains `for { ... }` or a range
// over a channel, outside nested function literals and go statements.
func hasUnboundedLoop(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.ForStmt:
			if n.Cond == nil {
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// hasExitSignal reports whether body waits on something external: an
// external channel receive/select/range, a WaitGroup.Done, or a read on a
// closable value. Nested literals (deferred cleanups) are searched too —
// generosity here avoids false positives; a missed leak still has the
// hatch.
func hasExitSignal(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && externalRef(pass, n.X, body) {
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok && externalRef(pass, n.X, body) {
					found = true
				}
			}
		case *ast.SelectStmt:
			for _, cc := range n.Body.List {
				if comm := cc.(*ast.CommClause).Comm; comm != nil && externalRef(pass, comm, body) {
					found = true
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn := lintutil.Callee(pass.TypesInfo, n)
			if fn == nil {
				return true
			}
			if fn.Name() == "Done" && recvIsWaitGroup(fn) {
				found = true
				return false
			}
			if readish[fn.Name()] && hasClose(pass.TypesInfo.TypeOf(sel.X)) {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

// externalRef reports whether expr (or any node under it) references a
// variable declared outside the goroutine body: a captured channel, a
// field, or a parameter — something the outside world can reach to signal.
func externalRef(pass *analysis.Pass, expr ast.Node, body *ast.BlockStmt) bool {
	external := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if external {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
			if v.Pos() < body.Pos() || v.Pos() > body.End() {
				external = true
			}
		}
		return !external
	})
	return external
}

func recvIsWaitGroup(fn *types.Func) bool {
	named := lintutil.RecvNamed(fn)
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}

// hasClose reports whether t's method set (value or pointer) has a Close
// method — the shape of a connection or listener whose reads unblock when
// another goroutine closes it.
func hasClose(t types.Type) bool {
	if t == nil {
		return false
	}
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(typ)
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == "Close" {
				return true
			}
		}
	}
	return false
}

// closableParam reports whether any field in the list (parameters or a
// receiver) is a closable reader — a net.Conn-shaped value whose closure is
// the exit signal.
func closableParam(pass *analysis.Pass, fields *ast.FieldList) bool {
	if fields == nil {
		return false
	}
	for _, f := range fields.List {
		t := pass.TypesInfo.TypeOf(f.Type)
		if t == nil || !hasClose(t) {
			continue
		}
		ms := types.NewMethodSet(t)
		for i := 0; i < ms.Len(); i++ {
			if readish[ms.At(i).Obj().Name()] {
				return true
			}
		}
	}
	return false
}
