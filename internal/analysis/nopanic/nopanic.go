// Package nopanic defines an analyzer enforcing the durability layer's
// degradation contract (PR 2): code on the durability path must surface
// failures as errors — sticky in the engine — never as panics, so
// availability survives degraded durability. The compiler cannot see this
// contract; ci/check.sh used to approximate it with a grep.
//
// Components that panic by design (the fault injector models power loss by
// unwinding the stack) opt out per call site with a reasoned directive:
//
//	//lint:allowpanic models power loss; recovered by the crash harness
//	panic(&CrashError{...})
//
// A bare //lint:allowpanic with no reason is itself diagnosed: the escape
// hatch exists to document intent, not to silence the analyzer.
package nopanic

import (
	"go/ast"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"iomodels/internal/analysis/lintutil"
)

const doc = `forbid panic() on the durability path

The WAL and the engine's durability/recovery files must degrade via errors
(sticky in the engine) rather than panic; see DESIGN.md "Degradation
contract". Deliberate panics need a reasoned //lint:allowpanic
directive.`

// durabilityPath names the durability path: all of internal/wal, plus the
// engine files that implement logging, checkpointing and recovery.
const durabilityPath = "internal/wal,internal/engine:durability.go,internal/engine:recover.go"

var Analyzer = &analysis.Analyzer{
	Name:     "nopanic",
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	scope := lintutil.ParseScope(durabilityPath)
	if !scope.ContainsPkg(pass.Pkg.Path()) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		if !lintutil.IsBuiltin(pass.TypesInfo, call, "panic") {
			return
		}
		if !scope.Contains(pass.Pkg.Path(), lintutil.FileBase(pass.Fset, call.Pos())) {
			return
		}
		lintutil.Report(pass, call.Pos(), "allowpanic", "panic on the durability path; return an error (or annotate //lint:allowpanic <reason>)")
	})
	return nil, nil
}
