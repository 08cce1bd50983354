// Package virtualtime defines an analyzer keeping wall-clock time out of
// the simulation and cost-model packages. The device simulators, the DAM/
// affine/PDAM cost models, and the regression fits are deterministic
// functions of virtual time (sim.Time); a stray time.Now would make results
// depend on host scheduling and silently break the byte-identical tables
// the experiment harnesses promise. Real-time code (the server's wall-clock
// latency metrics and shutdown grace window) lives outside the scope; if a
// scoped package ever earns a legitimate exception it documents it in place
// with `//lint:allowrealtime <reason>`.
package virtualtime

import (
	"go/ast"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"iomodels/internal/analysis/lintutil"
)

const doc = `forbid wall-clock time in simulation and cost-model packages

Simulated components advance sim.Time only; time.Now/Since/Sleep/AfterFunc
there make experiment output host-dependent. Configure with -virtualtime.scope and
-virtualtime.funcs; exceptional call sites use //lint:allowrealtime <reason>.`

// Defaults: the simulator core, the device models, the cost-model root
// package, the parameter-fitting package, and the server's read scheduler —
// the one file of a real-time package that decides virtual start instants.
const (
	DefaultScope = "iomodels,internal/sim,internal/pdamdev,internal/hdd,internal/ssd,internal/mqssd,internal/fit,internal/server:scheduler.go"
	DefaultFuncs = "Now,Since,Sleep,AfterFunc"
)

var Analyzer = &analysis.Analyzer{
	Name:     "virtualtime",
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var (
	scopeFlag string
	funcsFlag string
)

func init() {
	Analyzer.Flags.StringVar(&scopeFlag, "scope", DefaultScope,
		"comma-separated pkg[:file.go] list of virtual-time-only packages")
	Analyzer.Flags.StringVar(&funcsFlag, "funcs", DefaultFuncs,
		"comma-separated time.* functions to forbid in scope")
}

func run(pass *analysis.Pass) (interface{}, error) {
	scope := lintutil.ParseScope(scopeFlag)
	if !scope.ContainsPkg(pass.Pkg.Path()) {
		return nil, nil
	}
	banned := map[string]bool{}
	for _, f := range strings.Split(funcsFlag, ",") {
		if f = strings.TrimSpace(f); f != "" {
			banned[f] = true
		}
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		fn := lintutil.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !banned[fn.Name()] {
			return
		}
		if lintutil.IsTestFile(pass.Fset, call.Pos()) {
			return
		}
		if !scope.Contains(pass.Pkg.Path(), lintutil.FileBase(pass.Fset, call.Pos())) {
			return
		}
		if reason, ok := lintutil.Directive(pass.Fset, pass.Files, call.Pos(), "allowrealtime"); ok && reason != "" {
			return
		} else if ok {
			pass.Reportf(call.Pos(), "//lint:allowrealtime needs a reason")
			return
		}
		pass.Reportf(call.Pos(), "wall-clock time.%s in simulation/model code; use the virtual clock (sim.Time)", fn.Name())
	})
	return nil, nil
}
