// Package enginebypass defines an analyzer that keeps the PR-1 layering
// honest: the storage byte stores and the device simulators are owned by the
// engine, and everything above it — trees, server, experiment harnesses —
// reaches bytes only through engine.Client (Read/WriteAt/Handover/Meter on
// the shared pager). A direct storage.Store.Read or Device.Access call from a
// tree would bypass the cache, the per-client clocks, and the IO accounting
// that every experiment's numbers depend on.
//
// The analyzer bans a set of method names on the IO-layer packages, from
// everywhere except the engine layer itself and _test.go files.
package enginebypass

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"iomodels/internal/analysis/lintutil"
)

const doc = `forbid direct storage/device IO outside the engine layer

Trees, the server, and experiment harnesses must reach the device through
engine.Client so that caching, per-client clocks and IO accounting stay
correct.`

// The repo's layering.
const (
	// ioLayer lists the IO-layer packages whose raw IO entry points are
	// restricted.
	ioLayer = "internal/storage,internal/hdd,internal/ssd,internal/pdamdev"
	// rawIO lists the restricted entry points: byte IO and the raw device
	// timing call. Store.Meter stays open — it moves no bytes and is the
	// sanctioned probe for device-model validation experiments.
	rawIO = "Read,ReadAt,WriteAt,Handover,Access"
	// engineLayer lists the packages that form the engine layer: the engine
	// itself, the storage package (Store wraps Device), the WAL (driven by
	// the engine through a sanctioned device handle), and the device
	// simulators.
	engineLayer = "internal/engine,internal/storage,internal/wal,internal/hdd,internal/ssd,internal/pdamdev"
)

var Analyzer = &analysis.Analyzer{
	Name:     "enginebypass",
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if lintutil.ParseScope(engineLayer).ContainsPkg(pass.Pkg.Path()) {
		return nil, nil
	}
	device, methods := lintutil.ParseScope(ioLayer), strings.Split(rawIO, ",")
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		fn := lintutil.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || !slices.Contains(methods, fn.Name()) {
			return
		}
		if !device.ContainsPkg(fn.Pkg().Path()) {
			return
		}
		recv := ""
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv = strings.TrimPrefix(sig.Recv().Type().String(), "*") + "."
			if i := strings.LastIndexByte(recv, '/'); i >= 0 {
				recv = recv[i+1:]
			}
		}
		lintutil.Report(pass, call.Pos(), "", "direct device IO %s%s bypasses the engine layer; go through engine.Client", recv, fn.Name())
	})
	return nil, nil
}
