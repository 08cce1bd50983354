// Package lockorder defines an analyzer enforcing a declared mutex
// acquisition order. The serving path interleaves four locks (the server's
// stateMu, promoteMu, shipMu and the scheduler/conn mu); a cycle in their
// acquisition graph is a deadlock that only manifests under exactly the
// wrong interleaving of a failover and a write burst — the kind of schedule
// no test reliably produces. So the order is declared in the source and
// checked on every build instead.
//
// A mutex opts into the discipline with a rank annotation on its
// declaration:
//
//	stateMu sync.RWMutex //lint:lockrank 10 tree state; outermost
//
// Lower ranks are acquired first (outermost). The analyzer then flags, with
// a may-held dataflow over each function's CFG:
//
//   - acquiring a ranked lock while holding one of equal or higher rank
//     (an inversion: some other code path nests them the other way);
//   - acquiring any mutex the function already holds (self-deadlock —
//     sync mutexes are not reentrant), ranked or not;
//   - calling, while holding a ranked lock, a function that may acquire an
//     equal- or lower-ranked one. Function summaries propagate through
//     same-package calls and, via object facts (the atomicfield technique),
//     across packages.
//
// Unranked mutexes participate only in the self-deadlock check. An audited
// exception documents itself with //lint:allowlockorder <reason>.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"

	"iomodels/internal/analysis/lintutil"
)

const doc = `enforce the declared mutex acquisition order (//lint:lockrank)

Mutexes annotated //lint:lockrank N must be acquired in increasing rank
order; acquiring out of order, re-acquiring a held mutex, or calling into a
function that acquires an earlier rank is a potential deadlock. Audited
exceptions use //lint:allowlockorder <reason>.`

// lockRank records a mutex declaration's //lint:lockrank annotation so
// downstream packages see the discipline.
type lockRank struct {
	Rank int
}

func (*lockRank) AFact()           {}
func (r *lockRank) String() string { return fmt.Sprintf("lockrank(%d)", r.Rank) }

// acquires summarizes the lowest-ranked lock a function may acquire,
// directly or transitively. Lock carries the mutex name for diagnostics.
type acquires struct {
	Rank int
	Lock string
}

func (*acquires) AFact()           {}
func (a *acquires) String() string { return fmt.Sprintf("acquires(%s rank %d)", a.Lock, a.Rank) }

var Analyzer = &analysis.Analyzer{
	Name:      "lockorder",
	Doc:       doc,
	Requires:  []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	FactTypes: []analysis.Fact{new(lockRank), new(acquires)},
	Run:       run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ranks := collectRanks(pass, ins)
	rankOf := func(v *types.Var) (int, bool) {
		if r, ok := ranks[v]; ok {
			return r, true
		}
		var f lockRank
		if pass.ImportObjectFact(v, &f) {
			ranks[v] = f.Rank
			return f.Rank, true
		}
		return 0, false
	}

	minAcq := summarize(pass, ins, rankOf)
	for fn, a := range minAcq {
		if fn.Pkg() == pass.Pkg {
			pass.ExportObjectFact(fn, &acquires{Rank: a.Rank, Lock: a.Lock})
		}
	}
	acqOf := func(fn *types.Func) (acquires, bool) {
		if a, ok := minAcq[fn]; ok {
			return a, true
		}
		var f acquires
		if pass.ImportObjectFact(fn, &f) {
			return f, true
		}
		return acquires{}, false
	}

	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var g *cfg.CFG
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body == nil {
				return
			}
			body, g = fn.Body, cfgs.FuncDecl(fn)
		case *ast.FuncLit:
			body, g = fn.Body, cfgs.FuncLit(fn)
		}
		if g == nil || !lintutil.HasMutexOp(body) {
			return
		}
		checkFunc(pass, g, rankOf, acqOf)
	})
	return nil, nil
}

// collectRanks finds //lint:lockrank annotations on mutex-typed struct
// fields and variables, diagnosing malformed ones. The annotation must be
// the declaration's own doc or trailing comment — AST attachment, not line
// arithmetic, so a trailing directive on one field cannot bleed onto the
// next.
func collectRanks(pass *analysis.Pass, ins *inspector.Inspector) map[*types.Var]int {
	ranks := map[*types.Var]int{}
	record := func(name *ast.Ident, doc, trailing *ast.CommentGroup) {
		v, ok := pass.TypesInfo.Defs[name].(*types.Var)
		if !ok {
			return
		}
		reason, ok := directiveIn("lockrank", doc, trailing)
		if !ok {
			return
		}
		if !isMutex(v.Type()) {
			pass.Reportf(name.Pos(), "//lint:lockrank on %s, which is not a sync.Mutex or sync.RWMutex", name.Name)
			return
		}
		fields := strings.Fields(reason)
		if len(fields) == 0 {
			pass.Reportf(name.Pos(), "//lint:lockrank needs an integer rank (lower = acquired first)")
			return
		}
		r, err := strconv.Atoi(fields[0])
		if err != nil {
			pass.Reportf(name.Pos(), "//lint:lockrank rank %q is not an integer", fields[0])
			return
		}
		ranks[v] = r
		pass.ExportObjectFact(v, &lockRank{Rank: r})
	}
	ins.Preorder([]ast.Node{(*ast.StructType)(nil), (*ast.ValueSpec)(nil)}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.StructType:
			for _, f := range n.Fields.List {
				for _, name := range f.Names {
					record(name, f.Doc, f.Comment)
				}
			}
		case *ast.ValueSpec:
			for _, name := range n.Names {
				record(name, n.Doc, n.Comment)
			}
		}
	})
	return ranks
}

// directiveIn scans the declaration's comment groups for //lint:<name>,
// returning the trimmed argument text.
func directiveIn(name string, groups ...*ast.CommentGroup) (string, bool) {
	prefix := "//lint:" + name
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			rest, ok := strings.CutPrefix(c.Text, prefix)
			if !ok {
				continue
			}
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue
			}
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

func isMutex(t types.Type) bool {
	named := lintutil.Named(t)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	n := named.Obj().Name()
	return n == "Mutex" || n == "RWMutex"
}

// summarize computes, for every function declared in this package, the
// lowest-ranked lock it may acquire — directly, through same-package calls
// (to a fixpoint), or through already-analyzed packages' facts.
func summarize(pass *analysis.Pass, ins *inspector.Inspector, rankOf func(*types.Var) (int, bool)) map[*types.Func]acquires {
	type node struct {
		min    acquires
		has    bool
		locals []*types.Func
	}
	nodes := map[*types.Func]*node{}
	lower := func(n *node, a acquires) bool {
		if !n.has || a.Rank < n.min.Rank {
			n.min, n.has = a, true
			return true
		}
		return false
	}

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(astn ast.Node) {
		decl := astn.(*ast.FuncDecl)
		if decl.Body == nil {
			return
		}
		fn, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
		if !ok {
			return
		}
		nd := &node{}
		nodes[fn] = nd
		ast.Inspect(decl.Body, func(m ast.Node) bool {
			switch m.(type) {
			case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
				return false // other goroutine / unknown time: not this call path
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if v, kind, ok := lintutil.MutexOp(pass.TypesInfo, call); ok {
				if kind == lintutil.MutexLock || kind == lintutil.MutexRLock {
					if r, ok := rankOf(v); ok {
						lower(nd, acquires{Rank: r, Lock: v.Name()})
					}
				}
				return true
			}
			if callee := lintutil.Callee(pass.TypesInfo, call); callee != nil {
				if callee.Pkg() == pass.Pkg {
					nd.locals = append(nd.locals, callee)
				} else {
					var f acquires
					if pass.ImportObjectFact(callee, &f) {
						lower(nd, f)
					}
				}
			}
			return true
		})
	})

	// Propagate through same-package calls to a fixpoint; ranks only
	// decrease, so this terminates.
	for changed := true; changed; {
		changed = false
		for _, nd := range nodes {
			for _, callee := range nd.locals {
				if cn, ok := nodes[callee]; ok && cn.has && lower(nd, cn.min) {
					changed = true
				}
			}
		}
	}

	out := map[*types.Func]acquires{}
	for fn, nd := range nodes {
		if nd.has {
			out[fn] = nd.min
		}
	}
	return out
}

// checkFunc walks one function's CFG with the may-held lock set and reports
// inversions, self-deadlocks, and calls that acquire out of order.
func checkFunc(pass *analysis.Pass, g *cfg.CFG, rankOf func(*types.Var) (int, bool), acqOf func(*types.Func) (acquires, bool)) {
	report := func(pos ast.Node, format string, args ...interface{}) {
		if lintutil.IsTestFile(pass.Fset, pos.Pos()) {
			return
		}
		if reason, ok := lintutil.Directive(pass.Fset, pass.Files, pos.Pos(), "allowlockorder"); ok && reason != "" {
			return
		} else if ok {
			pass.Reportf(pos.Pos(), "//lint:allowlockorder needs a reason")
			return
		}
		pass.Reportf(pos.Pos(), format, args...)
	}

	lintutil.WalkHeld(pass.TypesInfo, g, func(n ast.Node, held lintutil.LockSet) {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(held) == 0 {
			return
		}
		if v, kind, ok := lintutil.MutexOp(pass.TypesInfo, call); ok {
			if kind != lintutil.MutexLock && kind != lintutil.MutexRLock {
				return
			}
			if hk, heldSame := held[v]; heldSame {
				// RLock while only RLock-held is legal; everything else on
				// the same mutex deadlocks against itself.
				if !(kind == lintutil.MutexRLock && hk == lintutil.HeldShared) {
					report(call, "mutex %s acquired while already held; sync mutexes are not reentrant", v.Name())
					return
				}
			}
			r, ranked := rankOf(v)
			if !ranked {
				return
			}
			for hv := range held {
				if hv == v {
					continue
				}
				if hr, ok := rankOf(hv); ok && r <= hr {
					report(call, "lock order violation: acquiring %s (rank %d) while holding %s (rank %d); acquire lower ranks first", v.Name(), r, hv.Name(), hr)
				}
			}
			return
		}
		callee := lintutil.Callee(pass.TypesInfo, call)
		if callee == nil {
			return
		}
		a, ok := acqOf(callee)
		if !ok {
			return
		}
		for hv := range held {
			if hr, ok := rankOf(hv); ok && a.Rank <= hr {
				report(call, "lock order violation: call to %s may acquire %s (rank %d) while holding %s (rank %d)", callee.Name(), a.Lock, a.Rank, hv.Name(), hr)
			}
		}
	})
}
