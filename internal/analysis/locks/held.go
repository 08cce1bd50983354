// Mutex-call resolution and the may-held lock dataflow both of the
// analyzer's checks run over.
//
// A lock's identity is the *types.Var of the mutex variable or struct field
// the method is called on (s.mu.Lock() -> the field `mu`). That is the same
// granularity as the //lint:lockrank annotation — per declaration, not per
// instance — which is exactly what a lock-ordering discipline is stated
// over. Locking through an embedded mutex (s.Lock()) resolves to the
// variable s; the repo convention is explicit named mutex fields, which the
// testdata enforces.
//
// walkHeld is a forward MAY-held analysis over the ctrlflow CFG: at a join,
// a lock held on any incoming path is considered held. `defer mu.Unlock()`
// keeps mu held to the end of the function — that is the point of the
// idiom. Function literals, go statements, and defer bodies are not
// entered: they run on another goroutine or at an unknown later time, so
// neither their lock effects nor their blocking operations belong to the
// enclosing function's timeline.
package locks

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/cfg"

	"iomodels/internal/analysis/lintutil"
)

// mutexOpKind classifies the four sync mutex methods.
type mutexOpKind int

const (
	mutexLock    mutexOpKind = iota // Lock, TryLock
	mutexRLock                      // RLock, TryRLock
	mutexUnlock                     // Unlock
	mutexRUnlock                    // RUnlock
)

// heldKind says how a lock may be held at a program point.
type heldKind uint8

const (
	heldExcl   heldKind = 1 << iota // via Lock
	heldShared                      // via RLock
)

// mutexOp resolves call as a sync.Mutex/sync.RWMutex lock operation and
// returns the identity of the mutex it operates on. ok is false for
// anything else, including lock operations on receivers the analysis
// cannot name (map elements, function results).
func mutexOp(info *types.Info, call *ast.CallExpr) (*types.Var, mutexOpKind, bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return nil, 0, false
	}
	fn := lintutil.Callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, 0, false
	}
	named := lintutil.RecvNamed(fn)
	if named == nil {
		return nil, 0, false
	}
	if n := named.Obj().Name(); n != "Mutex" && n != "RWMutex" {
		return nil, 0, false
	}
	var kind mutexOpKind
	switch fn.Name() {
	case "Lock", "TryLock":
		kind = mutexLock
	case "RLock", "TryRLock":
		kind = mutexRLock
	case "Unlock":
		kind = mutexUnlock
	case "RUnlock":
		kind = mutexRUnlock
	default:
		return nil, 0, false
	}
	v := mutexVar(info, sel.X)
	if v == nil {
		return nil, 0, false
	}
	return v, kind, true
}

// mutexVar names the variable a mutex method receiver denotes: a field
// selection (s.mu, s.inner.mu -> the final field), a plain identifier
// (local, parameter, package var), or either behind & and parentheses.
func mutexVar(info *types.Info, e ast.Expr) *types.Var {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := info.Uses[x].(*types.Var)
		return v
	case *ast.SelectorExpr:
		if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
			v, _ := s.Obj().(*types.Var)
			return v
		}
		v, _ := info.Uses[x.Sel].(*types.Var) // qualified pkg.Var
		return v
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return mutexVar(info, x.X)
		}
	}
	return nil
}

// lockSet maps each possibly-held mutex to how it may be held.
type lockSet map[*types.Var]heldKind

func (s lockSet) clone() lockSet {
	c := make(lockSet, len(s))
	for v, k := range s {
		c[v] = k
	}
	return c
}

// union merges o into s, reporting whether s grew.
func (s lockSet) union(o lockSet) bool {
	changed := false
	for v, k := range o {
		if s[v]&k != k {
			s[v] |= k
			changed = true
		}
	}
	return changed
}

// apply updates the set for one mutex operation.
func (s lockSet) apply(v *types.Var, kind mutexOpKind) {
	switch kind {
	case mutexLock:
		s[v] |= heldExcl
	case mutexRLock:
		s[v] |= heldShared
	case mutexUnlock:
		s[v] &^= heldExcl
	case mutexRUnlock:
		s[v] &^= heldShared
	}
	if s[v] == 0 {
		delete(s, v)
	}
}

// walkHeld runs the may-held analysis over g and calls visit for every AST
// node in every reachable block, in preorder, with the lock set held at
// that point. For a lock/unlock call the callback observes the set as it is
// BEFORE the operation takes effect (an acquisition is checked against what
// is already held). Deferred unlocks are honored by never applying them,
// which leaves the lock held to the end of the function.
func walkHeld(info *types.Info, g *cfg.CFG, visit func(n ast.Node, held lockSet)) {
	if len(g.Blocks) == 0 {
		return
	}
	in := map[*cfg.Block]lockSet{g.Blocks[0]: {}}
	work := []*cfg.Block{g.Blocks[0]}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		out := in[b].clone()
		for _, n := range b.Nodes {
			walkEffects(info, n, out, nil)
		}
		for _, succ := range b.Succs {
			if old, ok := in[succ]; !ok {
				in[succ] = out.clone()
				work = append(work, succ)
			} else if old.union(out) {
				work = append(work, succ)
			}
		}
	}
	for _, b := range g.Blocks {
		set, ok := in[b]
		if !ok {
			continue // unreachable
		}
		set = set.clone()
		for _, n := range b.Nodes {
			walkEffects(info, n, set, visit)
		}
	}
}

// walkEffects walks one CFG node, invoking visit (when non-nil) before
// applying each mutex operation's effect on set.
func walkEffects(info *types.Info, n ast.Node, set lockSet, visit func(ast.Node, lockSet)) {
	inspectOwn(n, func(m ast.Node) {
		if visit != nil {
			visit(m, set)
		}
		if call, ok := m.(*ast.CallExpr); ok {
			if v, kind, ok := mutexOp(info, call); ok {
				set.apply(v, kind)
			}
		}
	})
}

// inspectOwn calls f on n and, in preorder, on every node below it that
// runs on the enclosing function's timeline: function literals, go and
// defer statements are not entered.
func inspectOwn(n ast.Node, f func(ast.Node)) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m.(type) {
		case nil:
			return true
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		}
		f(m)
		return true
	})
}

// hasMutexOp cheaply reports whether the function body contains any
// selector call spelled like a mutex acquisition — a syntactic pre-filter
// that skips the CFG dataflow for the vast majority of functions.
func hasMutexOp(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !found {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Lock", "RLock", "TryLock", "TryRLock":
					found = true
				}
			}
		}
		return !found
	})
	return found
}
