// Mutex-call resolution and the may-held lock dataflow shared by the
// lockorder and blockunderlock analyzers.
//
// A lock's identity is the *types.Var of the mutex variable or struct field
// the method is called on (s.mu.Lock() -> the field `mu`). That is the same
// granularity as the //lint:lockrank annotation — per declaration, not per
// instance — which is exactly what a lock-ordering discipline is stated
// over. Locking through an embedded mutex (s.Lock()) resolves to the
// variable s; the repo convention is explicit named mutex fields, which the
// testdata enforces.
//
// WalkHeld is a forward MAY-held analysis over the ctrlflow CFG: at a join,
// a lock held on any incoming path is considered held. `defer mu.Unlock()`
// keeps mu held to the end of the function — that is the point of the
// idiom. Function literals, go statements, and defer bodies are not
// entered: they run on another goroutine or at an unknown later time, so
// neither their lock effects nor their blocking operations belong to the
// enclosing function's timeline.
package lintutil

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/cfg"
)

// MutexOpKind classifies the four sync mutex methods.
type MutexOpKind int

const (
	MutexLock    MutexOpKind = iota // Lock, TryLock
	MutexRLock                      // RLock, TryRLock
	MutexUnlock                     // Unlock
	MutexRUnlock                    // RUnlock
)

// HeldKind says how a lock may be held at a program point.
type HeldKind uint8

const (
	HeldExcl   HeldKind = 1 << iota // via Lock
	HeldShared                      // via RLock
)

// MutexOp resolves call as a sync.Mutex/sync.RWMutex lock operation and
// returns the identity of the mutex it operates on. ok is false for
// anything else, including lock operations on receivers the analysis
// cannot name (map elements, function results).
func MutexOp(info *types.Info, call *ast.CallExpr) (*types.Var, MutexOpKind, bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return nil, 0, false
	}
	fn := Callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, 0, false
	}
	named := RecvNamed(fn)
	if named == nil {
		return nil, 0, false
	}
	if n := named.Obj().Name(); n != "Mutex" && n != "RWMutex" {
		return nil, 0, false
	}
	var kind MutexOpKind
	switch fn.Name() {
	case "Lock", "TryLock":
		kind = MutexLock
	case "RLock", "TryRLock":
		kind = MutexRLock
	case "Unlock":
		kind = MutexUnlock
	case "RUnlock":
		kind = MutexRUnlock
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

// LockSet maps each possibly-held mutex to how it may be held.
type LockSet map[*types.Var]HeldKind

// Clone returns an independent copy.
func (s LockSet) Clone() LockSet {
	c := make(LockSet, len(s))
	for v, k := range s {
		c[v] = k
	}
	return c
}

// union merges o into s, reporting whether s grew.
func (s LockSet) union(o LockSet) bool {
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
func (s LockSet) apply(v *types.Var, kind MutexOpKind) {
	switch kind {
	case MutexLock:
		s[v] |= HeldExcl
	case MutexRLock:
		s[v] |= HeldShared
	case MutexUnlock:
		s[v] &^= HeldExcl
	case MutexRUnlock:
		s[v] &^= HeldShared
	}
	if s[v] == 0 {
		delete(s, v)
	}
}

// WalkHeld runs the may-held analysis over g and calls visit for every AST
// node in every reachable block, in preorder, with the lock set held at
// that point. For a lock/unlock call the callback observes the set as it is
// BEFORE the operation takes effect (an acquisition is checked against what
// is already held). Nested function literals, go statements, and defer
// statements are not visited (see the package comment); deferred unlocks
// are honored by never applying them, which leaves the lock held to the end
// of the function.
func WalkHeld(info *types.Info, g *cfg.CFG, visit func(n ast.Node, held LockSet)) {
	if g == nil || len(g.Blocks) == 0 {
		return
	}
	in := map[*cfg.Block]LockSet{g.Blocks[0]: LockSet{}}
	work := []*cfg.Block{g.Blocks[0]}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		out := in[b].Clone()
		for _, n := range b.Nodes {
			walkEffects(info, n, out, nil)
		}
		for _, succ := range b.Succs {
			if old, ok := in[succ]; !ok {
				in[succ] = out.Clone()
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
		set = set.Clone()
		for _, n := range b.Nodes {
			walkEffects(info, n, set, visit)
		}
	}
}

// walkEffects walks one CFG node, invoking visit (when non-nil) before
// applying each mutex operation's effect on set.
func walkEffects(info *types.Info, n ast.Node, set LockSet, visit func(ast.Node, LockSet)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return true
		}
		switch m.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		}
		if visit != nil {
			visit(m, set)
		}
		if call, ok := m.(*ast.CallExpr); ok {
			if v, kind, ok := MutexOp(info, call); ok {
				set.apply(v, kind)
			}
		}
		return true
	})
}

// HasMutexOp cheaply reports whether the function body contains any
// selector call spelled like a mutex operation — a syntactic pre-filter so
// analyzers skip the CFG dataflow for the vast majority of functions.
func HasMutexOp(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Lock", "RLock", "TryLock", "TryRLock":
				found = true
			}
		}
		return true
	})
	return found
}
