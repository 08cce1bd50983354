// Package locks defines the analyzer for the repo's mutex discipline: a
// declared acquisition order, and no blocking while an exclusive lock is
// held. Both are checked in one may-held dataflow over each function's CFG
// (held.go), against one summary per function that propagates through
// same-package calls and, as an object fact, across packages.
//
// Acquisition order. The serving path interleaves several locks (the
// server's stateMu, promoteMu and the scheduler/conn mu); a cycle in their
// acquisition graph is a deadlock that only manifests under exactly the
// wrong interleaving of a failover and a write burst — the kind of schedule
// no test reliably produces. So the order is declared in the source and
// checked on every build instead. A mutex opts in with a rank annotation
// on its declaration:
//
//	stateMu sync.RWMutex //lint:lockrank 10 tree state; outermost
//
// Lower ranks are acquired first (outermost). The analyzer flags:
//
//   - acquiring a ranked lock while holding one of equal or higher rank
//     (an inversion: some other code path nests them the other way);
//   - acquiring any mutex the function may already hold, ranked or not,
//     in either mode (self-deadlock: sync mutexes are not reentrant, and a
//     second RLock blocks behind a Lock that waits between the two);
//   - calling, while holding a ranked lock, a function that may acquire an
//     equal- or lower-ranked one.
//
// Unranked mutexes take part only in the self-deadlock check. The order
// has no escape hatch: an order that needs one is an order to fix.
//
// Blocking under a lock. A lock held across a channel wait can deadlock
// against the goroutine that would signal it, and a lock held across
// device or network IO serializes every contender — the PDAM lanes the
// scheduler builds are only parallel if nothing holds a lock across a
// P-sized batch. Under an exclusive lock the analyzer flags:
//
//   - channel sends and receives, range over a channel, and select without
//     a default clause (select with a default is a poll and is fine);
//   - sync.WaitGroup.Wait, sync.Cond.Wait, time.Sleep, and the blocking
//     net/bufio/io/os entry points (Read, Write, Flush, Accept, Dial, ...);
//   - the repo's device/durable-IO entry points (ioFuncs);
//   - calls to functions that may do any of the above, transitively;
//   - calls through function values, which cannot be verified (the callee
//     is data, not code); these are flagged only at the lock site, never
//     propagated into summaries.
//
// Only exclusive locks count: the repo's read path deliberately performs
// device IO under stateMu.RLock, which is the concurrency the shared mode
// exists for. Audited exceptions (the group-commit flush holds the
// durability mutex across the WAL write by design) document themselves with
// //lint:allowblock <reason>.
package locks

import (
	"fmt"
	"go/ast"
	"go/token"
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

const doc = `enforce the declared mutex order (//lint:lockrank) and no blocking under a lock

Mutexes annotated //lint:lockrank N must be acquired in increasing rank
order; acquiring out of order, re-acquiring a held mutex, or calling into a
function that acquires an earlier rank is a potential deadlock. Channel
operations, WaitGroup/Cond waits, sleeps, network and device IO under a held
exclusive lock stall every contender and can deadlock against the goroutine
that would signal them; audited cases use //lint:allowblock <reason>.`

// ioFuncs lists the repo's device/durable IO entry points: holding an
// exclusive lock across any of these serializes the serving path.
const ioFuncs = "internal/engine.Engine.ApplyBatch," +
	"internal/engine.Engine.ApplyBatchNoSync," +
	"internal/engine.Engine.CommitPending," +
	"internal/engine.Engine.Checkpoint," +
	"internal/engine.Engine.Sync," +
	"internal/engine.Engine.EnableShipping," +
	"internal/wal.Log.Append," +
	"internal/wal.Log.Commit," +
	"internal/wal.Log.Replay," +
	"internal/wal.Log.TailFrom," +
	"internal/storage.Store.Read," +
	"internal/storage.Store.ReadAt," +
	"internal/storage.Store.WriteAt," +
	"internal/storage.Store.Handover"

// lockRank records a mutex declaration's //lint:lockrank annotation so
// downstream packages see the discipline.
type lockRank struct {
	Rank int
}

func (*lockRank) AFact()           {}
func (r *lockRank) String() string { return fmt.Sprintf("lockrank(%d)", r.Rank) }

// summary is a function's fact: the lowest-ranked lock it may acquire,
// directly or transitively (Lock names it; empty when it acquires none),
// and the root cause when it may block (empty when it does not).
type summary struct {
	Rank  int
	Lock  string
	Block string
}

func (*summary) AFact() {}
func (s *summary) String() string {
	return fmt.Sprintf("summary(%s rank %d, blocks %q)", s.Lock, s.Rank, s.Block)
}

// absorb folds a callee's summary into s, reporting whether s changed: a
// rank only falls, and a cause only goes from unset to set.
func (s *summary) absorb(o summary) bool {
	changed := false
	if o.Lock != "" && (s.Lock == "" || o.Rank < s.Rank) {
		s.Rank, s.Lock, changed = o.Rank, o.Lock, true
	}
	if o.Block != "" && s.Block == "" {
		s.Block, changed = o.Block, true
	}
	return changed
}

var Analyzer = &analysis.Analyzer{
	Name:      "locks",
	Doc:       doc,
	Requires:  []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	FactTypes: []analysis.Fact{new(lockRank), new(summary)},
	Run:       run,
}

type checker struct {
	pass  *analysis.Pass
	io    []lintutil.FuncPattern
	ranks map[*types.Var]int       // this package's and imported ranks seen so far
	sums  map[*types.Func]*summary // this package's functions
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	c := &checker{pass: pass, io: lintutil.ParseFuncPatterns(ioFuncs), ranks: collectRanks(pass, ins)}
	c.summarize(ins)

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
		if g != nil && hasMutexOp(body) {
			c.check(g, body)
		}
	})
	return nil, nil
}

func (c *checker) rankOf(v *types.Var) (int, bool) {
	if r, ok := c.ranks[v]; ok {
		return r, true
	}
	var f lockRank
	if c.pass.ImportObjectFact(v, &f) {
		c.ranks[v] = f.Rank
		return f.Rank, true
	}
	return 0, false
}

// summaryOf resolves a callee's summary: this package's, or the fact an
// already-analyzed package exported. The zero summary means neither.
func (c *checker) summaryOf(fn *types.Func) summary {
	if s, ok := c.sums[fn]; ok {
		return *s
	}
	var s summary
	c.pass.ImportObjectFact(fn, &s)
	return s
}

// collectRanks finds //lint:lockrank annotations on mutex-typed struct
// fields and variables, diagnosing malformed ones. The annotation must be
// the declaration's own doc or trailing comment — AST attachment, not line
// arithmetic, so a trailing directive on one field cannot bleed onto the
// next.
func collectRanks(pass *analysis.Pass, ins *inspector.Inspector) map[*types.Var]int {
	ranks := map[*types.Var]int{}
	record := func(name *ast.Ident, groups ...*ast.CommentGroup) {
		v, ok := pass.TypesInfo.Defs[name].(*types.Var)
		if !ok {
			return
		}
		arg, ok := lockrankArg(groups)
		if !ok {
			return
		}
		if !isMutex(v.Type()) {
			pass.Reportf(name.Pos(), "//lint:lockrank on %s, which is not a sync.Mutex or sync.RWMutex", name.Name)
			return
		}
		fields := strings.Fields(arg)
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

// lockrankArg returns the argument of the first //lint:lockrank directive
// in a declaration's comment groups.
func lockrankArg(groups []*ast.CommentGroup) (string, bool) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if arg, ok := lintutil.DirectiveArg(c.Text, "lockrank"); ok {
				return arg, true
			}
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

// summarize computes the summary of every function declared in this
// package — what it does itself, what the facts of the other packages'
// functions it calls say, then same-package calls to a fixpoint — and
// exports each non-empty one as the function's fact. Another package's rank
// is always folded in, its blocking cause only when the package is in this
// module (inModule): folded from the standard library, a cause comes out of
// fmt.Errorf and os.Create, whose blocking is not this module's to audit.
// Any callee's cause is still checked at a call under a lock.
func (c *checker) summarize(ins *inspector.Inspector) {
	info := c.pass.TypesInfo
	type node struct {
		fn     *types.Func
		locals []*types.Func
	}
	var nodes []node
	c.sums = map[*types.Func]*summary{}
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		fn, ok := info.Defs[decl.Name].(*types.Func)
		if decl.Body == nil || !ok {
			return
		}
		nd, sum := node{fn: fn}, &summary{}
		sel := collectSelects(info, decl.Body)
		inspectOwn(decl.Body, func(m ast.Node) {
			if s, ok := sel.comm[m]; ok && !sel.hasDefault[s] {
				sum.absorb(summary{Block: "select with no default"})
			}
			sum.absorb(summary{Block: c.blockingOp(m, sel)})
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return
			}
			if v, kind, ok := mutexOp(info, call); ok {
				if r, ranked := c.rankOf(v); ranked && (kind == mutexLock || kind == mutexRLock) {
					sum.absorb(summary{Rank: r, Lock: v.Name()})
				}
			} else if callee := lintutil.Callee(info, call); callee != nil && callee.Pkg() == c.pass.Pkg {
				nd.locals = append(nd.locals, callee)
			} else if callee != nil {
				o := c.summaryOf(callee)
				if !inModule(c.pass, callee.Pkg()) {
					o.Block = ""
				}
				sum.absorb(o)
			}
		})
		nodes = append(nodes, nd)
		c.sums[fn] = sum
	})

	for changed := true; changed; {
		changed = false
		for _, nd := range nodes {
			for _, callee := range nd.locals {
				if cs, ok := c.sums[callee]; ok && c.sums[nd.fn].absorb(*cs) {
					changed = true
				}
			}
		}
	}
	for _, nd := range nodes {
		if s := c.sums[nd.fn]; *s != (summary{}) {
			c.pass.ExportObjectFact(nd.fn, s)
		}
	}
}

// inModule reports whether pkg belongs to the module of the package under
// analysis: its path is the module path or lies under it. Without a module
// (a driver that gives none) nothing does.
func inModule(pass *analysis.Pass, pkg *types.Package) bool {
	if pass.Module == nil || pass.Module.Path == "" || pkg == nil {
		return false
	}
	m, p := pass.Module.Path, pkg.Path()
	return p == m || strings.HasPrefix(p, m+"/")
}

// check walks one function with the may-held set. Each acquisition is
// checked against the locks held; each call against the held ranks; and
// each blocking operation, blocking call or function-value call against
// the exclusive locks held.
func (c *checker) check(g *cfg.CFG, body *ast.BlockStmt) {
	info := c.pass.TypesInfo
	sel := collectSelects(info, body)
	reportedSel := map[*ast.SelectStmt]bool{}

	walkHeld(info, g, func(n ast.Node, held lockSet) {
		if len(held) == 0 {
			return
		}
		call, _ := n.(*ast.CallExpr)
		var callee *types.Func
		var sum summary
		if call != nil {
			if v, kind, ok := mutexOp(info, call); ok {
				if kind == mutexLock || kind == mutexRLock {
					c.checkAcquire(call, v, held)
				}
				return
			}
			if callee = lintutil.Callee(info, call); callee != nil {
				sum = c.summaryOf(callee)
			}
			for hv := range held {
				if hr, ok := c.rankOf(hv); ok && sum.Lock != "" && sum.Rank <= hr {
					lintutil.Report(c.pass, call.Pos(), "", "lock order violation: call to %s may acquire %s (rank %d) while holding %s (rank %d)", callee.Name(), sum.Lock, sum.Rank, hv.Name(), hr)
				}
			}
		}

		lock := exclusiveLock(held)
		if lock == nil {
			return
		}
		op := c.blockingOp(n, sel)
		if s, ok := sel.comm[n]; ok {
			if sel.hasDefault[s] || reportedSel[s] {
				return
			}
			reportedSel[s] = true
			n, op = s, "select with no default"
		} else if op == "" && sum.Block != "" {
			op = "call to " + shortName(callee) + ", which may block (" + sum.Block + ")"
		} else if op == "" && call != nil && callee == nil && isFuncValueCall(info, call) {
			op = "call through a function value (unverifiable)"
		}
		if op != "" {
			lintutil.Report(c.pass, n.Pos(), "allowblock", "blocking %s while holding %s", op, lock.Name())
		}
	})
}

// checkAcquire checks one acquisition of v against the locks held.
func (c *checker) checkAcquire(call *ast.CallExpr, v *types.Var, held lockSet) {
	if _, again := held[v]; again {
		lintutil.Report(c.pass, call.Pos(), "", "mutex %s acquired while already held; sync mutexes are not reentrant", v.Name())
		return
	}
	r, ranked := c.rankOf(v)
	if !ranked {
		return
	}
	for hv := range held {
		if hr, ok := c.rankOf(hv); ok && r <= hr {
			lintutil.Report(c.pass, call.Pos(), "", "lock order violation: acquiring %s (rank %d) while holding %s (rank %d); acquire lower ranks first", v.Name(), r, hv.Name(), hr)
		}
	}
}

// exclusiveLock picks the exclusively-held lock to name in the diagnostic
// (the alphabetically first, for determinism), or nil if none.
func exclusiveLock(held lockSet) *types.Var {
	var lock *types.Var
	for v, k := range held {
		if k&heldExcl != 0 && (lock == nil || v.Name() < lock.Name()) {
			lock = v
		}
	}
	return lock
}

// stdlib blocking entry points, by package: method names (on any receiver
// in the package) and package-level function names.
var stdBlocking = map[string]struct{ methods, funcs string }{
	"sync":  {methods: " Wait "},
	"time":  {funcs: " Sleep "},
	"net":   {methods: " Read Write ReadFrom WriteTo Accept AcceptTCP Dial DialContext ", funcs: " Dial DialTimeout Listen ListenPacket "},
	"bufio": {methods: " Read ReadByte ReadRune ReadString ReadBytes ReadSlice ReadLine Peek Write WriteByte WriteRune WriteString Flush Scan "},
	"io":    {funcs: " ReadFull ReadAtLeast ReadAll Copy CopyN CopyBuffer WriteString "},
	"os":    {methods: " Read ReadAt Write WriteAt Sync ", funcs: " ReadFile WriteFile "},
}

func stdBlockingCall(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	ent, ok := stdBlocking[fn.Pkg().Path()]
	if !ok {
		return false
	}
	needle := " " + fn.Name() + " "
	if fn.Type().(*types.Signature).Recv() != nil {
		return strings.Contains(ent.methods, needle)
	}
	return strings.Contains(ent.funcs, needle)
}

// shortName renders a callee for diagnostics: Type.Method or pkg.Func.
func shortName(fn *types.Func) string {
	if named := lintutil.RecvNamed(fn); named != nil {
		return named.Obj().Name() + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// selectMaps records, for one function body, which AST nodes belong to a
// select's communication clauses, which selects have a default, and which
// expressions are ranged over as channels.
type selectMaps struct {
	comm       map[ast.Node]*ast.SelectStmt
	hasDefault map[*ast.SelectStmt]bool
	rangeChan  map[ast.Node]bool // range X expr over a channel
}

func collectSelects(info *types.Info, body ast.Node) selectMaps {
	m := selectMaps{
		comm:       map[ast.Node]*ast.SelectStmt{},
		hasDefault: map[*ast.SelectStmt]bool{},
		rangeChan:  map[ast.Node]bool{},
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			for _, cc := range n.Body.List {
				clause := cc.(*ast.CommClause)
				if clause.Comm == nil {
					m.hasDefault[n] = true
					continue
				}
				ast.Inspect(clause.Comm, func(c ast.Node) bool {
					if c != nil {
						m.comm[c] = n
					}
					return true
				})
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					m.rangeChan[n.X] = true
				}
			}
		}
		return true
	})
	return m
}

// blockingOp names the blocking operation n performs itself, or returns
// "": a channel operation or range over a channel, or a call to a watched
// device/durable-IO entry point or a stdlib blocking call (a mutex
// acquisition is neither: it is the order check's). Operations
// inside a select's comm clauses are part of the select, which the caller
// names once, with its default clause taken into account.
func (c *checker) blockingOp(n ast.Node, sel selectMaps) string {
	if _, ok := sel.comm[n]; ok {
		return ""
	}
	if sel.rangeChan[n] {
		return "range over channel"
	}
	switch n := n.(type) {
	case *ast.SendStmt:
		return "channel send"
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "channel receive"
		}
	case *ast.CallExpr:
		fn := lintutil.Callee(c.pass.TypesInfo, n)
		if fn == nil {
			return ""
		}
		for _, w := range c.io {
			if w.Matches(fn) {
				return "call to " + shortName(fn) + " (device/durable IO)"
			}
		}
		if stdBlockingCall(fn) {
			return "call to " + shortName(fn)
		}
	}
	return ""
}

func isFuncValueCall(info *types.Info, call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			return false
		}
	}
	if tv, ok := info.Types[fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return false
	}
	if _, ok := fun.(*ast.FuncLit); ok {
		return false // immediate literal call: its body is walked separately
	}
	t := info.TypeOf(fun)
	if t == nil {
		return false
	}
	_, isSig := t.Underlying().(*types.Signature)
	return isSig
}
