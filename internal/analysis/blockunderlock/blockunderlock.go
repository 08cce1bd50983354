// Package blockunderlock defines an analyzer flagging blocking operations
// performed while an exclusive sync.Mutex/RWMutex lock is held. This is
// both a deadlock check and a tail-latency check: a lock held across a
// channel wait can deadlock against the goroutine that would signal it, and
// a lock held across device or network IO serializes every contender — the
// PDAM lanes the scheduler builds are only parallel if nothing holds a lock
// across a P-sized batch.
//
// Blocking operations are:
//
//   - channel sends and receives, range over a channel, and select without
//     a default clause (select with a default is a poll and is fine);
//   - sync.WaitGroup.Wait, sync.Cond.Wait, time.Sleep, and the blocking
//     net/bufio/io/os entry points (Read, Write, Flush, Accept, Dial, ...);
//   - the repo's durable-IO entry points, configured with -funcs
//     (walerr-style pkg.Type.Method patterns; the default lists the
//     engine/WAL/storage device paths);
//   - calls to functions that transitively do any of the above — summaries
//     propagate through same-package calls and across packages via object
//     facts;
//   - calls through function values, which cannot be verified (the callee
//     is data, not code); these are flagged only at the lock site, never
//     propagated into summaries.
//
// Only exclusive locks count: the repo's read path deliberately performs
// device IO under stateMu.RLock, which is the concurrency the shared mode
// exists for. Audited exceptions (the group-commit flush holds the
// durability mutex across the WAL write by design) document themselves with
// //lint:allowblock <reason>.
//
// Where the blocking statement is immediately followed by the Unlock of a
// held mutex, the analyzer attaches a suggested fix swapping the two
// statements.
package blockunderlock

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"

	"iomodels/internal/analysis/lintutil"
)

const doc = `flag blocking operations while an exclusive mutex is held

Channel operations, WaitGroup/Cond waits, sleeps, network and device IO
under a held exclusive lock stall every contender and can deadlock against
the goroutine that would signal them. Configure the watched IO entry points
with -blockunderlock.funcs; audited cases use //lint:allowblock <reason>.`

// DefaultFuncs lists the repo's device/durable IO entry points: holding an
// exclusive lock across any of these serializes the serving path.
const DefaultFuncs = "internal/engine.Engine.ApplyBatch," +
	"internal/engine.Engine.ApplyBatchNoSync," +
	"internal/engine.Engine.CommitPending," +
	"internal/engine.Engine.Checkpoint," +
	"internal/engine.Engine.Sync," +
	"internal/engine.Engine.EnableShipping," +
	"internal/wal.Log.Append," +
	"internal/wal.Log.Commit," +
	"internal/wal.Log.Replay," +
	"internal/wal.Log.TailFrom," +
	"internal/storage.Store.ReadAt," +
	"internal/storage.Store.WriteAt"

// blocks marks a function that may block, with the root-cause description.
type blocks struct {
	Op string
}

func (*blocks) AFact()           {}
func (b *blocks) String() string { return "blocks(" + b.Op + ")" }

var Analyzer = &analysis.Analyzer{
	Name:      "blockunderlock",
	Doc:       doc,
	Requires:  []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	FactTypes: []analysis.Fact{new(blocks)},
	Run:       run,
}

var funcsFlag string

func init() {
	Analyzer.Flags.StringVar(&funcsFlag, "funcs", DefaultFuncs,
		"comma-separated pkg.Type.Method or pkg.Func blocking IO entry points")
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
	sig, _ := fn.Type().(*types.Signature)
	needle := " " + fn.Name() + " "
	if sig != nil && sig.Recv() != nil {
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
// select's communication clauses, and which selects have a default.
type selectMaps struct {
	comm       map[ast.Node]*ast.SelectStmt
	hasDefault map[*ast.SelectStmt]bool
	rangeChan  map[ast.Node]*ast.RangeStmt // range X expr -> the range stmt
}

func collectSelects(info *types.Info, body ast.Node) selectMaps {
	m := selectMaps{
		comm:       map[ast.Node]*ast.SelectStmt{},
		hasDefault: map[*ast.SelectStmt]bool{},
		rangeChan:  map[ast.Node]*ast.RangeStmt{},
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
					m.rangeChan[n.X] = n
				}
			}
		}
		return true
	})
	return m
}

type checker struct {
	pass *analysis.Pass
	ws   []lintutil.FuncPattern
	// blocksOf resolves a callee's summary, local or imported.
	blocksOf func(*types.Func) (string, bool)
}

// classify reports whether node n is a blocking operation, given the select
// maps of its function. Calls through function values are NOT classified
// here (callers decide, since summaries must not propagate them).
func (c *checker) classify(n ast.Node, sel selectMaps) (string, bool) {
	// Operations inside a select's comm clauses are part of the select;
	// the caller classifies the select itself (once, with its default
	// clause taken into account).
	if _, ok := sel.comm[n]; ok {
		return "", false
	}
	if _, ok := sel.rangeChan[n]; ok {
		return "range over channel", true
	}
	switch n := n.(type) {
	case *ast.SendStmt:
		return "channel send", true
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "channel receive", true
		}
	case *ast.CallExpr:
		fn := lintutil.Callee(c.pass.TypesInfo, n)
		if fn == nil {
			return "", false
		}
		if _, _, isMutexOp := lintutil.MutexOp(c.pass.TypesInfo, n); isMutexOp {
			return "", false // nested locking is lockorder's domain
		}
		for _, w := range c.ws {
			if w.Matches(fn) {
				return "call to " + shortName(fn) + " (device/durable IO)", true
			}
		}
		if stdBlockingCall(fn) {
			return "call to " + shortName(fn), true
		}
		if c.blocksOf != nil {
			if op, ok := c.blocksOf(fn); ok {
				return "call to " + shortName(fn) + ", which may block (" + op + ")", true
			}
		}
	}
	return "", false
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	c := &checker{pass: pass, ws: lintutil.ParseFuncPatterns(funcsFlag)}

	summaries := c.summarize(ins)
	c.blocksOf = func(fn *types.Func) (string, bool) {
		if op, ok := summaries[fn]; ok {
			return op, true
		}
		var f blocks
		if pass.ImportObjectFact(fn, &f) {
			return f.Op, true
		}
		return "", false
	}
	for fn, op := range summaries {
		if fn.Pkg() == pass.Pkg {
			pass.ExportObjectFact(fn, &blocks{Op: op})
		}
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
		c.checkFunc(g, body)
	})
	return nil, nil
}

// summarize computes which functions declared in this package may block,
// with a root-cause description, to a fixpoint over same-package calls.
func (c *checker) summarize(ins *inspector.Inspector) map[*types.Func]string {
	info := c.pass.TypesInfo
	type node struct {
		op     string
		locals []*types.Func
	}
	nodes := map[*types.Func]*node{}
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(astn ast.Node) {
		decl := astn.(*ast.FuncDecl)
		if decl.Body == nil {
			return
		}
		fn, ok := info.Defs[decl.Name].(*types.Func)
		if !ok {
			return
		}
		nd := &node{}
		nodes[fn] = nd
		sel := collectSelects(info, decl.Body)
		reportedSel := map[*ast.SelectStmt]bool{}
		ast.Inspect(decl.Body, func(m ast.Node) bool {
			switch m.(type) {
			case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
				return false
			}
			if s, ok := sel.comm[m]; ok && !sel.hasDefault[s] && !reportedSel[s] {
				reportedSel[s] = true
				if nd.op == "" {
					nd.op = "select with no default"
				}
			}
			if op, ok := c.classify(m, sel); ok && nd.op == "" {
				nd.op = op
			}
			if call, ok := m.(*ast.CallExpr); ok {
				if callee := lintutil.Callee(info, call); callee != nil && callee.Pkg() == c.pass.Pkg {
					nd.locals = append(nd.locals, callee)
				}
			}
			return true
		})
	})

	// Fold in cross-package callees' facts and iterate same-package calls
	// to a fixpoint (a function's op can only go from unset to set, so this
	// terminates).
	for changed := true; changed; {
		changed = false
		for _, nd := range nodes {
			if nd.op != "" {
				continue
			}
			for _, callee := range nd.locals {
				if cn, ok := nodes[callee]; ok && cn.op != "" {
					nd.op = "call to " + shortName(callee) + ", which may block (" + cn.op + ")"
					changed = true
					break
				}
				var f blocks
				if c.pass.ImportObjectFact(callee, &f) {
					nd.op = "call to " + shortName(callee) + ", which may block (" + f.Op + ")"
					changed = true
					break
				}
			}
		}
	}

	out := map[*types.Func]string{}
	for fn, nd := range nodes {
		if nd.op != "" {
			out[fn] = rootCause(nd.op)
		}
	}
	return out
}

// rootCause keeps exported fact text bounded: a chain of "call to X, which
// may block (call to Y, which may block (channel send))" collapses to its
// innermost cause.
func rootCause(op string) string {
	for {
		i := strings.Index(op, "may block (")
		if i < 0 {
			return op
		}
		op = strings.TrimSuffix(op[i+len("may block ("):], ")")
	}
}

// checkFunc walks one function with the may-held set and reports blocking
// operations under an exclusive lock.
func (c *checker) checkFunc(g *cfg.CFG, body *ast.BlockStmt) {
	pass := c.pass
	sel := collectSelects(pass.TypesInfo, body)
	reportedSel := map[*ast.SelectStmt]bool{}

	lintutil.WalkHeld(pass.TypesInfo, g, func(n ast.Node, held lintutil.LockSet) {
		lock := exclusiveLock(held)
		if lock == nil {
			return
		}
		if s, ok := sel.comm[n]; ok {
			if !sel.hasDefault[s] && !reportedSel[s] {
				reportedSel[s] = true
				c.report(s, body, held, "select with no default", lock)
			}
			return
		}
		if op, ok := c.classify(n, sel); ok {
			c.report(n, body, held, op, lock)
			return
		}
		// Calls through function values cannot be verified; flag them at
		// the lock site only.
		if call, ok := n.(*ast.CallExpr); ok && isFuncValueCall(pass.TypesInfo, call) {
			c.report(n, body, held, "call through a function value (unverifiable)", lock)
		}
	})
}

// exclusiveLock picks the exclusively-held lock to name in the diagnostic
// (the alphabetically first, for determinism), or nil if none.
func exclusiveLock(held lintutil.LockSet) *types.Var {
	var lock *types.Var
	for v, k := range held {
		if k&lintutil.HeldExcl == 0 {
			continue
		}
		if lock == nil || v.Name() < lock.Name() {
			lock = v
		}
	}
	return lock
}

func isFuncValueCall(info *types.Info, call *ast.CallExpr) bool {
	if lintutil.Callee(info, call) != nil {
		return false
	}
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

func (c *checker) report(n ast.Node, body *ast.BlockStmt, held lintutil.LockSet, op string, lock *types.Var) {
	pass := c.pass
	if lintutil.IsTestFile(pass.Fset, n.Pos()) {
		return
	}
	if reason, ok := lintutil.Directive(pass.Fset, pass.Files, n.Pos(), "allowblock"); ok && reason != "" {
		return
	} else if ok {
		pass.Reportf(n.Pos(), "//lint:allowblock needs a reason")
		return
	}
	d := analysis.Diagnostic{
		Pos:     n.Pos(),
		End:     n.End(),
		Message: fmt.Sprintf("blocking %s while holding %s", op, lock.Name()),
	}
	if fix := c.swapFix(n, body, held); fix != nil {
		d.SuggestedFixes = []analysis.SuggestedFix{*fix}
	}
	pass.Report(d)
}

// swapFix proposes swapping the blocking statement with an immediately
// following Unlock of a held exclusive mutex, when the blocking operation
// is itself a whole simple statement.
func (c *checker) swapFix(n ast.Node, body *ast.BlockStmt, held lintutil.LockSet) *analysis.SuggestedFix {
	info := c.pass.TypesInfo
	var stmt, next ast.Stmt
	ast.Inspect(body, func(m ast.Node) bool {
		blk, ok := m.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, s := range blk.List {
			if s.Pos() > n.Pos() || n.End() > s.End() || i+1 >= len(blk.List) {
				continue
			}
			switch s.(type) {
			case *ast.ExprStmt, *ast.SendStmt, *ast.AssignStmt:
			default:
				continue
			}
			if stmt == nil || (s.Pos() >= stmt.Pos() && s.End() <= stmt.End()) {
				stmt, next = s, blk.List[i+1]
			}
		}
		return true
	})
	if stmt == nil || next == nil {
		return nil
	}
	es, ok := next.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return nil
	}
	v, kind, ok := lintutil.MutexOp(info, call)
	if !ok || kind != lintutil.MutexUnlock || held[v]&lintutil.HeldExcl == 0 {
		return nil
	}
	src := func(from, to token.Pos) []byte {
		file := c.pass.Fset.File(from)
		if file == nil {
			return nil
		}
		content, err := c.pass.ReadFile(file.Name())
		if err != nil {
			return nil
		}
		lo, hi := file.Offset(from), file.Offset(to)
		if lo < 0 || hi > len(content) || lo > hi {
			return nil
		}
		return content[lo:hi]
	}
	stmtText, nextText := src(stmt.Pos(), stmt.End()), src(next.Pos(), next.End())
	if stmtText == nil || nextText == nil {
		return nil
	}
	return &analysis.SuggestedFix{
		Message: fmt.Sprintf("release %s before the blocking operation", v.Name()),
		TextEdits: []analysis.TextEdit{
			{Pos: stmt.Pos(), End: stmt.End(), NewText: nextText},
			{Pos: next.Pos(), End: next.End(), NewText: stmtText},
		},
	}
}
