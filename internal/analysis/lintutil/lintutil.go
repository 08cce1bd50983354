// Package lintutil holds the small amount of machinery shared by the iolint
// analyzers: import-path scope matching, `//lint:` directive comments and
// the one escape-hatch rule, callee and receiver resolution, the
// entry-point patterns their watched lists are written in, and the shapes
// of a discarded error. Each analyzer names its scope and entry points in
// unexported constants, comma-separated lists that encode this repo's
// layering, so the invariants stay data, not code; an analyzer's testdata
// models those import paths.
package lintutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/ast/inspector"
)

// Scope is a comma-separated list of package patterns, each optionally
// narrowed to a single file: `pkg` or `pkg:file.go`. A package pattern
// matches an import path if it equals the path or is a suffix starting at a
// '/' boundary, so `internal/wal` matches `iomodels/internal/wal` but not
// `iomodels/internal/walx`.
type Scope struct {
	entries []scopeEntry
}

type scopeEntry struct {
	pkg  string
	file string // base name; empty = whole package
}

// ParseScope parses a comma-separated scope list.
func ParseScope(s string) Scope {
	var sc Scope
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		pkg, file := ent, ""
		if i := strings.IndexByte(ent, ':'); i >= 0 {
			pkg, file = ent[:i], ent[i+1:]
		}
		sc.entries = append(sc.entries, scopeEntry{pkg: pkg, file: file})
	}
	return sc
}

// PkgMatch reports whether a package pattern matches the import path at a
// path-segment boundary.
func PkgMatch(pattern, path string) bool {
	if pattern == path {
		return true
	}
	return strings.HasSuffix(path, "/"+pattern)
}

// Contains reports whether the file filename (base name) of package pkgPath
// falls inside the scope.
func (sc Scope) Contains(pkgPath, filename string) bool {
	for _, e := range sc.entries {
		if !PkgMatch(e.pkg, pkgPath) {
			continue
		}
		if e.file == "" || e.file == filename {
			return true
		}
	}
	return false
}

// ContainsPkg reports whether any entry matches the package as a whole
// (ignoring file narrowing).
func (sc Scope) ContainsPkg(pkgPath string) bool {
	for _, e := range sc.entries {
		if PkgMatch(e.pkg, pkgPath) {
			return true
		}
	}
	return false
}

// FileBase returns the base name of the file containing pos.
func FileBase(fset *token.FileSet, pos token.Pos) string {
	name := fset.Position(pos).Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// Report reports a diagnostic at pos under the analyzers' one escape-hatch
// rule. Tests are exempt: they exercise failure paths and internals on
// purpose, so nothing is reported in a _test.go file. A `//lint:<hatch>
// <reason>` directive on pos's line or the line above waives the
// diagnostic; a hatch that gives no reason is reported in its place, since
// the hatch exists to document intent, not to silence the analyzer. An
// empty hatch means the diagnostic has none.
func Report(pass *analysis.Pass, pos token.Pos, hatch, format string, args ...any) {
	if strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go") {
		return
	}
	if reason, ok := directive(pass.Fset, pass.Files, pos, hatch); ok {
		if reason == "" {
			pass.Reportf(pos, "//lint:%s needs a reason", hatch)
		}
		return
	}
	pass.Reportf(pos, format, args...)
}

// DirectiveArg reports whether comment text is the directive
// `//lint:<name>`, followed by whitespace or nothing, and returns the
// argument text after it, trimmed.
func DirectiveArg(text, name string) (string, bool) {
	rest, ok := strings.CutPrefix(text, "//lint:"+name)
	if !ok || rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false // e.g. //lint:allowpanicky
	}
	return strings.TrimSpace(rest), true
}

// directive finds a `//lint:<name>` directive on the line of pos or the
// line immediately above it and returns its argument text.
func directive(fset *token.FileSet, files []*ast.File, pos token.Pos, name string) (string, bool) {
	tf := fset.File(pos)
	if tf == nil || name == "" {
		return "", false
	}
	line := tf.Line(pos)
	for _, f := range files {
		if fset.File(f.Pos()) != tf {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if cl := tf.Line(c.Pos()); cl != line && cl != line-1 {
					continue
				}
				if arg, ok := DirectiveArg(c.Text, name); ok {
					return arg, true
				}
			}
		}
	}
	return "", false
}

// Callee resolves the called function or method of call, looking through
// interface method selections. It returns nil for calls to builtins,
// function-typed variables, and type conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj() // method value or interface method
		} else {
			obj = info.Uses[fun.Sel] // qualified identifier pkg.Func
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// Named returns the named type behind t, looking through one pointer, or
// nil when there is none.
func Named(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// RecvNamed returns the named type of fn's receiver, behind an optional
// pointer; nil for a package-level function.
func RecvNamed(fn *types.Func) *types.Named {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return Named(recv.Type())
	}
	return nil
}

// FuncPattern is one entry of an analyzer's configured entry points:
// pkg.Func or pkg.Type.Method. Pkg is a package pattern (see PkgMatch) and
// may itself contain '/'. An analyzer that watches whole types writes
// pkg.Type, which parses as a Func pattern whose Name is the type.
type FuncPattern struct {
	Pkg  string
	Recv string // receiver type name; empty for package-level funcs
	Name string
}

// ParseFuncPatterns parses a comma-separated pattern list. The receiver and
// name are the last one or two dot-separated fields after the final slash;
// entries of any other shape are dropped.
func ParseFuncPatterns(s string) []FuncPattern {
	var ps []FuncPattern
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		slash := strings.LastIndexByte(ent, '/') + 1
		parts := strings.Split(ent[slash:], ".")
		pkg := ent[:slash] + parts[0]
		switch len(parts) {
		case 2:
			ps = append(ps, FuncPattern{Pkg: pkg, Name: parts[1]})
		case 3:
			ps = append(ps, FuncPattern{Pkg: pkg, Recv: parts[1], Name: parts[2]})
		}
	}
	return ps
}

// Matches reports whether fn is the function or method p names.
func (p FuncPattern) Matches(fn *types.Func) bool {
	if fn.Name() != p.Name || fn.Pkg() == nil || !PkgMatch(p.Pkg, fn.Pkg().Path()) {
		return false
	}
	if p.Recv == "" {
		return fn.Type().(*types.Signature).Recv() == nil
	}
	named := RecvNamed(fn)
	return named != nil && named.Obj().Name() == p.Recv
}

// IsBuiltin reports whether call invokes the named builtin (e.g. "panic").
func IsBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// Discards calls report for every call match resolves (non-nil) whose
// error is discarded: the call as a bare statement ("discarded"), its last
// result assigned to _ ("assigned to _"), or the call run by go or defer
// ("unobservable in go statement", "unobservable in defer").
func Discards(ins *inspector.Inspector, match func(*ast.CallExpr) *types.Func, report func(call *ast.CallExpr, fn *types.Func, how string)) {
	check := func(call *ast.CallExpr, how string) {
		if fn := match(call); fn != nil {
			report(call, fn, how)
		}
	}
	ins.Preorder([]ast.Node{
		(*ast.ExprStmt)(nil), (*ast.AssignStmt)(nil),
		(*ast.GoStmt)(nil), (*ast.DeferStmt)(nil),
	}, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				check(call, "discarded")
			}
		case *ast.GoStmt:
			check(st.Call, "unobservable in go statement")
		case *ast.DeferStmt:
			check(st.Call, "unobservable in defer")
		case *ast.AssignStmt:
			// f() as the sole RHS: the error is the last LHS position.
			if call, ok := st.Rhs[0].(*ast.CallExpr); ok && len(st.Rhs) == 1 {
				if isBlank(st.Lhs[len(st.Lhs)-1]) {
					check(call, "assigned to _")
				}
				return
			}
			// Parallel assignment a, b = f(), g(): single-valued calls line
			// up 1:1 with the LHS.
			for i, rhs := range st.Rhs {
				if call, ok := rhs.(*ast.CallExpr); ok && len(st.Lhs) == len(st.Rhs) && isBlank(st.Lhs[i]) {
					check(call, "assigned to _")
				}
			}
		}
	})
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
