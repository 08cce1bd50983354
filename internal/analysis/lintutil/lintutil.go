// Package lintutil holds the small amount of machinery shared by the iolint
// analyzers: import-path scope matching, `//lint:` directive comments,
// callee and receiver resolution, and the entry-point patterns their flags
// are written in. Every analyzer in internal/analysis is configured with
// comma-separated scope lists so the invariants stay data, not code; the
// defaults encode this repo's layering and the flags let analyzer tests (and
// future packages) rescope without edits.
package lintutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
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

// IsTestFile reports whether pos is inside a _test.go file. The analyzers
// exempt tests: they exercise failure paths and internals on purpose.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// Directive scans file comments for a `//lint:<name> <reason>` directive
// attached to the line of pos or the line immediately above it, returning
// the reason text. ok reports whether the directive was found at all; a
// found directive with an empty reason is a misuse the caller should
// diagnose rather than honor.
func Directive(fset *token.FileSet, files []*ast.File, pos token.Pos, name string) (reason string, ok bool) {
	tf := fset.File(pos)
	if tf == nil {
		return "", false
	}
	line := tf.Line(pos)
	prefix := "//lint:" + name
	for _, f := range files {
		if fset.File(f.Pos()) != tf {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, prefix) {
					continue
				}
				cl := tf.Line(c.Pos())
				if cl != line && cl != line-1 {
					continue
				}
				rest := strings.TrimPrefix(c.Text, prefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:allowpanicky
				}
				return strings.TrimSpace(rest), true
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
