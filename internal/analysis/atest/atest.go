// Package atest is an offline analysistest: it runs a go/analysis analyzer
// over GOPATH-style packages under a testdata/src tree and checks reported
// diagnostics against `// want "regexp"` comments, the same convention as
// golang.org/x/tools/go/analysis/analysistest.
//
// The real analysistest needs go/packages, which cannot be vendored from
// the toolchain; this one loads packages with go/parser + go/types
// directly. Imports resolve in two tiers: paths that exist as directories
// under testdata/src are parsed and type-checked from source (so test
// packages can model multi-package invariants, e.g. cross-package facts),
// and everything else is imported from the toolchain's compiled export
// data, located with `go list -export`.
//
// Analyzer dependency graphs (Requires) run in topological order, and the
// target analyzer also runs over the target's testdata-local dependencies
// first, so object facts flow between test packages exactly as they do
// under the unitchecker.
package atest

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// Run analyzes each named package found under dir/src with analyzer a and
// checks the diagnostics against the packages' want comments: a package
// with none must produce no diagnostic at all.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	l := newLoader(filepath.Join(dir, "src"))
	for _, path := range pkgpaths {
		pi, err := l.load(path)
		if err != nil {
			t.Fatalf("%s: load: %v", path, err)
		}
		// Run a over the target's testdata-local dependencies first (in
		// dependency order) so facts about their objects are available,
		// then over the target, collecting diagnostics only from the target.
		facts := factStore{}
		for _, dep := range l.localDepsOf(path) {
			if err := runGraph(l, a, l.pkgs[dep], facts, nil); err != nil {
				t.Fatalf("%s: analyzer on dep %s: %v", path, dep, err)
			}
		}
		var diags []analysis.Diagnostic
		if err := runGraph(l, a, pi, facts, &diags); err != nil {
			t.Fatalf("%s: analyzer: %v", path, err)
		}
		checkWants(t, l.fset, pi.files, diags)
	}
}

// factStore holds object facts in memory. The unitchecker gob-encodes facts
// between packages; inside one Run the packages share a store, which gives
// the same visibility (facts about a dependency's objects are readable when
// analyzing an importer) without serialization. A fact replaces any of the
// same concrete type, mirroring ExportObjectFact.
type factStore map[types.Object][]analysis.Fact

func (s factStore) export(obj types.Object, f analysis.Fact) {
	for i, old := range s[obj] {
		if reflect.TypeOf(old) == reflect.TypeOf(f) {
			s[obj][i] = f
			return
		}
	}
	s[obj] = append(s[obj], f)
}

// lookup copies the stored fact of ptr's type into ptr.
func (s factStore) lookup(obj types.Object, ptr analysis.Fact) bool {
	for _, old := range s[obj] {
		if reflect.TypeOf(old) == reflect.TypeOf(ptr) {
			reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(old).Elem())
			return true
		}
	}
	return false
}

// runGraph runs a and its Requires closure over one package, reporting a's
// diagnostics into sink (discarded when nil).
func runGraph(l *loader, a *analysis.Analyzer, pi *pkgInfo, facts factStore, sink *[]analysis.Diagnostic) error {
	results := map[*analysis.Analyzer]interface{}{}
	var run func(an *analysis.Analyzer) error
	run = func(an *analysis.Analyzer) error {
		if _, done := results[an]; done {
			return nil
		}
		resultOf := map[*analysis.Analyzer]interface{}{}
		for _, req := range an.Requires {
			if err := run(req); err != nil {
				return err
			}
			resultOf[req] = results[req]
		}
		pass := &analysis.Pass{
			Analyzer:         an,
			Fset:             l.fset,
			Files:            pi.files,
			Pkg:              pi.pkg,
			TypesInfo:        pi.info,
			TypesSizes:       types.SizesFor("gc", "amd64"),
			ResultOf:         resultOf,
			Report:           func(analysis.Diagnostic) {},
			ReadFile:         os.ReadFile,
			Module:           &analysis.Module{Path: modulePath(pi.pkg.Path())},
			ImportObjectFact: facts.lookup,
			ExportObjectFact: facts.export,
		}
		if an == a && sink != nil {
			pass.Report = func(d analysis.Diagnostic) { *sink = append(*sink, d) }
		}
		res, err := an.Run(pass)
		if err != nil {
			return fmt.Errorf("%s: %v", an.Name, err)
		}
		results[an] = res
		return nil
	}
	return run(a)
}

// checkWants matches diagnostics against `// want "re"` comments. Each
// expectation is a Go-quoted regular expression on the line the diagnostic
// is expected; multiple per line are allowed.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	wants, err := parseWants(fset, files)
	if err != nil {
		t.Fatal(err)
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := posKey{filepath.Base(pos.Filename), pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	var keys []posKey
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.used {
				t.Errorf("%s:%d: expected diagnostic matching %q was not reported", k.file, k.line, w.re)
			}
		}
	}
}

// modulePath is the module of a testdata package: its path's first element,
// so that mod/x and mod/y are one module and blockdep another.
func modulePath(pkgPath string) string {
	first, _, _ := strings.Cut(pkgPath, "/")
	return first
}
