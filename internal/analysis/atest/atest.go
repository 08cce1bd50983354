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
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// Run analyzes each named package found under dir/src with analyzer a and
// checks the diagnostics against the packages' want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	l := newLoader(filepath.Join(dir, "src"))
	for _, path := range pkgpaths {
		runOne(t, l, a, path)
	}
}

// RunExpectClean analyzes each named package and fails on ANY diagnostic,
// ignoring want comments. It exists for scope/flag tests: the same testdata
// package can carry want comments for one configuration and be asserted
// silent under another.
func RunExpectClean(t *testing.T, dir string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	l := newLoader(filepath.Join(dir, "src"))
	for _, path := range pkgpaths {
		pi, err := l.load(path)
		if err != nil {
			t.Fatalf("%s: load: %v", path, err)
		}
		var diags []analysis.Diagnostic
		if _, err := runGraph(l, a, pi, newFactStore(), &diags); err != nil {
			t.Fatalf("%s: analyzer: %v", path, err)
		}
		for _, d := range diags {
			pos := l.fset.Position(d.Pos)
			t.Errorf("%s:%d: unexpected diagnostic under this configuration: %s", pos.Filename, pos.Line, d.Message)
		}
	}
}

func runOne(t *testing.T, l *loader, a *analysis.Analyzer, path string) {
	t.Helper()
	pi, err := l.load(path)
	if err != nil {
		t.Fatalf("%s: load: %v", path, err)
	}
	facts := newFactStore()

	// Run a over the target's testdata-local dependencies first (in
	// dependency order) so facts about their objects are available, then
	// over the target, collecting diagnostics only from the target.
	var diags []analysis.Diagnostic
	for _, dep := range l.localDepsOf(path) {
		dpi, err := l.load(dep)
		if err != nil {
			t.Fatalf("%s: load dep %s: %v", path, dep, err)
		}
		if _, err := runGraph(l, a, dpi, facts, nil); err != nil {
			t.Fatalf("%s: analyzer on dep %s: %v", path, dep, err)
		}
	}
	if _, err := runGraph(l, a, pi, facts, &diags); err != nil {
		t.Fatalf("%s: analyzer: %v", path, err)
	}

	checkWants(t, l.fset, pi.files, diags)
}

// runGraph runs a and its Requires closure over one package.
func runGraph(l *loader, a *analysis.Analyzer, pi *pkgInfo, facts *factStore, sink *[]analysis.Diagnostic) (interface{}, error) {
	results := map[*analysis.Analyzer]interface{}{}
	var visit func(an *analysis.Analyzer) error
	var order []*analysis.Analyzer
	visiting := map[*analysis.Analyzer]bool{}
	visit = func(an *analysis.Analyzer) error {
		if _, done := results[an]; done || visiting[an] {
			return nil
		}
		visiting[an] = true
		for _, req := range an.Requires {
			if err := visit(req); err != nil {
				return err
			}
		}
		visiting[an] = false
		order = append(order, an)
		results[an] = nil
		return nil
	}
	if err := visit(a); err != nil {
		return nil, err
	}
	var final interface{}
	for _, an := range order {
		pass := l.newPass(an, pi, results, facts)
		if an == a && sink != nil {
			pass.Report = func(d analysis.Diagnostic) { *sink = append(*sink, d) }
		}
		res, err := an.Run(pass)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", an.Name, err)
		}
		if got, want := reflect.TypeOf(res), an.ResultType; want != nil && res != nil && got != want {
			return nil, fmt.Errorf("%s returned %v, want %v", an.Name, got, want)
		}
		results[an] = res
		if an == a {
			final = res
		}
	}
	return final, nil
}

// newPass assembles an analysis.Pass for one analyzer over one package.
func (l *loader) newPass(an *analysis.Analyzer, pi *pkgInfo, results map[*analysis.Analyzer]interface{}, facts *factStore) *analysis.Pass {
	resultOf := map[*analysis.Analyzer]interface{}{}
	for _, req := range an.Requires {
		resultOf[req] = results[req]
	}
	pass := &analysis.Pass{
		Analyzer:   an,
		Fset:       l.fset,
		Files:      pi.files,
		Pkg:        pi.pkg,
		TypesInfo:  pi.info,
		TypesSizes: types.SizesFor("gc", "amd64"),
		ResultOf:   resultOf,
		Report:     func(analysis.Diagnostic) {},
		ReadFile:   os.ReadFile,
		Module:     &analysis.Module{Path: "testdata"},
	}
	pass.ImportObjectFact = func(obj types.Object, f analysis.Fact) bool {
		return facts.importObject(obj, f)
	}
	pass.ExportObjectFact = func(obj types.Object, f analysis.Fact) {
		facts.exportObject(obj, f)
	}
	pass.ImportPackageFact = func(pkg *types.Package, f analysis.Fact) bool {
		return facts.importPackage(pkg, f)
	}
	pass.ExportPackageFact = func(f analysis.Fact) {
		facts.exportPackage(pi.pkg, f)
	}
	pass.AllObjectFacts = func() []analysis.ObjectFact { return facts.allObjects() }
	pass.AllPackageFacts = func() []analysis.PackageFact { return facts.allPackages() }
	return pass
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

// parse is a tiny indirection so loader_test can reuse the parser mode.
func parseFile(fset *token.FileSet, filename string) (*ast.File, error) {
	return parser.ParseFile(fset, filename, nil, parser.ParseComments)
}
