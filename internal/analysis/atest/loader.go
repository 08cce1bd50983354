// The package loader: testdata/src packages from source, everything else
// from the toolchain's export data via `go list -export`.

package atest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

type pkgInfo struct {
	pkg     *types.Package
	files   []*ast.File
	info    *types.Info
	imports []string // import paths as written, in file order
}

type loader struct {
	fset *token.FileSet
	src  string // testdata/src root
	pkgs map[string]*pkgInfo
	std  types.Importer
}

func newLoader(src string) *loader {
	fset := token.NewFileSet()
	l := &loader{
		fset: fset,
		src:  src,
		pkgs: map[string]*pkgInfo{},
	}
	l.std = importer.ForCompiler(fset, "gc", exportLookup)
	return l
}

// exportLookup locates compiled export data for a non-testdata package with
// `go list -export`, caching per path. The toolchain builds export data in
// its own cache, so this works offline.
var (
	exportMu    sync.Mutex
	exportPaths = map[string]string{}
)

func exportLookup(path string) (io.ReadCloser, error) {
	exportMu.Lock()
	file, ok := exportPaths[path]
	exportMu.Unlock()
	if !ok {
		out, err := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path).Output()
		if err != nil {
			msg := ""
			if ee, isExit := err.(*exec.ExitError); isExit {
				msg = ": " + strings.TrimSpace(string(ee.Stderr))
			}
			return nil, fmt.Errorf("go list -export %s: %v%s", path, err, msg)
		}
		file = strings.TrimSpace(string(out))
		if file == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		exportMu.Lock()
		exportPaths[path] = file
		exportMu.Unlock()
	}
	return os.Open(file)
}

// isLocal reports whether path is a package under testdata/src.
func (l *loader) isLocal(path string) bool {
	fi, err := os.Stat(filepath.Join(l.src, filepath.FromSlash(path)))
	return err == nil && fi.IsDir()
}

// load parses and type-checks one testdata package (memoized).
func (l *loader) load(path string) (*pkgInfo, error) {
	if pi, ok := l.pkgs[path]; ok {
		return pi, nil
	}
	dir := filepath.Join(l.src, filepath.FromSlash(path))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	pi := &pkgInfo{}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pi.files = append(pi.files, f)
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			pi.imports = append(pi.imports, p)
		}
	}
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) {
			if l.isLocal(p) {
				dep, err := l.load(p)
				if err != nil {
					return nil, err
				}
				return dep.pkg, nil
			}
			return l.std.Import(p)
		}),
	}
	pi.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	pkg, err := conf.Check(path, l.fset, pi.files, pi.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", path, err)
	}
	pi.pkg = pkg
	l.pkgs[path] = pi
	return pi, nil
}

// localDepsOf returns the testdata-local dependencies of path in
// topological (dependencies-first) order, excluding path itself.
func (l *loader) localDepsOf(path string) []string {
	var order []string
	seen := map[string]bool{path: true}
	var visit func(p string)
	visit = func(p string) {
		pi, err := l.load(p)
		if err != nil {
			return
		}
		for _, imp := range pi.imports {
			if !seen[imp] && l.isLocal(imp) {
				seen[imp] = true
				visit(imp)
				order = append(order, imp)
			}
		}
	}
	visit(path)
	return order
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
