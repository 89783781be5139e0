// The module loader: parse and type-check every package in a Go module
// using only the standard library. Module-internal imports resolve
// against the loader's own package map (checked in dependency order);
// standard-library imports go through go/importer's source compiler,
// which type-checks GOROOT sources directly — no export data, no
// golang.org/x/tools, no network. Cgo is disabled so packages like net
// resolve to their pure-Go variants.
package vet

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/fsutil"
)

// Package is one parsed, type-checked package of the module under
// analysis.
type Package struct {
	Dir   string // absolute directory
	Path  string // import path (modulePath/relative-dir)
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Module is the whole loaded module.
type Module struct {
	Root   string // absolute module root (directory holding go.mod)
	Path   string // module path from go.mod
	Fset   *token.FileSet
	Pkgs   []*Package // dependency order (imports before importers)
	ByPath map[string]*Package
}

// sharedFset is one process-wide FileSet: the stdlib source importer is
// bound to its FileSet, and sharing one lets every Load in a process
// (driver run, self-test, fixture tests) reuse the same type-checked
// standard library instead of re-checking it per module.
var (
	sharedFset = token.NewFileSet()
	stdOnce    sync.Once
	stdImp     types.ImporterFrom
)

func stdImporter() types.ImporterFrom {
	stdOnce.Do(func() {
		build.Default.CgoEnabled = false
		stdImp = importer.ForCompiler(sharedFset, "source", nil).(types.ImporterFrom)
	})
	return stdImp
}

// loadMu serializes Load calls: the shared source importer is not safe
// for concurrent use.
var loadMu sync.Mutex

// Load parses and type-checks the module rooted at dir (which must
// contain a go.mod). Only non-test files that build on the current
// platform are included; testdata and hidden directories are skipped.
func Load(root string) (*Module, error) {
	loadMu.Lock()
	defer loadMu.Unlock()

	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{Root: root, Path: modPath, Fset: sharedFset, ByPath: make(map[string]*Package)}

	ctx := build.Default
	ctx.CgoEnabled = false

	type src struct {
		pkg     *Package
		imports []string
	}
	srcs := make(map[string]*src)
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := ctx.ImportDir(p, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			// A directory holding only test files (the repo root's e2e and
			// bench suites) is not a loadable package either.
			if strings.Contains(err.Error(), "no buildable Go source files") {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		imp := modPath
		if rel != "." {
			imp = modPath + "/" + filepath.ToSlash(rel)
		}
		s := &src{pkg: &Package{Dir: p, Path: imp}, imports: bp.Imports}
		for _, f := range bp.GoFiles {
			af, err := parser.ParseFile(m.Fset, filepath.Join(p, f), nil, parser.ParseComments)
			if err != nil {
				return err
			}
			s.pkg.Files = append(s.pkg.Files, af)
		}
		srcs[imp] = s
		return nil
	})
	if err != nil {
		return nil, err
	}

	std := stdImporter()
	checking := make(map[string]bool)
	var check func(path string) (*types.Package, error)
	check = func(path string) (*types.Package, error) {
		if p, ok := m.ByPath[path]; ok {
			return p.Pkg, nil
		}
		s, ok := srcs[path]
		if !ok {
			return nil, fmt.Errorf("vet: import %q not found in module %s", path, modPath)
		}
		if checking[path] {
			return nil, fmt.Errorf("vet: import cycle through %q", path)
		}
		checking[path] = true
		defer delete(checking, path)
		for _, im := range s.imports {
			if im == modPath || strings.HasPrefix(im, modPath+"/") {
				if _, err := check(im); err != nil {
					return nil, err
				}
			}
		}
		conf := types.Config{
			Importer: importerFunc(func(ipath, dir string) (*types.Package, error) {
				if ipath == modPath || strings.HasPrefix(ipath, modPath+"/") {
					return check(ipath)
				}
				return std.ImportFrom(ipath, dir, 0)
			}),
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		tpkg, err := conf.Check(path, m.Fset, s.pkg.Files, info)
		if err != nil {
			return nil, fmt.Errorf("vet: type-checking %s: %w", path, err)
		}
		s.pkg.Pkg, s.pkg.Info = tpkg, info
		m.ByPath[path] = s.pkg
		m.Pkgs = append(m.Pkgs, s.pkg)
		return tpkg, nil
	}

	paths := make([]string, 0, len(srcs))
	for p := range srcs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := check(p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func modulePath(gomod string) (string, error) {
	data, err := fsutil.OS.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("vet: module root: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			name := strings.TrimSpace(rest)
			name = strings.Trim(name, `"`)
			if name != "" {
				return name, nil
			}
		}
	}
	return "", fmt.Errorf("vet: no module directive in %s", gomod)
}

type importerFunc func(path, dir string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path, "") }
func (f importerFunc) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	return f(path, dir)
}
