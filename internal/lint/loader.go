package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Fset positions the package's files.
	Fset *token.FileSet
	// Path is the package's import path (module-rooted, e.g.
	// "sqm/internal/field").
	Path string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Pkg is the type-checked package object.
	Pkg *types.Package
	// Info carries the type-checker facts the analyzers consume.
	Info *types.Info
}

// Loader parses and type-checks packages of one module using only the
// standard library: module-internal imports are resolved from source
// in-process, and standard-library imports go through the stdlib's
// source importer (type-checking from $GOROOT/src), so no compiled
// export data or external tooling is required.
//
// Test files (*_test.go) are deliberately excluded from loading: the
// analyzer suite encodes invariants of shipped code, and tests are
// free to use math/rand, exact float comparison against golden values,
// and panics.
type Loader struct {
	// Fset positions all files of this load.
	Fset *token.FileSet

	modRoot string
	modPath string
	std     types.Importer
	pkgs    map[string]*Package // memoized by import path
	loading map[string]bool     // import cycle detection
}

// NewLoader builds a Loader for the module rooted at or above dir
// (located by walking up to the nearest go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		modRoot: root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// ModuleRoot returns the absolute directory containing go.mod.
func (l *Loader) ModuleRoot() string { return l.modRoot }

// findModule walks up from dir to the nearest go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module line in %s/go.mod", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found at or above %s", dir)
		}
		d = parent
	}
}

// Load resolves the given patterns ("./...", "./sub/...", "./sub",
// relative to base) and returns the matched packages, type-checked,
// sorted by import path. base must lie inside the module.
func (l *Loader) Load(base string, patterns ...string) ([]*Package, error) {
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		rec := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			rec = true
			pat = rest
			if pat == "" || pat == "." {
				pat = "."
			}
		}
		dir := filepath.Join(base, pat)
		if !strings.HasPrefix(dir+string(filepath.Separator), l.modRoot+string(filepath.Separator)) {
			return nil, fmt.Errorf("lint: pattern %q escapes module root %s", pat, l.modRoot)
		}
		if rec {
			if err := walkPackageDirs(dir, dirs); err != nil {
				return nil, err
			}
		} else {
			names, err := goFiles(dir)
			if err != nil {
				return nil, err
			}
			if len(names) == 0 {
				return nil, fmt.Errorf("lint: no Go files in %s", dir)
			}
			dirs[dir] = true
		}
	}
	var paths []string
	for dir := range dirs {
		paths = append(paths, l.dirImportPath(dir))
	}
	sort.Strings(paths)
	var pkgs []*Package
	for _, path := range paths {
		p, err := l.importPath(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadDir type-checks the single directory dir (which may live under
// testdata, outside the module's package tree) as if its import path
// were asPath. Module-internal imports in the directory's files
// resolve against the enclosing module, so fixture files can import
// real sqm packages.
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.checkDir(abs, asPath)
}

// dirImportPath maps an absolute directory under the module root to
// its import path.
func (l *Loader) dirImportPath(dir string) string {
	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil || rel == "." {
		return l.modPath
	}
	return l.modPath + "/" + filepath.ToSlash(rel)
}

// walkPackageDirs collects every directory at or below root that holds
// a Go file goFiles selects, skipping testdata, vendor, hidden
// directories, and node_modules.
func walkPackageDirs(root string, out map[string]bool) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || name == "node_modules" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := goFiles(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			out[path] = true
		}
		return nil
	})
}

// goFiles returns the non-test Go files of dir that a default `go build`
// compiles, sorted by name: go/build applies the _GOOS/_GOARCH file
// name suffixes and the //go:build (or legacy +build) lines. A
// directory with no such file yields none and no error.
func goFiles(dir string) ([]string, error) {
	p, err := build.Default.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return p.GoFiles, nil
}

// Import implements types.Importer so the type-checker can resolve the
// imports of whatever package is being checked: module-internal paths
// are loaded from source, everything else is delegated to the stdlib
// source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.Pkg, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		p, err := l.importPath(path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.Import(path)
}

// importPath loads a module-internal package by import path.
func (l *Loader) importPath(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
	dir := filepath.Join(l.modRoot, filepath.FromSlash(rel))
	l.loading[path] = true
	p, err := l.checkDir(dir, path)
	delete(l.loading, path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// maxTypeErrors caps how many type errors a broken package's load
// error spells out before eliding the rest.
const maxTypeErrors = 5

// checkDir parses and type-checks the Go files goFiles selects in dir
// under the import path asPath. A package that fails to type-check is
// reported with up to maxTypeErrors collected errors rather than just
// the first.
func (l *Loader) checkDir(dir, asPath string) (*Package, error) {
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var (
		typeErrs []string
		nErrs    int
	)
	conf := &types.Config{
		Importer: l,
		Error: func(err error) {
			nErrs++
			if len(typeErrs) < maxTypeErrors {
				typeErrs = append(typeErrs, err.Error())
			}
		},
	}
	pkg, err := conf.Check(asPath, l.Fset, files, info)
	if err != nil {
		msg := strings.Join(typeErrs, "\n\t")
		if msg == "" {
			msg = err.Error()
		}
		if nErrs > len(typeErrs) {
			msg += fmt.Sprintf("\n\t... and %d more", nErrs-len(typeErrs))
		}
		return nil, fmt.Errorf("lint: type-checking %s failed with %d error(s):\n\t%s", asPath, max(nErrs, 1), msg)
	}
	return &Package{Fset: l.Fset, Path: asPath, Dir: dir, Files: files, Pkg: pkg, Info: info}, nil
}
