package analysis

import (
	"bytes"
	"encoding/json"
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
	"slices"
	"sort"
	"strings"
)

// The loader builds typed syntax for analysis without golang.org/x/tools
// (which this module deliberately has no dependency on): it shells out to
// `go list -export` for package metadata and compiled export data, parses
// the target packages' source with go/parser, and typechecks them with
// go/types using a gc-export-data importer. Export data comes from the build
// cache, so repeated runs only pay for parsing and typechecking the targets.

// Package is one loaded, parsed, and typechecked package.
type Package struct {
	// PkgPath is the import path with any test-variant suffix
	// ("pkg [pkg.test]") stripped.
	PkgPath string
	Fset    *token.FileSet
	// Files holds the parsed syntax, with comments, for the package's
	// non-test and in-package test files. External test packages
	// (package foo_test) are not loaded.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects typechecking problems. Analyzers still run on
	// packages with type errors (the syntax is intact), but drivers should
	// surface them: a finding is only trustworthy when its package checked
	// cleanly.
	TypeErrors []error
}

// listedPackage mirrors the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath  string
	Dir         string
	Export      string
	GoFiles     []string
	TestGoFiles []string
	ImportMap   map[string]string
	Standard    bool
	DepOnly     bool
	ForTest     string
	Error       *listedError
}

// listedError mirrors `go list -e`'s per-package error record.
type listedError struct {
	Err string
}

// stripTestVariant turns "pkg [pkg.test]" into "pkg".
func stripTestVariant(importPath string) string {
	if i := strings.IndexByte(importPath, ' '); i >= 0 {
		return importPath[:i]
	}
	return importPath
}

// Load lists patterns with the go tool (run in dir), then parses and
// typechecks every matched package. Test variants are folded in: a package
// with in-package test files is loaded once, with those files included.
// A pattern that matches a broken package — no Go files, unparseable
// metadata — is a hard error naming the package, not a silent skip: the
// caller was asked to check it and cannot.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps", "-test",
		"-json=ImportPath,Dir,Export,GoFiles,TestGoFiles,ImportMap,Standard,DepOnly,ForTest,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string) // import path -> export data file
	importMaps := make(map[string]map[string]string)
	var candidates []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if len(p.ImportMap) > 0 {
			importMaps[p.ImportPath] = p.ImportMap
		}
		if p.DepOnly || p.Standard {
			continue
		}
		if strings.HasSuffix(p.ImportPath, ".test") {
			continue // synthesized test main
		}
		base := stripTestVariant(p.ImportPath)
		if p.ForTest != "" && p.ForTest != base {
			continue // external test package (foo_test); not analyzed
		}
		// `go list -e` reports matched-but-broken packages (a directory
		// with no Go files, a malformed go file set) as error entries and
		// keeps going. Those are packages the caller asked to check and we
		// cannot, so they are load failures, not skips.
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, strings.TrimSpace(p.Error.Err))
		}
		candidates = append(candidates, p)
	}

	// Prefer the internal-test variant ("pkg [pkg.test]", whose GoFiles
	// already include the in-package test files) over the plain package.
	byPath := make(map[string]*listedPackage)
	var order []string
	for _, p := range candidates {
		base := stripTestVariant(p.ImportPath)
		prev, ok := byPath[base]
		if !ok {
			byPath[base] = p
			order = append(order, base)
			continue
		}
		if prev.ForTest == "" && p.ForTest != "" {
			byPath[base] = p
		}
	}
	sort.Strings(order)

	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports, importMaps)
	var pkgs []*Package
	for _, base := range order {
		lp := byPath[base]
		pkg, err := typecheck(fset, imp, base, lp)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("no Go packages matched %s", strings.Join(patterns, " "))
	}
	return pkgs, nil
}

func typecheck(fset *token.FileSet, imp *exportImporter, pkgPath string, lp *listedPackage) (*Package, error) {
	files := append([]string{}, lp.GoFiles...)
	for _, f := range lp.TestGoFiles {
		if !slices.Contains(files, f) {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil, nil
	}
	pkg := &Package{PkgPath: pkgPath, Fset: fset}
	for _, name := range files {
		af, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", filepath.Join(lp.Dir, name), err)
		}
		pkg.Files = append(pkg.Files, af)
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: imp.forPackage(lp.ImportPath),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check never fails hard: errors are collected on the package and the
	// (possibly partial) type information still feeds the analyzers.
	pkg.Types, _ = conf.Check(pkgPath, fset, pkg.Files, pkg.Info)
	return pkg, nil
}

// exportImporter resolves imports from the export-data files reported by
// `go list -export`, honoring per-package ImportMap vendor/test translation.
type exportImporter struct {
	exports    map[string]string
	importMaps map[string]map[string]string
	current    map[string]string // ImportMap of the package being checked
	gc         types.ImporterFrom
}

func newExportImporter(fset *token.FileSet, exports map[string]string, importMaps map[string]map[string]string) *exportImporter {
	e := &exportImporter{exports: exports, importMaps: importMaps}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := e.current[path]; ok {
			path = mapped
		}
		file, ok := e.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	e.gc = importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
	return e
}

// forPackage returns a types.Importer view with the given package's
// ImportMap active. The underlying gc importer (and its package cache) is
// shared across all packages in the load.
func (e *exportImporter) forPackage(importPath string) types.Importer {
	return importerFunc(func(path string) (*types.Package, error) {
		e.current = e.importMaps[importPath]
		return e.gc.ImportFrom(path, "", 0)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
