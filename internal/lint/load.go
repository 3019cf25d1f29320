package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path  string
	Name  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Generated marks files carrying the standard "Code generated …
	// DO NOT EDIT." header. They still type-check (they may define symbols
	// the rest of the package needs) but diagnostics inside them are
	// suppressed: a generator's output is fixed by re-running the
	// generator, not by hand-editing lint findings into it.
	Generated map[string]bool
}

// listedPackage is the subset of `go list -deps -json` output the loader
// needs. Deps (the transitive import closure) drives the topological
// type-checking order: a package is checked only after everything it
// imports. DepOnly marks a package listed only because a matched package
// imports it.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Deps       []string
	Standard   bool
	DepOnly    bool
}

// Load resolves patterns (e.g. "./...") via the go command, then parses and
// type-checks each matched package, returning them in dependency order
// (imported packages before their importers). Every non-standard package in the
// patterns' import closure is type-checked exactly once, dependencies
// first, and its importers resolve it to that one check; packages listed
// only as dependencies are checked but not returned. Standard-library
// imports go to the source importer, so no pre-built export data — and no
// module dependency beyond the toolchain itself — is required. dir is the
// module directory to resolve patterns in ("" = current directory).
func Load(dir string, patterns ...string) ([]*Package, error) {
	return LoadTags(dir, nil, patterns...)
}

// LoadTags is Load with explicit build tags. Passing "simdebug" loads the
// assertion-build sources (and drops their stub counterparts), so analyzers
// see debug-only state and code paths that the default build hides.
func LoadTags(dir string, tags []string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := []string{"list"}
	if len(tags) > 0 {
		args = append(args, "-tags", strings.Join(tags, ","))
	}
	args = append(args, "-deps", "-json", "--")
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var listed []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if !lp.Standard && len(lp.GoFiles) > 0 {
			listed = append(listed, lp)
		}
	}
	topoSort(listed)

	fset := token.NewFileSet()
	imp := &chainImporter{
		base:   importer.ForCompiler(fset, "source", nil),
		loaded: make(map[string]*types.Package),
	}
	var pkgs []*Package
	for _, lp := range listed {
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		pkg, err := check(fset, imp, lp.ImportPath, lp.Dir, files)
		if err != nil {
			return nil, err
		}
		imp.loaded[lp.ImportPath] = pkg.Types
		if !lp.DepOnly {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// topoSort orders listed packages dependencies-first, with lexicographic
// import-path order among packages whose dependencies are all satisfied
// (deterministic output for deterministic diagnostics). Deps is transitive,
// which only adds redundant edges — the relation stays acyclic.
func topoSort(listed []listedPackage) {
	index := make(map[string]int, len(listed))
	for i, lp := range listed {
		index[lp.ImportPath] = i
	}
	indegree := make([]int, len(listed))
	dependents := make([][]int, len(listed))
	for i, lp := range listed {
		for _, d := range lp.Deps {
			if j, ok := index[d]; ok {
				indegree[i]++
				dependents[j] = append(dependents[j], i)
			}
		}
	}
	var ready []int
	for i := range listed {
		if indegree[i] == 0 {
			ready = append(ready, i)
		}
	}
	ordered := make([]listedPackage, 0, len(listed))
	for len(ready) > 0 {
		sort.Slice(ready, func(a, b int) bool {
			return listed[ready[a]].ImportPath < listed[ready[b]].ImportPath
		})
		i := ready[0]
		ready = ready[1:]
		ordered = append(ordered, listed[i])
		for _, dep := range dependents[i] {
			if indegree[dep]--; indegree[dep] == 0 {
				ready = append(ready, dep)
			}
		}
	}
	// A cycle cannot happen in compiled Go code; keep any leftovers rather
	// than dropping them so a corrupt go list output still surfaces.
	if len(ordered) == len(listed) {
		copy(listed, ordered)
	}
}

// DirSpec names one directory to load as a package with a chosen import
// path. Analyzers gate on import paths, so testdata packages impersonate
// sim-core paths through it.
type DirSpec struct {
	Dir  string
	Path string
}

// LoadDir parses and type-checks the non-test .go files of one directory,
// assigning the package the import path asPath. Build-constrained files are
// matched against the default (tag-less) build context.
func LoadDir(dir, asPath string) (*Package, error) {
	pkgs, err := LoadDirs(nil, DirSpec{Dir: dir, Path: asPath})
	if err != nil {
		return nil, err
	}
	return pkgs[0], nil
}

// LoadDirs loads several directories in order under chosen import paths,
// making each loaded package importable by the ones after it — the test
// loader for cross-package fact analyzers. Build-constrained files are
// included or skipped per tags (nil = default build).
func LoadDirs(tags []string, specs ...DirSpec) ([]*Package, error) {
	fset := token.NewFileSet()
	imp := &chainImporter{
		base:   importer.ForCompiler(fset, "source", nil),
		loaded: make(map[string]*types.Package),
	}
	ctx := build.Default
	ctx.BuildTags = append([]string(nil), tags...)
	var pkgs []*Package
	for _, spec := range specs {
		files, err := matchDirFiles(&ctx, spec.Dir)
		if err != nil {
			return nil, err
		}
		pkg, err := check(fset, imp, spec.Path, spec.Dir, files)
		if err != nil {
			return nil, err
		}
		imp.loaded[spec.Path] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// matchDirFiles lists dir's non-test .go files that match the build context.
func matchDirFiles(ctx *build.Context, dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: reading %s: %w", dir, err)
	}
	var files []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := ctx.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("lint: matching %s: %w", name, err)
		}
		if !ok {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	sort.Strings(files)
	return files, nil
}

// chainImporter resolves previously loaded packages by their import (or
// assigned DirSpec) paths and defers everything else to the source importer.
type chainImporter struct {
	base   types.Importer
	loaded map[string]*types.Package
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.loaded[path]; ok {
		return p, nil
	}
	return c.base.Import(path)
}

// check parses files and type-checks them as the package at path.
func check(fset *token.FileSet, imp types.Importer, path, dir string, files []string) (*Package, error) {
	var asts []*ast.File
	generated := make(map[string]bool)
	for _, fn := range files {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", fn, err)
		}
		if ast.IsGenerated(f) {
			generated[fn] = true
		}
		asts = append(asts, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:      path,
		Name:      tpkg.Name(),
		Dir:       dir,
		Fset:      fset,
		Files:     asts,
		Types:     tpkg,
		Info:      info,
		Generated: generated,
	}, nil
}
