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
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	// Path is the import path ("spio/internal/core").
	Path string
	// Dir is the package directory on disk.
	Dir  string
	Fset *token.FileSet
	// Files are the package's non-test Go files.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -deps -json` output the loader
// reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool // part of the standard library
	DepOnly    bool // reached only as a dependency of the patterns
}

// listPackages expands Go package patterns ("./...") and their
// dependencies with the go tool, dependencies first. The go command is
// the only authority on module-aware pattern expansion, and it is
// guaranteed present (the analyzers are run through `go run`).
func listPackages(patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard,DepOnly", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var out []listedPackage
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		out = append(out, p)
	}
	return out, nil
}

// world is one go/types universe: a file set, the non-stdlib packages
// type-checked into it so far, and the stdlib source importer behind
// them. Every package checked through one world sees the same
// *types.Func and *types.Named for a declaration, so objects compare by
// pointer and types.Implements answers across packages.
type world struct {
	fset    *token.FileSet
	checked map[string]*Package
	src     types.ImporterFrom
}

func newWorld() *world {
	fset := token.NewFileSet()
	return &world{
		fset:    fset,
		checked: make(map[string]*Package),
		src:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
}

func (w *world) Import(path string) (*types.Package, error) { return w.ImportFrom(path, "", 0) }

// ImportFrom hands out the packages this world has checked itself and
// leaves the rest (the standard library) to the source importer.
func (w *world) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg := w.checked[path]; pkg != nil {
		return pkg.Types, nil
	}
	return w.src.ImportFrom(path, dir, mode)
}

// Load expands the patterns and type-checks every matched package and
// every non-stdlib package they depend on into one world, dependencies
// first, so a declaration has one object however it is reached. Only
// the matched packages are returned; the standard library comes from the
// source importer, type-checked at most once.
func Load(patterns []string) ([]*Package, error) {
	return newWorld().load(patterns)
}

func (w *world) load(patterns []string) ([]*Package, error) {
	listed, err := listPackages(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, lp := range listed {
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		pkg := w.checked[lp.ImportPath]
		if pkg == nil {
			files := make([]string, len(lp.GoFiles))
			for i, f := range lp.GoFiles {
				files[i] = filepath.Join(lp.Dir, f)
			}
			if pkg, err = w.check(lp.ImportPath, lp.Dir, files); err != nil {
				return nil, err
			}
		}
		if !lp.DepOnly {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// loadDir parses and type-checks every .go file directly inside dir as
// one package under the given import path. It is the fixture loader the
// analyzer tests use for testdata packages `go list` cannot see; the
// module packages a fixture imports come from the world when it holds
// them and from the source importer otherwise.
func (w *world) loadDir(dir, path string) (*Package, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	if len(matches) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return w.check(path, dir, matches)
}

// check parses and type-checks one package's files into the world.
func (w *world) check(path, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(w.fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: w}
	tpkg, err := conf.Check(path, w.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: w.fset, Files: files, Types: tpkg, Info: info}
	w.checked[path] = pkg
	return pkg, nil
}
