package craqr_test

import (
	"errors"
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
	"testing"
)

// exportsAllowedUnreached names the exported internal declarations that
// stay although no program reaches them, each with the reason. They count
// as reached, and so does what they use.
var exportsAllowedUnreached = map[string]string{
	"repro/internal/intensity.NumericIntegral": "midpoint-rule reference the closed-form integrals are tested against",
	"repro/internal/intensity.Features":        "feature map the fused Newton kernel's oracle test evaluates",
	"repro/internal/estimate.LogLikelihood":    "reference objective the Newton fit is tested against",
	"repro/internal/stats.KSUniform":           "Kolmogorov–Smirnov reference for the uniformity checks",
	"repro/internal/planner.ChooseMergeMode":   "called by bench/trace.go, which the benchmark freezes",
	"repro/internal/intensity.NewScale":        "builds the wrong-scale intensity of pmat's ablation test",
	"repro/internal/sensors.ConstantField":     "fixed-value field the handler, server and root tests run fleets on",
	"repro/internal/stream.Counter":            "counting sink the pmat tests and root benchmarks end pipelines with",
	"repro/internal/export.ReadJSONLines":      "behind craqr.ReadJSONLines, the facade's reader for JSONLinesSink output",
}

// TestInternalExportsReachedOutsideTests fails on every exported top-level
// func or type under internal/ that no program reaches, so library surface
// that only its own tests call does not accumulate.
func TestInternalExportsReachedOutsideTests(t *testing.T) {
	for _, name := range unreachedInternalExports(t, ".") {
		t.Errorf("%s: only tests reach it; delete it, or add it to exportsAllowedUnreached with the reason it stays", name)
	}
}

// unreachedInternalExports type-checks the non-test files of every package
// below root, bench/ included, and returns, sorted, the "path.Name" of each
// exported top-level func or type under internal/ that the package main
// programs do not reach. A declaration is reached when a reached
// declaration names it; a type's methods are reached with the type; vars
// and init funcs are reached because they run on import.
func unreachedInternalExports(t *testing.T, root string) []string {
	t.Helper()
	pkgs, err := loadRepo(root)
	if err != nil {
		t.Fatal(err)
	}
	g := refGraph{refs: make(map[types.Object][]types.Object), methods: make(map[*types.TypeName][]types.Object)}
	for _, p := range pkgs {
		g.add(p)
	}
	declared := make(map[string]bool)
	for _, p := range pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			key := p.types.Path() + "." + name
			declared[key] = true
			if _, ok := exportsAllowedUnreached[key]; ok {
				g.roots = append(g.roots, scope.Lookup(name))
			}
		}
	}
	for key := range exportsAllowedUnreached {
		if !declared[key] {
			t.Errorf("exportsAllowedUnreached names %s, which is not declared", key)
		}
	}
	reached := g.reachable()
	var out []string
	for _, p := range pkgs {
		if !strings.Contains(p.types.Path()+"/", "/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name); obj.(type) {
			case *types.Func, *types.TypeName:
				if obj.Exported() && !reached[obj] {
					out = append(out, p.types.Path()+"."+name)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// checkedPkg is one package type-checked from its non-test files.
type checkedPkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

// repoLoader type-checks the repository's packages, each once. A
// directory's import path is "repro/" plus its path, which holds in both
// modules (bench/go.mod declares repro/bench). Standard-library imports go
// to the source importer, so the check needs neither a build cache nor the
// network.
type repoLoader struct {
	fset    *token.FileSet
	dirs    map[string]string // import path → directory
	checked map[string]*checkedPkg
	std     types.ImporterFrom
}

func loadRepo(root string) ([]*checkedPkg, error) {
	fset := token.NewFileSet()
	l := &repoLoader{
		fset:    fset,
		dirs:    make(map[string]string),
		checked: make(map[string]*checkedPkg),
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		l.dirs[strings.TrimSuffix("repro/"+filepath.ToSlash(rel), "/.")] = path
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var pkgs []*checkedPkg
	for _, p := range paths {
		if _, err := l.check(p); err != nil {
			return nil, err
		}
		if c := l.checked[p]; c != nil {
			pkgs = append(pkgs, c)
		}
	}
	return pkgs, nil
}

// check type-checks the package at import path p, and its repository
// imports first; a directory without non-test Go files yields nil.
func (l *repoLoader) check(p string) (*types.Package, error) {
	if c, ok := l.checked[p]; ok {
		if c == nil {
			return nil, nil
		}
		return c.types, nil
	}
	dir := l.dirs[p]
	bp, err := build.Default.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		l.checked[p] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)}
	conf := types.Config{Importer: dirImporter{l, dir}}
	tp, err := conf.Check(p, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.checked[p] = &checkedPkg{types: tp, files: files, info: info}
	return tp, nil
}

// dirImporter resolves the imports of the package in dir.
type dirImporter struct {
	l   *repoLoader
	dir string
}

func (i dirImporter) Import(path string) (*types.Package, error) {
	if _, ok := i.l.dirs[path]; ok {
		return i.l.check(path)
	}
	return i.l.std.ImportFrom(path, i.dir, 0)
}

// refGraph holds the package-level objects and methods each top-level
// declaration names, the methods of each type, and the roots.
type refGraph struct {
	refs    map[types.Object][]types.Object
	methods map[*types.TypeName][]types.Object
	roots   []types.Object
}

func (g *refGraph) add(p *checkedPkg) {
	isMain := p.types.Name() == "main"
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn := p.info.Defs[d.Name].(*types.Func)
				g.collect(p.info, d, fn)
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if tn := namedType(recv.Type()); tn != nil {
						g.methods[tn] = append(g.methods[tn], fn)
					}
				} else if isMain || d.Name.Name == "init" {
					g.roots = append(g.roots, fn)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var names []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, n := range names {
						obj := p.info.Defs[n]
						g.collect(p.info, spec, obj)
						if _, isVar := obj.(*types.Var); isVar || isMain {
							g.roots = append(g.roots, obj)
						}
					}
				}
			}
		}
	}
}

// collect records every package-level object or method that n names as a
// reference of from.
func (g *refGraph) collect(info *types.Info, n ast.Node, from types.Object) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if obj == nil || obj == from || obj.Pkg() == nil {
			return true
		}
		if _, isFunc := obj.(*types.Func); isFunc || obj.Parent() == obj.Pkg().Scope() {
			g.refs[from] = append(g.refs[from], obj)
		}
		return true
	})
}

// namedType returns the declared type behind a method receiver.
func namedType(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

func (g *refGraph) reachable() map[types.Object]bool {
	seen := make(map[types.Object]bool)
	stack := append([]types.Object(nil), g.roots...)
	for len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[obj] {
			continue
		}
		seen[obj] = true
		stack = append(stack, g.refs[obj]...)
		if tn, ok := obj.(*types.TypeName); ok {
			stack = append(stack, g.methods[tn]...)
		}
	}
	return seen
}
