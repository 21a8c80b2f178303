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
	"reflect"
	"sort"
	"strings"
	"sync"
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

// fieldsAllowedUnwritten names the exported struct fields under internal/
// that stay although no non-test code writes them, each with the reason.
var fieldsAllowedUnwritten = map[string]string{
	"repro/internal/server.DurabilityConfig.WrapFile":     "fault injection: the crash tests wrap every WAL segment file",
	"repro/internal/server.DurabilityConfig.SegmentBytes": "forces segment rotation in tests at sizes production never writes",
	"repro/internal/sensors.ConstantField.Name":           "the fixed-value test field is built only by tests",
	"repro/internal/sensors.ConstantField.V":              "the fixed-value test field is built only by tests",
}

// TestInternalExportsReachedOutsideTests fails on every exported top-level
// func or type under internal/ that no program reaches, so library surface
// that only its own tests call does not accumulate.
func TestInternalExportsReachedOutsideTests(t *testing.T) {
	for _, name := range unreachedInternalExports(t) {
		t.Errorf("%s: only tests reach it; delete it, or add it to exportsAllowedUnreached with the reason it stays", name)
	}
}

// TestInternalFieldsWrittenOutsideTests fails on every exported field of an
// exported struct under internal/ that no non-test code writes, so an option
// only tests select — a control arm, a knob left at its default — does not
// ship. A field with a json tag is exempt: a decoder writes it from the wire.
// The rule cannot see a field written only by its own package, such as one a
// withDefaults method fills in: that write counts.
func TestInternalFieldsWrittenOutsideTests(t *testing.T) {
	for _, name := range unwrittenInternalFields(t) {
		t.Errorf("%s: only tests write it; delete it, or add it to fieldsAllowedUnwritten with the reason it stays", name)
	}
}

// repo is the repository's non-test code, type-checked once per test binary.
var repo struct {
	once sync.Once
	pkgs []*checkedPkg
	err  error
}

func repoPackages(t *testing.T) []*checkedPkg {
	t.Helper()
	repo.once.Do(func() { repo.pkgs, repo.err = loadRepo(".") })
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	return repo.pkgs
}

// unwrittenInternalFields returns, sorted, the "path.Type.Field" of each
// exported field without a json tag of an exported struct type under
// internal/ that no non-test file, bench/ included, writes. A write is a
// key of a keyed composite literal, every field of an unkeyed one, an
// assignment or inc/dec target, or an operand of &; a selector chain counts
// for every field along it, so a.B.C = v writes both B and C.
func unwrittenInternalFields(t *testing.T) []string {
	t.Helper()
	pkgs := repoPackages(t)
	written := make(map[*types.Var]bool)
	for _, p := range pkgs {
		for _, f := range p.files {
			markFieldWrites(p.info, f, written)
		}
	}
	declared := make(map[string]bool)
	var out []string
	for _, p := range pkgs {
		if !strings.Contains(p.types.Path()+"/", "/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				field := st.Field(i)
				if !field.Exported() {
					continue
				}
				key := p.types.Path() + "." + name + "." + field.Name()
				declared[key] = true
				if _, tagged := reflect.StructTag(st.Tag(i)).Lookup("json"); tagged || written[field] {
					continue
				}
				if _, ok := fieldsAllowedUnwritten[key]; !ok {
					out = append(out, key)
				}
			}
		}
	}
	for key := range fieldsAllowedUnwritten {
		if !declared[key] {
			t.Errorf("fieldsAllowedUnwritten names %s, which is not declared", key)
		}
	}
	sort.Strings(out)
	return out
}

// markFieldWrites records in written every struct field that f writes.
func markFieldWrites(info *types.Info, f *ast.File, written map[*types.Var]bool) {
	target := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					written[sel.Obj().(*types.Var).Origin()] = true
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				target(lhs)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X)
			}
		case *ast.CompositeLit:
			typ := info.TypeOf(n)
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			st, ok := typ.Underlying().(*types.Struct)
			if !ok || len(n.Elts) == 0 {
				return true
			}
			if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
				for i := 0; i < st.NumFields(); i++ {
					written[st.Field(i).Origin()] = true
				}
				return true
			}
			for _, elt := range n.Elts {
				if id, ok := elt.(*ast.KeyValueExpr).Key.(*ast.Ident); ok {
					if field, ok := info.Uses[id].(*types.Var); ok {
						written[field.Origin()] = true
					}
				}
			}
		}
		return true
	})
}

// unreachedInternalExports type-checks the non-test files of every package
// in the repository, bench/ included, and returns, sorted, the "path.Name"
// of each exported top-level func or type under internal/ that the package
// main programs do not reach. A declaration is reached when a reached
// declaration names it; a type's methods are reached with the type; vars
// and init funcs are reached because they run on import.
func unreachedInternalExports(t *testing.T) []string {
	t.Helper()
	pkgs := repoPackages(t)
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
	info := &types.Info{
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
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
