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
}

// fieldsAllowedUnwritten names the exported struct fields under internal/
// that stay although no non-test code writes them, each with the reason.
var fieldsAllowedUnwritten = map[string]string{
	"repro/internal/cluster.GatewayConfig.Transport":      "the transport seam: tests interpose on every request a gateway sends its nodes",
	"repro/internal/server.DurabilityConfig.FS":           "the filesystem seam: tests record or fault every durable file operation",
	"repro/internal/server.DurabilityConfig.SegmentBytes": "forces segment rotation in tests at sizes production never writes",
	"repro/internal/sensors.ConstantField.Name":           "the fixed-value test field is built only by tests",
	"repro/internal/sensors.ConstantField.V":              "the fixed-value test field is built only by tests",
}

// TestInternalExportsReachedOutsideTests fails on every exported top-level
// func or type, and every exported method, under internal/ that no program
// reaches, so library surface that only its own tests call does not
// accumulate.
func TestInternalExportsReachedOutsideTests(t *testing.T) {
	for _, name := range unreachedInternalExports(t) {
		t.Errorf("%s: only tests reach it; delete it, or add it to exportsAllowedUnreached with the reason it stays", name)
	}
}

// TestFacadeReachedByPrograms fails on every exported func of the root
// package that no program under examples/, cmd/ or bench/ reaches, and on
// every type alias there that no program names and whose type no reached
// func exposes.
func TestFacadeReachedByPrograms(t *testing.T) {
	for _, name := range unreachedFacade(t) {
		t.Errorf("%s: no program reaches it; delete it", name)
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

// repo is the repository's non-test code, type-checked once per test binary,
// with what the package main programs reach of it.
var repo struct {
	once    sync.Once
	pkgs    []*checkedPkg
	err     error
	reach   sync.Once
	decls   map[string]types.Object
	reached map[types.Object]bool
}

func repoPackages(t *testing.T) []*checkedPkg {
	t.Helper()
	repo.once.Do(func() { repo.pkgs, repo.err = loadRepo(".") })
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	return repo.pkgs
}

// repoReach returns every top-level declaration and method of the
// repository by its "path.Name" or "path.Type.Method" key, and the set of
// those the package main programs reach. A declaration is reached when a
// reached declaration names it — a method by a call, a method value or a
// method expression — or when it is a var or an init func, which run on
// import. A method is also reached when its receiver type, or a type that
// embeds it, is reached and implements an interface that declares it. An
// exportsAllowedUnreached entry counts as reached, with its methods.
func repoReach(t *testing.T) (map[string]types.Object, map[types.Object]bool) {
	t.Helper()
	pkgs := repoPackages(t)
	repo.reach.Do(func() {
		g := refGraph{refs: make(map[types.Object][]types.Object)}
		for _, p := range pkgs {
			g.add(p)
		}
		g.addInterfaceMethods(pkgs)
		repo.decls = declarations(pkgs)
		for key := range exportsAllowedUnreached {
			obj := repo.decls[key]
			if obj == nil {
				continue
			}
			g.roots = append(g.roots, obj)
			if n, ok := obj.Type().(*types.Named); ok && !obj.(*types.TypeName).IsAlias() {
				for i := 0; i < n.NumMethods(); i++ {
					g.roots = append(g.roots, n.Method(i))
				}
			}
		}
		repo.reached = g.reachable()
	})
	return repo.decls, repo.reached
}

// declarations keys every top-level declaration of pkgs by "path.Name" and
// every method of a declared type by "path.Type.Method".
func declarations(pkgs []*checkedPkg) map[string]types.Object {
	decls := make(map[string]types.Object)
	for _, p := range pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			key := p.types.Path() + "." + name
			decls[key] = obj
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				n := tn.Type().(*types.Named)
				for i := 0; i < n.NumMethods(); i++ {
					decls[key+"."+n.Method(i).Name()] = n.Method(i)
				}
			}
		}
	}
	return decls
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
// in the repository, bench/ included, and returns, sorted, the key of each
// exported top-level func or type, and each exported method, under
// internal/ that the package main programs do not reach (see repoReach).
func unreachedInternalExports(t *testing.T) []string {
	t.Helper()
	decls, reached := repoReach(t)
	for key := range exportsAllowedUnreached {
		if decls[key] == nil {
			t.Errorf("exportsAllowedUnreached names %s, which is not declared", key)
		}
	}
	var out []string
	for key, obj := range decls {
		switch obj.(type) {
		case *types.Func, *types.TypeName:
			if strings.Contains(key, "/internal/") && obj.Exported() && !reached[obj] {
				out = append(out, key)
			}
		}
	}
	sort.Strings(out)
	return out
}

// unreachedFacade returns, sorted, the "repro.Name" of each exported func of
// the root package that the package main programs do not reach, and of each
// type alias there that they do not name and whose aliased type is not
// exposed. A type is exposed when it appears in the signature of a reached
// func of the root package or, transitively, in an exported method or field
// of an exposed type.
func unreachedFacade(t *testing.T) []string {
	t.Helper()
	decls, reached := repoReach(t)
	exposed := make(map[*types.TypeName]bool)
	var expose func(types.Type)
	expose = func(typ types.Type) {
		switch typ := types.Unalias(typ).(type) {
		case *types.Named:
			if exposed[typ.Obj()] {
				return
			}
			exposed[typ.Obj()] = true
			mset := types.NewMethodSet(types.NewPointer(typ))
			if types.IsInterface(typ) {
				mset = types.NewMethodSet(typ)
			}
			for i := 0; i < mset.Len(); i++ {
				if m := mset.At(i).Obj(); m.Exported() {
					expose(m.Type())
				}
			}
			expose(typ.Underlying())
		case *types.Struct:
			for i := 0; i < typ.NumFields(); i++ {
				if f := typ.Field(i); f.Exported() || f.Embedded() {
					expose(f.Type())
				}
			}
		case *types.Signature:
			expose(typ.Params())
			expose(typ.Results())
		case *types.Tuple:
			for i := 0; i < typ.Len(); i++ {
				expose(typ.At(i).Type())
			}
		case *types.Map:
			expose(typ.Key())
			expose(typ.Elem())
		case interface{ Elem() types.Type }: // pointer, slice, array, chan
			expose(typ.Elem())
		}
	}
	var funcs, aliases []string
	for key, obj := range decls {
		if strings.Count(key, ".") != 1 || !strings.HasPrefix(key, "repro.") || !obj.Exported() {
			continue
		}
		switch obj := obj.(type) {
		case *types.Func:
			if reached[obj] {
				expose(obj.Type())
			} else {
				funcs = append(funcs, key)
			}
		case *types.TypeName:
			if obj.IsAlias() && !reached[obj] {
				aliases = append(aliases, key)
			}
		}
	}
	out := funcs
	for _, key := range aliases {
		if n, ok := types.Unalias(decls[key].Type()).(*types.Named); !ok || !exposed[n.Obj()] {
			out = append(out, key)
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
// declaration or type names, and the roots. A type names the methods
// through which it implements an interface.
type refGraph struct {
	refs  map[types.Object][]types.Object
	roots []types.Object
}

func (g *refGraph) add(p *checkedPkg) {
	isMain := p.types.Name() == "main"
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn := p.info.Defs[d.Name].(*types.Func)
				g.collect(p.info, d, fn)
				if d.Recv == nil && (isMain || d.Name.Name == "init") {
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

// errorsInterfaces declares the unnamed interfaces package errors asserts
// when it unwraps and compares errors.
const errorsInterfaces = `package errors
type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)`

// addInterfaceMethods records, as references of every type declared in
// pkgs, the methods — its own or promoted from an embedded type — through
// which the type or its pointer implements an interface: a named interface
// of any type-checked package, the standard library included, an interface
// literal of the repository, error, or one errors asserts.
func (g *refGraph) addInterfaceMethods(pkgs []*checkedPkg) {
	byMethod := make(map[string][]*types.Interface)
	addIface := func(it *types.Interface) {
		if !it.IsMethodSet() {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	addNamed := func(p *types.Package) {
		for _, name := range p.Scope().Names() {
			if n, ok := p.Scope().Lookup(name).Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				if it, ok := n.Underlying().(*types.Interface); ok {
					addIface(it)
				}
			}
		}
	}
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if !seen[p] {
			seen[p] = true
			addNamed(p)
			for _, imp := range p.Imports() {
				walk(imp)
			}
		}
	}
	for _, p := range pkgs {
		walk(p.types)
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				addIface(it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "errors.go", errorsInterfaces, 0)
	if err != nil {
		panic(err)
	}
	errs, err := new(types.Config).Check("errors", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	addNamed(errs)

	for _, p := range pkgs {
		for _, name := range p.types.Scope().Names() {
			tn, ok := p.types.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			mset := types.NewMethodSet(ptr)
			for i := 0; i < mset.Len(); i++ {
				m := mset.At(i).Obj()
				for _, it := range byMethod[m.Name()] {
					if types.Implements(ptr, it) {
						g.refs[tn] = append(g.refs[tn], m)
						break
					}
				}
			}
		}
	}
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
	}
	return seen
}
