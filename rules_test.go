package dlion

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path"
	"slices"
	"strings"
	"testing"
	"testing/fstest"
)

// Rules gate (runs under `make test`, hence `make check` and CI): five
// standing rules of the tree, checked over the type-checked module instead
// of argued in DESIGN.md or grepped for by hand. The module's packages are
// listed with go/build for the host platform, every non-test file is
// type-checked once with go/types (the standard library through
// importer.Default()), and:
//
//  1. reachability: every package-level object and method in a non-test
//     file is reachable from a root, or sits on reachAllow with its reason;
//  2. the training core reads time only through core.Env and randomness
//     only from seeded stats.RNGs: corePkgs import neither time nor
//     math/rand;
//  3. one process shell: under cmd/, only cmd/internal/cli calls os.Exit,
//     signal.Notify/NotifyContext or obs.ServeDebug;
//  4. one level of parallelism: corePkgs start goroutines only in
//     tensor/pool.go;
//  5. a cluster.Config is a value: no type reachable through its fields
//     holds a stats.RNG (func-typed fields such as a selector factory are
//     not descended), so running one Config twice gives one result.
//
// TestRulesCatchPlantedViolations feeds planted violations of each rule
// through the same loader.

// reachAllow lists what rule 1 keeps although no root reaches it, one
// reason per entry. A key is a package path, "path.Name" or
// "path.(*T).Method"; an entry is a root in turn, so what it reaches needs
// no entry of its own. An entry that a root reaches anyway, or that names
// nothing, fails the test.
var reachAllow = map[string]string{
	"dlion/internal/testkit":                     "test support by design: the conformance harness every substrate test drives",
	"dlion/internal/tensor.SetMaxWorkers":        "the step-slot bound hook of DESIGN.md §2; TestStepSlotsMatchSequential pins the slots against it",
	"dlion/internal/grad.topKIndicesSort":        "the sort-based reference the top-k selection oracle compares against",
	"dlion/internal/jobs.(*Manager).CrashWorker": "the chaos hook (with realtime.(*Group).Crash behind it) that the fault schedule of ROADMAP item 16 drives",
}

// corePkgs are the packages a seeded run is a function of: they read time
// only through core.Env and run steps on tensor's one pool (rules 2 and 4).
var corePkgs = []string{"core", "grad", "nn", "tensor", "simclock", "cluster"}

func TestRules(t *testing.T) {
	m, err := loadModule(os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m.check(reachAllow) {
		t.Error(f)
	}
}

// TestRulesCatchPlantedViolations runs the loader and the rules over small
// in-memory modules: one planted violation of each rule must be reported,
// and a generic type used only through its instantiation or a type reached
// only through an alias must not be, under either GODEBUG gotypesalias
// setting (Go 1.22 defaults to 0, Go 1.23 on to 1).
func TestRulesCatchPlantedViolations(t *testing.T) {
	const main = "package main\n\nimport %q\n\nfunc main() { %s }\n"
	cases := []struct {
		name  string
		files map[string]string
		want  []string // substrings, one finding each; none for a clean module
	}{{
		name: "unreferenced export",
		files: map[string]string{
			"internal/lib/lib.go": "package lib\n\nfunc Used() {}\n\nfunc Unused() {}\n",
			"cmd/x/main.go":       fmt.Sprintf(main, "fx/internal/lib", "lib.Used()"),
		},
		want: []string{"internal/lib/lib.go:5:6: fx/internal/lib.Unused is reached by no root"},
	}, {
		name: "method matching an interface by name only",
		files: map[string]string{
			"internal/lib/lib.go": "package lib\n\ntype Setter interface{ Set(s string) error }\n\ntype T struct{ v float32 }\n\nfunc (t *T) Set(v float32) { t.v = v }\n\ntype U struct{}\n\nfunc (U) Set(s string) error { return nil }\n\nfunc Use(Setter, *T, U) {}\n",
			"cmd/x/main.go":       fmt.Sprintf(main, "fx/internal/lib", "lib.Use(nil, nil, lib.U{})"),
		},
		want: []string{"internal/lib/lib.go:7:13: fx/internal/lib.(*T).Set is reached by no root"},
	}, {
		name: "time.Now in core",
		files: map[string]string{
			"internal/core/core.go": "package core\n\nimport \"time\"\n\nfunc Stamp() int64 { return time.Now().UnixNano() }\n",
			"cmd/x/main.go":         fmt.Sprintf(main, "fx/internal/core", "core.Stamp()"),
		},
		want: []string{"internal/core/core.go:3:8: fx/internal/core imports time"},
	}, {
		name: "os.Exit in a main",
		files: map[string]string{
			"cmd/x/main.go": fmt.Sprintf(main, "os", "os.Exit(2)"),
		},
		want: []string{"cmd/x/main.go:5:18: fx/cmd/x calls os.Exit"},
	}, {
		name: "go statement in nn",
		files: map[string]string{
			"internal/nn/nn.go": "package nn\n\nfunc Run(f func()) { go f() }\n",
			"cmd/x/main.go":     fmt.Sprintf(main, "fx/internal/nn", "nn.Run(func() {})"),
		},
		want: []string{"internal/nn/nn.go:3:22: go statement in fx/internal/nn"},
	}, {
		name: "stream in a cluster.Config",
		files: map[string]string{
			"internal/stats/rng.go":          "package stats\n\ntype RNG struct{ s uint64 }\n\nfunc NewRNG(s uint64) *RNG { return &RNG{s} }\n",
			"internal/simcompute/compute.go": "package simcompute\n\nimport \"fx/internal/stats\"\n\ntype Compute struct {\n\tSeed uint64\n\trng  *stats.RNG\n}\n",
			"internal/cluster/cluster.go":    "package cluster\n\nimport (\n\t\"fx/internal/simcompute\"\n\t\"fx/internal/stats\"\n)\n\ntype Config struct {\n\tComputes  []simcompute.Compute\n\tNewStream func(seed uint64) *stats.RNG\n}\n\nfunc Run(Config) {}\n",
			"cmd/x/main.go":                  "package main\n\nimport (\n\t\"fx/internal/cluster\"\n\t\"fx/internal/stats\"\n)\n\nfunc main() { cluster.Run(cluster.Config{NewStream: stats.NewRNG}) }\n",
		},
		want: []string{"internal/simcompute/compute.go:7:2: simcompute.Compute.rng holds a *stats.RNG"},
	}, {
		name: "generic type used only through an instantiation",
		files: map[string]string{
			"internal/pool/pool.go": "package pool\n\ntype T[E any] struct{ items []E }\n\nfunc (t *T[E]) Put(e E) { t.items = append(t.items, e) }\n",
			"cmd/x/main.go":         fmt.Sprintf(main, "fx/internal/pool", "var p pool.T[int]; p.Put(1)"),
		},
	}, {
		name: "type reached only through an alias",
		files: map[string]string{
			"internal/impl/impl.go": "package impl\n\ntype Thing struct{ n int }\n\ntype thing = Thing\n\nfunc (t *thing) Reset() { t.n = 0 }\n",
			"facade.go":             "package fx\n\nimport \"fx/internal/impl\"\n\ntype Thing = impl.Thing\n",
			"cmd/x/main.go":         fmt.Sprintf(main, "fx", "var t fx.Thing; t.Reset()"),
		},
	}}
	for _, alias := range []string{"0", "1"} {
		for _, c := range cases {
			t.Run(c.name+"/gotypesalias="+alias, func(t *testing.T) {
				t.Setenv("GODEBUG", "gotypesalias="+alias)
				fsys := fstest.MapFS{"go.mod": {Data: []byte("module fx\n\ngo 1.22\n")}}
				for name, src := range c.files {
					fsys[name] = &fstest.MapFile{Data: []byte(src)}
				}
				m, err := loadModule(fsys)
				if err != nil {
					t.Fatal(err)
				}
				if root := m.pkgs["fx"]; root != nil {
					_, isAlias := root.types.Scope().Lookup("Thing").Type().(*types.Alias)
					if isAlias != (alias == "1") {
						t.Fatalf("gotypesalias=%s did not take: alias type is %T", alias, root.types.Scope().Lookup("Thing").Type())
					}
				}
				got := m.check(nil)
				if len(got) != len(c.want) {
					t.Fatalf("findings:\n%s\nwant %d matching %q", strings.Join(got, "\n"), len(c.want), c.want)
				}
				for i, w := range c.want {
					if !strings.Contains(got[i], w) {
						t.Errorf("finding %q does not contain %q", got[i], w)
					}
				}
			})
		}
	}
}

// module is a type-checked Go module: its packages keyed by import path.
type module struct {
	path string
	fset *token.FileSet
	pkgs map[string]*pkg
	std  types.Importer
}

type pkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
	state int // 0 listed, 1 checking, 2 checked
}

// loadModule lists every package under fsys's root (a go.mod names the
// module) with go/build for the host platform, then type-checks the non-test
// files of each once.
func loadModule(fsys fs.FS) (*module, error) {
	mod, err := fs.ReadFile(fsys, "go.mod")
	if err != nil {
		return nil, err
	}
	var modPath string
	for _, line := range strings.Split(string(mod), "\n") {
		if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.Trim(strings.TrimSpace(p), `"`)
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("go.mod names no module")
	}
	m := &module{path: modPath, fset: token.NewFileSet(), pkgs: map[string]*pkg{}, std: importer.Default()}

	ctxt := build.Default
	ctxt.JoinPath = path.Join
	ctxt.IsDir = func(p string) bool {
		fi, err := fs.Stat(fsys, p)
		return err == nil && fi.IsDir()
	}
	ctxt.ReadDir = func(dir string) ([]fs.FileInfo, error) {
		ents, err := fs.ReadDir(fsys, dir)
		if err != nil {
			return nil, err
		}
		infos := make([]fs.FileInfo, 0, len(ents))
		for _, e := range ents {
			fi, err := e.Info()
			if err != nil {
				return nil, err
			}
			infos = append(infos, fi)
		}
		return infos, nil
	}
	ctxt.OpenFile = func(p string) (io.ReadCloser, error) { return fsys.Open(p) }

	err = fs.WalkDir(fsys, ".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." {
			base := path.Base(dir)
			if base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") {
				return fs.SkipDir
			}
			if _, err := fs.Stat(fsys, path.Join(dir, "go.mod")); err == nil {
				return fs.SkipDir // a nested module is not this one
			}
		}
		bp, err := ctxt.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		if err != nil {
			return err
		}
		p := &pkg{path: path.Join(modPath, dir)}
		for _, name := range bp.GoFiles {
			src, err := fs.ReadFile(fsys, path.Join(dir, name))
			if err != nil {
				return err
			}
			f, err := parser.ParseFile(m.fset, path.Join(dir, name), src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		m.pkgs[p.path] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range m.sorted() {
		if _, err := m.Import(p.path); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Import type-checks a module package on first use and hands every other
// path to the standard library's export data.
func (m *module) Import(path string) (*types.Package, error) {
	p, ok := m.pkgs[path]
	if !ok {
		return m.std.Import(path)
	}
	switch p.state {
	case 1:
		return nil, fmt.Errorf("import cycle through %s", path)
	case 2:
		return p.types, nil
	}
	p.state = 1
	p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: m}
	tp, err := conf.Check(path, m.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types, p.state = tp, 2
	return tp, nil
}

func (m *module) sorted() []*pkg {
	var ps []*pkg
	for _, p := range m.pkgs {
		ps = append(ps, p)
	}
	slices.SortFunc(ps, func(a, b *pkg) int { return strings.Compare(a.path, b.path) })
	return ps
}

// isCore reports whether p is one of corePkgs (by path suffix, so a fixture
// module's internal/core counts too).
func isCore(p *pkg) bool {
	for _, name := range corePkgs {
		if strings.HasSuffix(p.path, "/internal/"+name) {
			return true
		}
	}
	return false
}

// check runs the five rules and returns one "file:line: message" finding
// per violation, sorted.
func (m *module) check(allow map[string]string) []string {
	var out []string
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, fmt.Sprintf("%s: %s", m.fset.Position(pos), fmt.Sprintf(format, args...)))
	}
	m.checkReach(allow, report)
	m.checkConfigStreams(report)
	for _, p := range m.sorted() {
		cmd := strings.HasPrefix(p.path, m.path+"/cmd/") && !strings.HasSuffix(p.path, "/cmd/internal/cli")
		for _, f := range p.files {
			if isCore(p) {
				for _, imp := range f.Imports {
					switch ip := strings.Trim(imp.Path.Value, `"`); ip {
					case "time", "math/rand", "math/rand/v2":
						report(imp.Pos(), "%s imports %s: the training core reads time only through core.Env and randomness only from seeded stats.RNGs", p.path, ip)
					}
				}
				pool := strings.HasSuffix(p.path, "/internal/tensor") && path.Base(m.fset.Position(f.Pos()).Filename) == "pool.go"
				ast.Inspect(f, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok && !pool {
						report(g.Pos(), "go statement in %s: the training core starts goroutines only in tensor/pool.go", p.path)
					}
					return true
				})
			}
			if cmd {
				ast.Inspect(f, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := p.info.Uses[id].(*types.Func)
					if !ok || fn.Pkg() == nil {
						return true
					}
					switch name := fn.Pkg().Path() + "." + fn.Name(); {
					case name == "os.Exit", name == "os/signal.Notify", name == "os/signal.NotifyContext",
						strings.HasSuffix(name, "/internal/obs.ServeDebug"):
						report(id.Pos(), "%s calls %s: only cmd/internal/cli exits, traps signals or serves the debug endpoint", p.path, name)
					}
					return true
				})
			}
		}
	}
	slices.Sort(out)
	return out
}

// checkConfigStreams reports every field that holds a stats.RNG and is
// reachable from internal/cluster.Config through struct fields, pointers,
// slices, arrays, maps and channels of the module's types (rule 5): a
// stream there is run state, so a second run of the Config would start
// where the first left it. cluster.Run builds each stream from a seed.
func (m *module) checkConfigStreams(report func(token.Pos, string, ...any)) {
	p := m.pkgs[m.path+"/internal/cluster"]
	if p == nil || p.types.Scope().Lookup("Config") == nil {
		return
	}
	rng := m.path + "/internal/stats"
	seen := map[*types.TypeName]bool{}
	var visit func(t types.Type, field *types.Var, owner string)
	visit = func(t types.Type, field *types.Var, owner string) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			obj := t.Obj()
			if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), m.path+"/") || seen[obj] {
				return
			}
			if obj.Pkg().Path() == rng && obj.Name() == "RNG" {
				report(field.Pos(), "%s.%s holds a %s and cluster.Config reaches it: a Config is a value, cluster.Run builds each stream from a seed",
					owner, field.Name(), types.TypeString(field.Type(), (*types.Package).Name))
				return
			}
			seen[obj] = true
			visit(t.Underlying(), field, obj.Pkg().Name()+"."+obj.Name())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				visit(t.Field(i).Type(), t.Field(i), owner)
			}
		case *types.Pointer:
			visit(t.Elem(), field, owner)
		case *types.Slice:
			visit(t.Elem(), field, owner)
		case *types.Array:
			visit(t.Elem(), field, owner)
		case *types.Map:
			visit(t.Key(), field, owner)
			visit(t.Elem(), field, owner)
		case *types.Chan:
			visit(t.Elem(), field, owner)
		}
	}
	visit(p.types.Scope().Lookup("Config").Type(), nil, "")
}

// checkReach reports every package-level object and method of a non-test
// file that no root reaches. The roots are every main and init, the root
// package's exports, all of benchmark/ and examples/, every method whose
// name and signature some interface declares, and the allowlist.
func (m *module) checkReach(allow map[string]string, report func(token.Pos, string, ...any)) {
	type decl struct {
		pkg  *pkg
		node ast.Node
	}
	decls := map[types.Object]decl{}
	keys := map[types.Object]string{}
	var order []types.Object
	add := func(p *pkg, obj types.Object, node ast.Node) {
		if obj == nil || obj.Name() == "_" {
			return
		}
		decls[obj] = decl{p, node}
		keys[obj] = objKey(obj)
		order = append(order, obj)
	}
	ifaceMethods := map[string][]types.Type{} // name -> signatures
	addMethod := func(fn *types.Func) {
		ifaceMethods[fn.Name()] = append(ifaceMethods[fn.Name()], fn.Type())
	}
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			addMethod(it.Method(i))
		}
	}
	for _, p := range m.sorted() {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(p, p.info.Defs[d.Name], d)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(p, p.info.Defs[s.Name], s)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add(p, p.info.Defs[n], s)
							}
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, fld := range it.Methods.List {
						for _, n := range fld.Names {
							if fn, ok := p.info.Defs[n].(*types.Func); ok {
								addMethod(fn)
							}
						}
					}
				}
				return true
			})
		}
	}
	// Interfaces of every package the module sees, the standard library's
	// included: a method with the name and signature of one of theirs may
	// be called through it.
	seen := map[*types.Package]bool{}
	var scan func(tp *types.Package)
	scan = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := types.Unalias(tn.Type()).Underlying().(*types.Interface); ok {
					addIface(it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			scan(imp)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, p := range m.pkgs {
		scan(p.types)
	}

	var queue []types.Object
	reached := map[types.Object]bool{}
	mark := func(obj types.Object) {
		if _, tracked := decls[obj]; tracked && !reached[obj] {
			reached[obj] = true
			queue = append(queue, obj)
		}
	}
	walk := func() {
		for len(queue) > 0 {
			obj := queue[0]
			queue = queue[1:]
			d := decls[obj]
			ast.Inspect(d.node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if used := d.pkg.info.Uses[id]; used != nil {
						mark(origin(used))
					}
				}
				return true
			})
		}
	}
	for _, obj := range order {
		p := decls[obj].pkg
		fn, isFunc := obj.(*types.Func)
		method := isFunc && fn.Type().(*types.Signature).Recv() != nil
		switch {
		case isFunc && !method && (obj.Name() == "main" || obj.Name() == "init"),
			p.path == m.path && obj.Exported(),
			strings.HasPrefix(p.path, m.path+"/benchmark"), strings.HasPrefix(p.path, m.path+"/examples"),
			method && slices.ContainsFunc(ifaceMethods[obj.Name()], func(sig types.Type) bool {
				return types.Identical(sig, fn.Type()) // receivers are not compared
			}):
			mark(obj)
		}
	}
	walk()

	allowed := map[types.Object]bool{}
	found := map[string]bool{}
	for _, obj := range order {
		key, pkgKey := keys[obj], decls[obj].pkg.path
		for _, k := range []string{key, pkgKey} {
			if _, ok := allow[k]; ok {
				found[k] = true
				if k == key && reached[obj] {
					report(obj.Pos(), "%s is allowlisted but a root reaches it: drop its entry", key)
				}
				allowed[obj] = true
			}
		}
	}
	for k := range allow {
		if !found[k] {
			report(token.NoPos, "allowlist entry %s names nothing in the module", k)
		}
	}
	for _, obj := range order {
		if allowed[obj] {
			mark(obj)
		}
	}
	walk()
	for _, obj := range order {
		if !reached[obj] {
			report(obj.Pos(), "%s is reached by no root (only tests, or nothing, use it): delete it, or allowlist it with a reason", keys[obj])
		}
	}
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// objKey names obj as "path.Name" or, for a method, "path.(*T).Name" or
// "path.T.Name".
func objKey(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	recv := types.Unalias(fn.Type().(*types.Signature).Recv().Type())
	star := ""
	if ptr, ok := recv.(*types.Pointer); ok {
		recv, star = types.Unalias(ptr.Elem()), "*"
	}
	name := "?"
	if named, ok := recv.(*types.Named); ok {
		name = named.Obj().Name()
	}
	if star != "" {
		return fmt.Sprintf("%s.(*%s).%s", obj.Pkg().Path(), name, obj.Name())
	}
	return fmt.Sprintf("%s.%s.%s", obj.Pkg().Path(), name, obj.Name())
}
