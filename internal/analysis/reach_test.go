package analysis_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"simfs/internal/analysis"
)

// testSeams are the exported functions and methods that only tests
// reach and that stay anyway, each with the reason. An entry the
// production roots do reach is stale and fails the gate too.
var testSeams = map[string]string{
	"simfs/internal/des.Engine.RunUntil":          "core tests step the DES engine to a virtual instant across the package boundary",
	"simfs/internal/sched.Scheduler.QuotaDebt":    "core tests read a client's DRR debt across the package boundary",
	"simfs/internal/faults.WrapFS":                "the fault harness: tests wrap a storage area in an injectable FS",
	"simfs/internal/faults.FS.FailNextN":          "the fault harness: tests fail the next n storage operations",
	"simfs/internal/faults.FS.Injected":           "the fault harness: tests count the storage faults injected",
	"simfs/internal/faults.ConnPlan.Injected":     "the fault harness: tests count the connection cuts injected",
	"simfs/internal/faults.SimPlan.Injected":      "the fault harness: tests count the simulation crashes injected",
	"simfs/internal/faults.SimPlan.WithCrashAt":   "the fault harness: tests crash a simulation at a chosen step",
	"simfs/internal/faults.SimPlan.WithFailN":     "the fault harness: tests fail a simulation's next n launches",
	"simfs/internal/experiments.Fig05DV":          "the reference Fig05's replay is checked against the DV's",
	"simfs/internal/prefetch.BackwardWarmup":      "the paper's Sec. IV-C warm-up formula, checked by math_test",
	"simfs/internal/prefetch.ForwardAnalysisTime": "the paper's Sec. IV-C analysis-time formula, checked by math_test",
	"simfs/internal/metrics.Series.Xs":            "the root Fig. 15b/c benchmarks read a figure's x positions, whose labels carry computed restart-space sizes",
}

// dynamicMethods are reached through reflection or the fmt, errors and
// encoding packages, never by a call the walk can see.
var dynamicMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true,
	"MarshalText": true, "UnmarshalText": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// TestReachability is the gate against test-only entry points: every
// exported function and method of a non-main package (internal/analysis
// aside) must be reached from a production root, or sit on testSeams
// with its reason. The roots are every main package (cmd/*, examples/*),
// the simfs facade's exported API and every method of the dvlib and
// ioshim types it re-exports, the benchmark module, and every package's
// initialisers. A method that implements a method of one of the module's
// named interfaces counts as reached when that interface method is: a
// call through an interface resolves to the interface's own method. A
// method whose name any other interface of the program declares (the
// standard library's, a literal's) counts as reached, as do
// dynamicMethods. An interface method on testSeams roots its
// implementations. `make dead-ops` runs it.
func TestReachability(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool unavailable: %v", err)
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	bench, err := analysis.Load(filepath.Join(root, "benchmark"), ".")
	if err != nil {
		t.Fatalf("loading the benchmark module: %v", err)
	}

	w := newWalk()
	for _, pkg := range pkgs {
		w.addPackage(pkg)
		if pkg.PkgPath == "simfs" {
			w.rootFacadeAliases(pkg)
		}
	}
	for _, pkg := range bench {
		if pkg.PkgPath == "simfs/benchmark" {
			w.addPackage(pkg)
		}
	}
	w.addImplementations(pkgs)
	w.run()

	seen := map[string]bool{}
	var seams []string
	for k := range testSeams {
		if w.ifaceKeys[k] && !w.reached[k] {
			seen[k] = true
			seams = append(seams, k)
		}
	}
	w.run(seams...)

	var dead []string
	lines := 0
	for _, pkg := range pkgs {
		if pkg.Types.Name() == "main" || strings.HasPrefix(pkg.PkgPath, "simfs/internal/analysis") {
			continue
		}
		for _, d := range w.decls[pkg] {
			k := d.key
			if !ast.IsExported(d.decl.Name.Name) || w.reached[k] || w.viaInterface(d.decl.Name.Name, d.decl.Recv != nil) {
				continue
			}
			if _, ok := testSeams[k]; ok {
				seen[k] = true
				continue
			}
			n := d.lines(pkg.Fset)
			lines += n
			dead = append(dead, fmt.Sprintf("%s: %s (%d lines)", pkg.Fset.Position(d.decl.Pos()), k, n))
		}
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Errorf("only tests reach %s", s)
	}
	if len(dead) > 0 {
		t.Errorf("%d test-only exported functions and methods (%d lines): delete them, move their tests onto the production path, or list them in testSeams with a reason", len(dead), lines)
	}
	for k := range testSeams {
		if !seen[k] {
			t.Errorf("testSeams lists %s, which is not a test-only exported function or method (reached in production, or gone): drop the entry", k)
		}
	}
}

// A funcDecl is one function or method declaration and its walk key.
type funcDecl struct {
	key  string
	decl *ast.FuncDecl
}

// lines counts the declaration's lines, its doc comment included.
func (d funcDecl) lines(fset *token.FileSet) int {
	start := d.decl.Pos()
	if d.decl.Doc != nil {
		start = d.decl.Doc.Pos()
	}
	return fset.Position(d.decl.End()).Line - fset.Position(start).Line + 1
}

// walk is a name-keyed call graph over every loaded package. Keys are
// strings, not types.Objects, because the benchmark module is loaded
// (and type-checked) apart from the root module.
type walk struct {
	decls   map[*analysis.Package][]funcDecl
	edges   map[string][]string
	roots   []string
	reached map[string]bool
	// ifaceMethods holds the method names of every interface the
	// program names or converts to, the module's named ones aside.
	ifaceMethods map[string]bool
	// ifaceKeys holds the keys of the module's named interfaces' methods.
	ifaceKeys map[string]bool
}

func newWalk() *walk {
	return &walk{
		decls:        map[*analysis.Package][]funcDecl{},
		edges:        map[string][]string{},
		reached:      map[string]bool{},
		ifaceMethods: map[string]bool{},
		ifaceKeys:    map[string]bool{},
	}
}

// funcKey names a function "pkgpath.Name" and a method
// "pkgpath.Type.Name", generic instances under their origin.
func funcKey(f *types.Func) string {
	f = f.Origin()
	path := ""
	if f.Pkg() != nil {
		path = f.Pkg().Path()
	}
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return path + "." + n.Obj().Name() + "." + f.Name()
		}
		return path + ".(iface)." + f.Name()
	}
	return path + "." + f.Name()
}

// uses lists the functions and methods referenced inside node.
func uses(info *types.Info, node ast.Node) []string {
	var out []string
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if f, ok := info.Uses[id].(*types.Func); ok {
				out = append(out, funcKey(f))
			}
		}
		return true
	})
	return out
}

// addPackage records pkg's declarations and call edges. The roots it adds
// are a main package's every declaration, the facade's exported ones,
// and every package's initialisers.
func (w *walk) addPackage(pkg *analysis.Package) {
	info := pkg.TypesInfo
	for e, tv := range info.Types {
		// An interface literal counts where a value takes its type: the
		// literal inside a named interface's declaration must not.
		if _, lit := e.(*ast.InterfaceType); !lit {
			w.noteInterfaces(tv.Type)
		}
	}
	for _, f := range pkg.Syntax {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				obj, ok := info.Defs[decl.Name].(*types.Func)
				if !ok {
					continue
				}
				k := funcKey(obj)
				w.decls[pkg] = append(w.decls[pkg], funcDecl{key: k, decl: decl})
				w.edges[k] = append(w.edges[k], uses(info, decl)...)
				isInit := decl.Recv == nil && decl.Name.Name == "init"
				facadeAPI := pkg.PkgPath == "simfs" && ast.IsExported(decl.Name.Name)
				if isInit || facadeAPI || pkg.Types.Name() == "main" {
					w.roots = append(w.roots, k)
				}
			case *ast.GenDecl:
				if decl.Tok == token.VAR {
					w.roots = append(w.roots, uses(info, decl)...)
				}
			}
		}
	}
}

// noteInterfaces records the method names of the interfaces t is or
// converts to: an interface itself, and a signature's parameters and
// results (a call converts its arguments implicitly). The module's named
// interfaces are left to addImplementations.
func (w *walk) noteInterfaces(t types.Type) {
	if t == nil || moduleInterface(t) {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Interface:
		for i := 0; i < u.NumMethods(); i++ {
			w.ifaceMethods[u.Method(i).Name()] = true
		}
	case *types.Signature:
		for _, tuple := range []*types.Tuple{u.Params(), u.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				if types.IsInterface(tuple.At(i).Type()) {
					w.noteInterfaces(tuple.At(i).Type())
				}
			}
		}
	}
}

// moduleInterface reports whether t is a named interface of the root
// module (the benchmark module's own count as foreign).
func moduleInterface(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || !types.IsInterface(n) || n.Obj().Pkg() == nil {
		return false
	}
	path := n.Obj().Pkg().Path()
	return (path == "simfs" || strings.HasPrefix(path, "simfs/")) && path != "simfs/benchmark"
}

// addImplementations links each method of the module's named interfaces
// to the methods of the module's named types that implement it. Each
// package imports the others from export data, so no two share type
// identities: a type implements an interface when it has a method of
// every name the interface declares, with the same signature spelled
// out (generic sides match when their type parameters share names).
func (w *walk) addImplementations(pkgs []*analysis.Package) {
	type method struct{ key, sig string }
	var ifaces []map[string]method
	var named []map[string]method
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			ms := map[string]method{}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					ms[m.Name()] = method{funcKey(m), signature(m)}
					w.ifaceKeys[funcKey(m)] = true
				}
				ifaces = append(ifaces, ms)
				continue
			}
			set := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := 0; i < set.Len(); i++ {
				m := set.At(i).Obj().(*types.Func)
				ms[m.Name()] = method{funcKey(m), signature(m)}
			}
			named = append(named, ms)
		}
	}
	for _, it := range ifaces {
	types:
		for _, ms := range named {
			for name, m := range it {
				if ms[name].sig != m.sig {
					continue types
				}
			}
			for name, m := range it {
				w.edges[m.key] = append(w.edges[m.key], ms[name].key)
			}
		}
	}
}

// signature spells out f's parameter and result types.
func signature(f *types.Func) string {
	sig := f.Type().(*types.Signature)
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), nil) + ",")
		}
		b.WriteString(";")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// rootFacadeAliases roots every exported method of the dvlib and ioshim
// types the simfs facade re-exports under an alias.
func (w *walk) rootFacadeAliases(facade *analysis.Package) {
	scope := facade.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.IsAlias() {
			continue
		}
		n, ok := types.Unalias(tn.Type()).(*types.Named)
		if !ok || n.Obj().Pkg() == nil {
			continue
		}
		switch n.Obj().Pkg().Path() {
		case "simfs/internal/dvlib", "simfs/internal/ioshim":
		default:
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(n))
		for i := 0; i < ms.Len(); i++ {
			if f := ms.At(i).Obj().(*types.Func); f.Exported() {
				w.roots = append(w.roots, funcKey(f))
			}
		}
	}
}

// viaInterface reports whether a method of that name may be reached
// through an interface or dynamically.
func (w *walk) viaInterface(name string, method bool) bool {
	return method && (w.ifaceMethods[name] || dynamicMethods[name])
}

// run marks everything reachable from the roots, from every method
// viaInterface admits and from more.
func (w *walk) run(more ...string) {
	queue := append(append([]string(nil), w.roots...), more...)
	for _, ds := range w.decls {
		for _, d := range ds {
			if w.viaInterface(d.decl.Name.Name, d.decl.Recv != nil) {
				queue = append(queue, d.key)
			}
		}
	}
	for len(queue) > 0 {
		k := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if w.reached[k] {
			continue
		}
		w.reached[k] = true
		queue = append(queue, w.edges[k]...)
	}
}
