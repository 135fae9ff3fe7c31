// Package determinism flags nondeterminism sources in packages that
// must replay bit-identically: wall-clock reads, the unseeded global
// math/rand source, and (in the determinism-critical packages) map
// iteration that feeds order-sensitive effects.
//
// The whole experiment stack reproduces the paper's tables only
// because time comes from injected clocks (des.Clock, the
// Virtualizer's v.after seam, autoscale.Options.Clock) and every rng
// is explicitly seeded. Wall-clock reads and global rand draws are
// correct only at the edges (live daemon service-time stamps, lock
// contention metrics, redial backoff) — such sites carry
// //simfs:allow wallclock|rand annotations with a reason.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"simfs/internal/analysis"
)

// MapOrderPackages are the packages where ranging over a map is
// flagged unless the loop body is provably order-insensitive (pure
// accumulation into maps, integer counters). These are the packages
// whose output, actuation, or scheduling order the golden tables pin;
// everywhere else map ranges are unchecked. Tests may add their
// testdata package paths.
var MapOrderPackages = map[string]bool{
	"simfs/internal/core":        true,
	"simfs/internal/des":         true,
	"simfs/internal/sched":       true,
	"simfs/internal/cache":       true,
	"simfs/internal/trace":       true,
	"simfs/internal/experiments": true,
	"simfs/internal/autoscale":   true,
	// notify's callbacks drive the DES: OpenAwait's and the pipeline's
	// waiters wake analyses and parked simulations in the ledger's order.
	"simfs/internal/notify": true,
}

// wallFuncs are the package time functions that read or arm the wall
// clock. time.AfterFunc and friends are included: a wall-clock timer
// is as nondeterministic as a wall-clock read (the Virtualizer's
// v.after seam exists so DES tests can run them in virtual time).
var wallFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"AfterFunc": true, "NewTimer": true, "NewTicker": true,
	"Tick": true, "Sleep": true,
}

// randCtors are the math/rand[/v2] constructors that take an explicit
// seed or an explicit *rand.Rand (NewZipf) and are therefore
// sanctioned: the caller's seeding discipline carries through them.
var randCtors = map[string]bool{
	"NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flag wall-clock reads, unseeded randomness, and order-sensitive map iteration " +
		"in determinism-critical packages",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		// First pass: rand.New calls whose source argument is an
		// explicit seeded constructor are sanctioned.
		seededNew := map[*ast.Ident]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !isRandFunc(pass, sel.Sel, "New") || len(call.Args) != 1 {
				return true
			}
			if inner, ok := call.Args[0].(*ast.CallExpr); ok {
				if isel, ok := inner.Fun.(*ast.SelectorExpr); ok {
					if obj, ok := pass.TypesInfo.Uses[isel.Sel].(*types.Func); ok &&
						obj.Pkg() != nil && isRandPath(obj.Pkg().Path()) && randCtors[obj.Name()] {
						seededNew[sel.Sel] = true
					}
				}
			}
			return true
		})

		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				fn, ok := pass.TypesInfo.Uses[n.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
					return true // methods (e.g. Time.Sub, (*Rand).Intn) are fine
				}
				switch {
				case fn.Pkg().Path() == "time" && wallFuncs[fn.Name()]:
					pass.Reportf("wallclock", n.Sel.Pos(),
						"wall-clock source time.%s in a determinism-scoped package; inject a clock (des.Clock, v.after, autoscale Options.Clock) or annotate //simfs:allow wallclock <reason>",
						fn.Name())
				case isRandPath(fn.Pkg().Path()):
					switch {
					case randCtors[fn.Name()]:
						// Explicit seeded constructor: fine on its own.
					case fn.Name() == "New":
						if !seededNew[n.Sel] {
							pass.Reportf("rand", n.Sel.Pos(),
								"rand.New without an explicit seeded source; write rand.New(rand.NewSource(seed)) so the seed is visible at the construction site")
						}
					default:
						pass.Reportf("rand", n.Sel.Pos(),
							"top-level %s.%s draws from the process-global source; use an explicitly seeded *rand.Rand",
							fn.Pkg().Name(), fn.Name())
					}
				}
			case *ast.RangeStmt:
				if !MapOrderPackages[pass.Pkg.PkgPath] {
					return true
				}
				tv, ok := pass.TypesInfo.Types[n.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if orderInsensitive(pass, n.Body) {
					return true
				}
				pass.Reportf("maporder", n.Pos(),
					"map iteration order feeds this loop's effects; iterate a sorted key slice, or annotate //simfs:allow maporder <reason> if the body is order-insensitive in a way the checker cannot prove")
			}
			return true
		})
	}
	return nil
}

func isRandPath(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

func isRandFunc(pass *analysis.Pass, sel *ast.Ident, name string) bool {
	fn, ok := pass.TypesInfo.Uses[sel].(*types.Func)
	return ok && fn.Pkg() != nil && isRandPath(fn.Pkg().Path()) && fn.Name() == name
}

// orderInsensitive reports whether every statement of a map-range body
// is insensitive to iteration order: assignments into maps, per-key
// deletes, integer/bitwise accumulation (commutative — float sums are
// not, their rounding depends on order), per-iteration locals from
// pure expressions, and pure control flow over those. Anything else
// (appends, sends, calls, returns, breaks) is order-sensitive.
func orderInsensitive(pass *analysis.Pass, body *ast.BlockStmt) bool {
	ok := true
	for _, s := range body.List {
		if !stmtInsensitive(pass, s) {
			ok = false
			break
		}
	}
	return ok
}

func stmtInsensitive(pass *analysis.Pass, stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case nil, *ast.EmptyStmt:
		return true
	case *ast.BlockStmt:
		return orderInsensitive(pass, s)
	case *ast.AssignStmt:
		switch s.Tok {
		case token.ADD_ASSIGN, token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
			for _, l := range s.Lhs {
				if !isIntegerExpr(pass, l) {
					return false
				}
			}
			return allPure(pass, s.Rhs)
		case token.DEFINE:
			// Fresh per-iteration locals from pure expressions.
			for _, l := range s.Lhs {
				if _, ok := l.(*ast.Ident); !ok {
					return false
				}
			}
			return allPure(pass, s.Rhs)
		case token.ASSIGN:
			// Writes are only insensitive when keyed by the element:
			// m[k] = v assigns each key once per iteration pass.
			for _, l := range s.Lhs {
				if isBlank(l) {
					continue
				}
				ix, ok := l.(*ast.IndexExpr)
				if !ok || !isMapExpr(pass, ix.X) {
					return false
				}
			}
			return allPure(pass, s.Rhs)
		default:
			return false
		}
	case *ast.IncDecStmt:
		return isIntegerExpr(pass, s.X)
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		return ok && isBuiltin(pass, call.Fun, "delete") && allPure(pass, call.Args)
	case *ast.IfStmt:
		return stmtInsensitive(pass, s.Init) && pureExpr(pass, s.Cond) &&
			orderInsensitive(pass, s.Body) && stmtInsensitive(pass, s.Else)
	case *ast.ForStmt:
		return stmtInsensitive(pass, s.Init) && pureExpr(pass, s.Cond) &&
			stmtInsensitive(pass, s.Post) && orderInsensitive(pass, s.Body)
	case *ast.RangeStmt:
		return pureExpr(pass, s.X) && orderInsensitive(pass, s.Body)
	case *ast.BranchStmt:
		// continue just skips an iteration; break makes the set of
		// processed entries depend on order.
		return s.Tok == token.CONTINUE
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return false
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok && !allPure(pass, vs.Values) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func isMapExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func isIntegerExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isBuiltin(pass *analysis.Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin && id.Name == name
}

// pureExpr reports whether evaluating e has no side effects and no
// order-dependent result: no calls (except len/cap/min/max and type
// conversions), no channel receives.
func pureExpr(pass *analysis.Pass, e ast.Expr) bool {
	if e == nil {
		return true
	}
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv, ok := pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() {
				return true // conversion
			}
			if id, ok := n.Fun.(*ast.Ident); ok {
				if _, isB := pass.TypesInfo.Uses[id].(*types.Builtin); isB {
					switch id.Name {
					case "len", "cap", "min", "max":
						return true
					}
				}
			}
			pure = false
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pure = false
				return false
			}
		case *ast.FuncLit:
			return false // defining one is pure; skip its body
		}
		return true
	})
	return pure
}

func allPure(pass *analysis.Pass, exprs []ast.Expr) bool {
	for _, e := range exprs {
		if !pureExpr(pass, e) {
			return false
		}
	}
	return true
}
