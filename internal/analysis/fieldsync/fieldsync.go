// Package fieldsync keeps wire structs and the functions that must
// enumerate their fields in lockstep. A struct annotated
// //simfs:exhaustive (the Stats frame, the binary-codec hot-op bodies)
// demands that every function annotated //simfs:sync <Type> — the
// router's mergeStats, the binary codec encode/decode pairs —
// references every field.
// Adding a counter without merging or encoding it then fails the
// build instead of silently dropping data at a fan-out boundary
// (the PR 9 mergeStats fix is the bug class this encodes).
package fieldsync

import (
	"go/ast"
	"go/types"
	"strings"

	"simfs/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "fieldsync",
	Doc: "check that every //simfs:sync function references every field of its " +
		"//simfs:exhaustive struct",
	Run: run,
}

// exhaustiveFields is the fact exported per annotated struct: the
// field names a sync function must reference, in declaration order.
type exhaustiveFields []string

func run(pass *analysis.Pass) error {
	// Phase 1: record annotated structs (and their per-field nosync
	// exemptions) as facts, so sync functions here and in importing
	// packages can check against them.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil {
					doc = gd.Doc
				}
				if _, ok := analysis.HasDirective(doc, "exhaustive"); !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					pass.Reportf("fieldsync", ts.Name.Pos(),
						"//simfs:exhaustive on %s, which is not a struct type", ts.Name.Name)
					continue
				}
				var required exhaustiveFields
				for _, field := range st.Fields.List {
					if _, exempt := analysis.HasDirective(field.Doc, "nosync"); exempt {
						continue
					}
					if _, exempt := analysis.HasDirective(field.Comment, "nosync"); exempt {
						continue
					}
					if len(field.Names) == 0 {
						// Embedded field: referenced by its type name.
						required = append(required, embeddedName(field.Type))
						continue
					}
					for _, name := range field.Names {
						required = append(required, name.Name)
					}
				}
				pass.ExportFact("exhaustive:"+ts.Name.Name, required)
			}
		}
	}

	// Phase 2: check sync functions against the recorded structs.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			for _, target := range analysis.DirectiveArgs(fn.Doc, "sync") {
				checkSync(pass, fn, target)
			}
		}
	}
	return nil
}

func embeddedName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return embeddedName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	}
	return ""
}

// checkSync verifies that fn references every required field of the
// //simfs:sync target, written as Type (same package) or pkg.Type
// (any package this one imports).
func checkSync(pass *analysis.Pass, fn *ast.FuncDecl, target string) {
	pkgName, typeName, qualified := strings.Cut(target, ".")
	var scopePkg *types.Package
	var pkgPath string
	if !qualified {
		typeName = pkgName
		scopePkg = pass.Types
		pkgPath = pass.Pkg.PkgPath
	} else {
		for _, imp := range pass.Types.Imports() {
			if imp.Name() == pkgName || imp.Path() == pkgName {
				scopePkg = imp
				pkgPath = imp.Path()
				break
			}
		}
		if scopePkg == nil {
			pass.Reportf("fieldsync", fn.Name.Pos(),
				"//simfs:sync %s: package %q is not imported here", target, pkgName)
			return
		}
	}

	fact, ok := pass.LookupFact(pkgPath, "exhaustive:"+typeName)
	if !ok {
		pass.Reportf("fieldsync", fn.Name.Pos(),
			"//simfs:sync %s: type %s is not annotated //simfs:exhaustive", target, target)
		return
	}
	required := fact.(exhaustiveFields)

	obj := scopePkg.Scope().Lookup(typeName)
	if obj == nil {
		pass.Reportf("fieldsync", fn.Name.Pos(),
			"//simfs:sync %s: no such type in package %s", target, pkgPath)
		return
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		pass.Reportf("fieldsync", fn.Name.Pos(), "//simfs:sync %s: not a struct type", target)
		return
	}
	fieldVar := map[string]*types.Var{}
	for i := 0; i < st.NumFields(); i++ {
		fieldVar[st.Field(i).Name()] = st.Field(i)
	}

	if fn.Body == nil {
		pass.Reportf("fieldsync", fn.Name.Pos(), "//simfs:sync %s on a function with no body", target)
		return
	}
	// Every identifier in the body resolving to a field object of the
	// target struct counts as a reference — selectors (dst.Opens) and
	// composite-literal keys (Stats{Hits: ...}) both do.
	used := map[*types.Var]bool{}
	body := fn.Body
	for ident, o := range pass.TypesInfo.Uses {
		if ident.Pos() < body.Pos() || ident.Pos() >= body.End() {
			continue
		}
		if v, ok := o.(*types.Var); ok && v.IsField() {
			used[v] = true
		}
	}
	for _, name := range required {
		v := fieldVar[name]
		if v == nil {
			pass.Reportf("fieldsync", fn.Name.Pos(),
				"//simfs:sync %s: annotated field %s no longer exists on the struct", target, name)
			continue
		}
		if !used[v] {
			pass.Reportf("fieldsync", fn.Name.Pos(),
				"sync function %s does not reference field %s of %s; sync it (or mark the field //simfs:nosync <reason> on the struct)",
				fn.Name.Name, name, target)
		}
	}
}
