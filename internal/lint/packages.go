package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// The enforced package sets. Paths are import paths inside this module;
// a trailing "/..." entry matches the package and its whole subtree.
// To put a new package under enforcement, add it here and fix (or
// annotate) what the suite then finds — see DESIGN.md "Determinism as
// a checked invariant".
var (
	// resultAffecting lists the packages whose output bytes feed
	// fingerprints, fitness, schedules, or merged fleet results. A
	// wall-clock read or global-randomness draw here forks the
	// deterministic search stream that the worker-matrix and fleet
	// merge tests (and MAGMA's reproducibility claim) depend on.
	resultAffecting = []string{
		"magma/internal/encoding",
		"magma/internal/engine",
		"magma/internal/m3e",
		"magma/internal/opt/...",
		"magma/internal/rng",
		"magma/internal/sim",
	}

	// orderSensitive extends resultAffecting with the aggregation
	// paths whose rendered output (stats tables, merged fleet JSON)
	// must not depend on map-iteration order even when the numbers
	// themselves are commutative.
	orderSensitive = append([]string{
		"magma/internal/fleet",
		"magma/internal/serve",
		"magma/internal/stats",
	}, resultAffecting...)

	// panicIsolated lists the packages that run inside the m3e mapper
	// recover boundary: a raw panic here must be m3e.AbortRun (or a
	// registered fault hook) so it surfaces as *m3e.MapperPanicError
	// instead of killing the search or the serving process.
	panicIsolated = []string{
		"magma/internal/nn",
		"magma/internal/opt/...",
	}

	// ctxBounded lists the packages whose exported API carries the
	// PR 4 cancellation contract: context flows as the first
	// parameter and is never stored.
	ctxBounded = []string{
		"magma",
		"magma/internal/engine",
		"magma/internal/serve",
	}
)

// inSet reports whether path matches one of the set's entries, where
// "p/..." matches p and every package below it.
func inSet(path string, set []string) bool {
	for _, entry := range set {
		if prefix, ok := strings.CutSuffix(entry, "/..."); ok {
			if path == prefix || strings.HasPrefix(path, prefix+"/") {
				return true
			}
		} else if path == entry {
			return true
		}
	}
	return false
}

// importedPkg resolves a selector base ident to the package it names,
// or nil if the ident is not a package qualifier (e.g. a local
// variable called "rand").
func importedPkg(info *types.Info, id *ast.Ident) *types.Package {
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported()
	}
	return nil
}

// pkgCall matches a call of the form qualifier.Fn(...) where qualifier
// names the package with import path pkgPath; it returns the function
// name and true on match.
func pkgCall(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	if p := importedPkg(info, id); p != nil && p.Path() == pkgPath {
		return sel.Sel.Name, true
	}
	return "", false
}

// isNamedType reports whether t (after pointer indirection) is the
// named type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// isBuiltin reports whether the call's callee is the named builtin
// (append, panic, ...), respecting shadowing via type info.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}
