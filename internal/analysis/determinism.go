package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismPass guards the reproducibility contract of the query path
// (DESIGN.md §10): the differential suite asserts byte-identical results
// across storage schemes, client counts, and full/coherent traversal,
// and the paper's scheme comparison (§4–5) is only fair if every run
// takes the same access path. Within the root package, internal/core and
// internal/vstore it therefore forbids:
//
//   - time.Now / time.Since / time.After — wall-clock reads make output
//     run-dependent;
//   - importing math/rand — unseeded (or shared-seed) randomness in the
//     result path breaks replay;
//   - ranging over a map — iteration order is randomized per run, so any
//     map walk that feeds results, encoding, or I/O ordering must
//     enumerate sorted keys (or cell IDs) instead.
//
// Order-insensitive map walks (pure counting) exist; those sites carry a
// //lint:ignore determinism comment with the argument for why order
// cannot leak, which is exactly the review trail the invariant wants.
//
// internal/dbfile is in scope too: the persistence layer serializes the
// manifest, the op log and the page-run chain, and a map-order- or
// clock-dependent write there would make a committed epoch irreproducible
// (the crash-point harness compares recovered directories byte-for-byte
// against what the commit protocol promised).
//
// internal/shard is in scope for the same reason: the router's merge
// discipline promises answers byte-identical to the single-store
// baseline, so shard iteration, scatter grouping and stats aggregation
// must walk slices in index order — a map range over shards would
// reorder per-store access sequences between runs.
type DeterminismPass struct {
	// Packages restricts the pass (import-path suffix match, "" entry
	// meaning the module root). Empty means the query-path default.
	Packages []string
}

// Name implements Pass.
func (*DeterminismPass) Name() string { return "determinism" }

func (p *DeterminismPass) scope(pkg *Package) bool {
	pats := p.Packages
	if len(pats) == 0 {
		pats = []string{"internal/core", "internal/vstore", "internal/dbfile", "internal/shard", "root"}
	}
	for _, s := range pats {
		if s == "root" {
			if !strings.Contains(pkg.Path, "/") {
				return true
			}
			continue
		}
		if strings.HasSuffix(pkg.Path, s) {
			return true
		}
	}
	return false
}

// bannedCalls maps qualified call names to the reason they break replay.
var bannedCalls = map[string]string{
	"time.Now":   "wall-clock read",
	"time.Since": "wall-clock read",
	"time.Until": "wall-clock read",
	"time.After": "wall-clock timer",
	"time.Tick":  "wall-clock timer",
}

// Run implements Pass.
func (p *DeterminismPass) Run(pkg *Package) []Finding {
	if !p.scope(pkg) {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				out = append(out, finding("determinism", pkg.Fset, imp.Pos(),
					"import of %s in a determinism-critical package (query results must replay bit-identically)", path))
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if name, reason := p.bannedCall(pkg, x); name != "" {
					out = append(out, finding("determinism", pkg.Fset, x.Pos(),
						"%s in a determinism-critical package (%s makes runs diverge)", name, reason))
				}
			case *ast.RangeStmt:
				if tv, ok := pkg.Info.Types[x.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						out = append(out, finding("determinism", pkg.Fset, x.Pos(),
							"range over map %s: iteration order is randomized per run; walk sorted keys instead", exprString(x.X)))
					}
				}
			}
			return true
		})
	}
	return out
}

// bannedCall matches pkg-qualified calls against the banned set.
func (p *DeterminismPass) bannedCall(pkg *Package, call *ast.CallExpr) (name, reason string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	obj, ok := pkg.Info.Uses[id]
	if !ok {
		return "", ""
	}
	pn, ok := obj.(*types.PkgName)
	if !ok {
		return "", ""
	}
	qualified := pn.Imported().Name() + "." + sel.Sel.Name
	if reason, banned := bannedCalls[qualified]; banned {
		return qualified, reason
	}
	if pn.Imported().Path() == "math/rand" || pn.Imported().Path() == "math/rand/v2" {
		return pn.Imported().Path() + "." + sel.Sel.Name, "randomness"
	}
	return "", ""
}
