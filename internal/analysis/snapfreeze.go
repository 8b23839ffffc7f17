package analysis

import (
	"go/ast"
	"go/types"
)

// SnapFreezePass enforces the snapshot-immutability contract at the
// heart of the COW epoch model: once a tree (nodes, entries, V-page
// directory) is reachable from a published epoch, readers traverse it
// with no locks, so *any* store into it is a data race — even a benign-
// looking counter bump. Types opt in with hdov:frozen-after-publish on
// their declaration; functions that legitimately build not-yet-published
// state (bulk load, decode, ApplyOps's clone path) open a construction
// window with hdov:construction-window in their doc comment.
//
// The pass flags, outside construction windows:
//
//   - direct stores through a frozen value (field assignment, element
//     assignment, deref store, ++/--), unless the value is provably a
//     fresh local (allocated in this function and not yet escaped);
//   - calls that hand a frozen value to an intra-package callee whose
//     summary says it mutates that parameter (the call-graph's
//     MutatesParam), unless the callee is itself a construction window.
//
// The freshness exemption keeps the annotation honest without drowning
// tests: `n := &Node{...}; n.Count = 3` is construction wherever it
// appears, because no published epoch can reach n yet.
type SnapFreezePass struct {
	loader *Loader
}

// Name implements Pass.
func (*SnapFreezePass) Name() string { return "snapfreeze" }

// SetLoader implements LoaderAware: frozen types are usually declared in
// a different package (internal/core) than the stores under analysis.
func (p *SnapFreezePass) SetLoader(l *Loader) { p.loader = l }

// Run implements Pass.
func (p *SnapFreezePass) Run(pkg *Package) []Finding {
	ann := newAnnotations(pkg, p.loader)
	cg := BuildCallGraph(pkg)
	var out []Finding
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				if _, window := ann.funcAnnotation(obj, "hdov:construction-window"); window {
					continue
				}
			}
			out = append(out, p.checkFunc(pkg, ann, cg, fd)...)
		}
	}
	return out
}

func (p *SnapFreezePass) checkFunc(pkg *Package, ann *annotations, cg *CallGraph, fd *ast.FuncDecl) []Finding {
	fresh := freshLocals(pkg, fd.Body)
	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			// Function literals share the enclosing function's window
			// status and fresh-local view (captured variables), so keep
			// descending.
			return true
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				out = append(out, p.checkStore(pkg, ann, fresh, lhs)...)
			}
		case *ast.IncDecStmt:
			out = append(out, p.checkStore(pkg, ann, fresh, st.X)...)
		case *ast.CallExpr:
			out = append(out, p.checkCall(pkg, ann, cg, fresh, st)...)
		}
		return true
	})
	return out
}

// checkStore reports a store whose access path passes through a frozen
// value that is not a fresh local.
func (p *SnapFreezePass) checkStore(pkg *Package, ann *annotations, fresh map[types.Object]bool, lhs ast.Expr) []Finding {
	base, tn := p.frozenBase(pkg, ann, lhs)
	if tn == nil {
		return nil
	}
	if obj := rootObject(pkg, base); obj != nil {
		if fresh[obj] {
			return nil
		}
		// A direct field store on a value-typed local or parameter hits
		// the function's own copy, not published memory. (Stores through
		// a slice, map or pointer field still reach the shared backing
		// store and are not exempt.)
		if id, ok := ast.Unparen(base).(*ast.Ident); ok && pkg.Info.ObjectOf(id) == obj && ownStorage(pkg, lhs) {
			if _, isPtr := obj.Type().Underlying().(*types.Pointer); !isPtr {
				if _, isVar := obj.(*types.Var); isVar && obj.Parent() != obj.Pkg().Scope() {
					return nil
				}
			}
		}
	}
	return []Finding{finding("snapfreeze", pkg.Fset, lhs.Pos(),
		"store to %s mutates %s.%s, which is hdov:frozen-after-publish; published snapshots are traversed lock-free, so move this into a construction window",
		exprString(lhs), tn.Pkg().Name(), tn.Name())}
}

// checkCall reports a frozen value handed to an intra-package callee
// that mutates the matching parameter (and is not itself a construction
// window).
func (p *SnapFreezePass) checkCall(pkg *Package, ann *annotations, cg *CallGraph, fresh map[types.Object]bool, call *ast.CallExpr) []Finding {
	sum := cg.Summary(call)
	if sum == nil {
		return nil
	}
	if _, window := ann.funcAnnotation(sum.Obj, "hdov:construction-window"); window {
		return nil
	}
	var out []Finding
	check := func(arg ast.Expr, idx int) {
		if idx < 0 || idx >= len(sum.MutatesParam) || !sum.MutatesParam[idx] {
			return
		}
		tn := ann.frozenType(pkg.Info.Types[arg].Type)
		if tn == nil {
			return
		}
		if obj := rootObject(pkg, arg); obj != nil && fresh[obj] {
			return
		}
		out = append(out, finding("snapfreeze", pkg.Fset, arg.Pos(),
			"%s (hdov:frozen-after-publish %s.%s) is passed to %s, which mutates that parameter; published snapshots are immutable",
			exprString(arg), tn.Pkg().Name(), tn.Name(), sum.Obj.Name()))
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sum.Decl.Recv != nil {
		check(sel.X, 0)
	}
	for a, arg := range call.Args {
		check(arg, sum.CallArgIndex(call, a))
	}
	return out
}

// frozenBase walks a store target's access path outward and returns the
// innermost sub-expression whose type is frozen (plus the frozen type),
// or nil. The full LHS expression itself is not a base: `x = v` with x
// of frozen type rebinds a variable, it does not mutate the object.
func (p *SnapFreezePass) frozenBase(pkg *Package, ann *annotations, lhs ast.Expr) (ast.Expr, *types.TypeName) {
	e := lhs
	for {
		var inner ast.Expr
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.SelectorExpr:
			inner = x.X
		case *ast.IndexExpr:
			inner = x.X
		case *ast.StarExpr:
			inner = x.X
		default:
			// A plain identifier (or anything unrecognised) rebinds a
			// variable rather than storing through memory.
			return nil, nil
		}
		if tv, ok := pkg.Info.Types[inner]; ok && tv.Type != nil {
			if tn := ann.frozenType(tv.Type); tn != nil {
				return inner, tn
			}
			// A slice element store mutates the backing array the frozen
			// struct published: []Entry fields keep the Entry type's
			// annotation in force through the index.
			if sl, ok := tv.Type.Underlying().(*types.Slice); ok {
				if tn := ann.frozenType(sl.Elem()); tn != nil {
					return inner, tn
				}
			}
		}
		e = inner
	}
}

// ownStorage reports whether a store to lhs lands inside the storage of
// the variable at its root: every step is a field selection on a struct
// value or an index into an array value. An index into a slice or map,
// an explicit dereference, or a field reached through a pointer writes
// memory the variable only points at.
func ownStorage(pkg *Package, lhs ast.Expr) bool {
	e := lhs
	for {
		var inner ast.Expr
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.Ident:
			return true
		case *ast.SelectorExpr:
			inner = x.X
		case *ast.IndexExpr:
			inner = x.X
		default:
			return false
		}
		tv, ok := pkg.Info.Types[inner]
		if !ok || tv.Type == nil {
			return false
		}
		switch tv.Type.Underlying().(type) {
		case *types.Struct, *types.Array:
		default:
			return false
		}
		e = inner
	}
}

// rootObject returns the object of the identifier at the root of an
// access chain, or nil.
func rootObject(pkg *Package, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.Ident:
			if o := pkg.Info.Uses[x]; o != nil {
				return o
			}
			return pkg.Info.Defs[x]
		default:
			return nil
		}
	}
}

// freshLocals collects local variables that provably hold memory
// allocated inside this function: `x := &T{...}`, `x := new(T)`, or a
// value-typed `var x T` / `x := T{...}` (a value local is the
// function's own copy). Reassigning such a variable from anything else
// removes its freshness; the map is the conservative intersection over
// the whole body, order-insensitive.
func freshLocals(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	poisoned := make(map[types.Object]bool)
	note := func(id *ast.Ident, rhs ast.Expr) {
		obj := pkg.Info.Defs[id]
		if obj == nil {
			obj = pkg.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		if rhs != nil && isFreshAlloc(pkg, rhs) {
			fresh[obj] = true
		} else if _, isPtr := obj.Type().Underlying().(*types.Pointer); !isPtr && rhs == nil {
			// `var x T` zero value: the function's own storage.
			fresh[obj] = true
		} else {
			poisoned[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i, lhs := range st.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
						note(id, st.Rhs[i])
					}
				}
			} else {
				for _, lhs := range st.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
						note(id, st.Rhs[0])
					}
				}
			}
		case *ast.DeclStmt:
			if gd, ok := st.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for i, id := range vs.Names {
							var rhs ast.Expr
							if i < len(vs.Values) {
								rhs = vs.Values[i]
							}
							note(id, rhs)
						}
					}
				}
			}
		case *ast.UnaryExpr:
			// &x escapes the local: a callee may publish it.
			if st.Op.String() == "&" {
				if id, ok := ast.Unparen(st.X).(*ast.Ident); ok {
					if obj := pkg.Info.Uses[id]; obj != nil {
						poisoned[obj] = true
					}
				}
			}
		}
		return true
	})
	for obj := range poisoned {
		delete(fresh, obj)
	}
	return fresh
}

// isFreshAlloc reports whether rhs evaluates to memory this function
// just allocated: &T{...}, new(T), T{...}, or make of a slice/map.
func isFreshAlloc(pkg *Package, rhs ast.Expr) bool {
	switch x := ast.Unparen(rhs).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op.String() == "&" {
			_, isLit := ast.Unparen(x.X).(*ast.CompositeLit)
			return isLit
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if id.Name == "new" || id.Name == "make" {
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					return true
				}
			}
		}
	}
	return false
}
