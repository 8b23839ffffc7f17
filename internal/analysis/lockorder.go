package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockOrderPass enforces the storage locking protocol (DESIGN.md §10).
// Within internal/storage:
//
//  1. Ordering: d.statsMu is the innermost lock. Acquiring mu (Lock or
//     RLock) while statsMu is held inverts the documented order and can
//     deadlock against the mu→statsMu direction.
//  2. No self-nesting: locking a mutex already held by the same function
//     (without an intervening unlock) self-deadlocks for sync.Mutex and
//     write-starves for RWMutex.
//  3. No I/O or callbacks under mu: while any mutex is held, calling
//     through an interface value (io.Writer etc.) or a func-typed
//     variable hands control to unknown code that may block or reenter
//     the disk — the lock-hold regions must stay short and self-contained.
//
// The analysis is intraprocedural and syntactic over each function body,
// tracking held locks by their selector spelling (`d.mu`, `s.statsMu`),
// with defer-awareness: `defer x.Unlock()` keeps x held to the end of
// the function rather than releasing it mid-body.
//
// internal/shard is in scope too: the router's topology mutex serializes
// only pointer swaps and replica publication — rule 3 keeps store opens
// and any other I/O out of its critical sections, so a promotion
// can never stall in-flight queries.
type LockOrderPass struct {
	// Packages restricts the pass (import-path suffix match). Empty means
	// the storage default.
	Packages []string
}

// Name implements Pass.
func (*LockOrderPass) Name() string { return "lockorder" }

// lockOrderScope reports whether the pass applies to pkg.
func (p *LockOrderPass) scope(pkg *Package) bool {
	pats := p.Packages
	if len(pats) == 0 {
		pats = []string{"internal/storage", "internal/shard"}
	}
	for _, s := range pats {
		if strings.HasSuffix(pkg.Path, s) {
			return true
		}
	}
	return false
}

// innerLocks are the mutexes that must never be held when acquiring an
// outer one. statsMu protects leaf accounting; holding it across a mu
// acquisition inverts the documented order.
var innerLocks = map[string]bool{"statsMu": true}

// outerLocks are the locks whose critical sections must not call unknown
// code.
var outerLocks = map[string]bool{"mu": true}

// ioMethodNames are interface-method names that move bytes: calling one
// through an interface value while holding mu performs I/O (or reenters
// arbitrary code) under the structural lock.
var ioMethodNames = map[string]bool{
	"Read": true, "Write": true, "Close": true, "Flush": true,
	"Sync": true, "Seek": true, "ReadFrom": true, "WriteTo": true,
}

// ioPkgFuncs are the package-io functions that perform transfers (the
// constructors are pure).
var ioPkgFuncs = map[string]bool{
	"Copy": true, "CopyN": true, "CopyBuffer": true, "ReadAll": true,
	"ReadFull": true, "WriteString": true, "ReadAtLeast": true,
}

// Run implements Pass.
func (p *LockOrderPass) Run(pkg *Package) []Finding {
	if !p.scope(pkg) {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			c := &lockChecker{pkg: pkg, held: map[string]bool{}}
			c.walkBlock(body.List)
			out = append(out, c.findings...)
			return true
		})
	}
	return out
}

type lockChecker struct {
	pkg      *Package
	held     map[string]bool // lock key ("mu", "statsMu", ...) -> held
	findings []Finding
}

func (c *lockChecker) report(pos ast.Node, format string, args ...any) {
	c.findings = append(c.findings, finding("lockorder", c.pkg.Fset, pos.Pos(), format, args...))
}

// lockCall decomposes `x.y.Lock()` into (lock field name, method). It
// returns ok=false for calls that are not mutex operations.
func (c *lockChecker) lockCall(call *ast.CallExpr) (field, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	method = sel.Sel.Name
	switch method {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	// Receiver must be a sync.Mutex/RWMutex-shaped field or variable; its
	// final selector component is the lock's identity within the pass.
	inner, isSel := sel.X.(*ast.SelectorExpr)
	if isSel {
		field = inner.Sel.Name
	} else if id, isID := sel.X.(*ast.Ident); isID {
		field = id.Name
	} else {
		return "", "", false
	}
	if tv, found := c.pkg.Info.Types[sel.X]; found {
		t := tv.Type.String()
		if !strings.HasSuffix(t, "sync.Mutex") && !strings.HasSuffix(t, "sync.RWMutex") {
			return "", "", false
		}
	}
	return field, method, true
}

// walkBlock processes statements in order, updating the held-lock set.
// Branch bodies are visited with a copy of the current state; the state
// after a branch is the fall-through state (syntactic approximation —
// the storage code keeps lock regions straight-line, and anything
// cleverer belongs behind a suppression with a written justification).
func (c *lockChecker) walkBlock(stmts []ast.Stmt) {
	for _, s := range stmts {
		c.walkStmt(s)
	}
}

func (c *lockChecker) walkStmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			c.handleCall(call, false)
			return
		}
	case *ast.DeferStmt:
		c.handleCall(st.Call, true)
		return
	case *ast.IfStmt:
		if st.Init != nil {
			c.walkStmt(st.Init)
		}
		c.checkExprCalls(st.Cond)
		saved := c.snapshot()
		c.walkBlock(st.Body.List)
		c.restore(saved)
		if st.Else != nil {
			c.walkStmt(st.Else)
			c.restore(saved)
		}
		return
	case *ast.BlockStmt:
		c.walkBlock(st.List)
		return
	case *ast.ForStmt:
		saved := c.snapshot()
		if st.Init != nil {
			c.walkStmt(st.Init)
		}
		c.checkExprCalls(st.Cond)
		c.walkBlock(st.Body.List)
		c.restore(saved)
		return
	case *ast.RangeStmt:
		c.checkExprCalls(st.X)
		saved := c.snapshot()
		c.walkBlock(st.Body.List)
		c.restore(saved)
		return
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		saved := c.snapshot()
		ast.Inspect(s, func(n ast.Node) bool {
			if cl, ok := n.(*ast.CaseClause); ok {
				c.walkBlock(cl.Body)
				c.restore(saved)
				return false
			}
			if cl, ok := n.(*ast.CommClause); ok {
				c.walkBlock(cl.Body)
				c.restore(saved)
				return false
			}
			return true
		})
		return
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			c.checkExprCalls(r)
		}
		return
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			c.checkExprCalls(r)
		}
		return
	case *ast.GoStmt:
		// The goroutine body runs without the caller's locks; its own
		// literal is analyzed as a separate function by Run.
		return
	}
	// Fallback: scan any other statement shape for embedded calls.
	if s != nil {
		ast.Inspect(s, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				c.checkUnknownCall(call)
				return false
			}
			return true
		})
	}
}

func (c *lockChecker) snapshot() map[string]bool {
	out := make(map[string]bool, len(c.held))
	for k, v := range c.held {
		out[k] = v
	}
	return out
}

func (c *lockChecker) restore(saved map[string]bool) {
	c.held = make(map[string]bool, len(saved))
	for k, v := range saved {
		c.held[k] = v
	}
}

// handleCall processes a direct call statement (or deferred call).
func (c *lockChecker) handleCall(call *ast.CallExpr, deferred bool) {
	if field, method, ok := c.lockCall(call); ok {
		switch method {
		case "Lock", "RLock":
			if deferred {
				return // deferred acquisition is nonsense; vet territory
			}
			if c.held[field] {
				c.report(call, "%s.%s while %q is already held (self-deadlock / nested lock)", field, method, field)
			}
			if outerLocks[field] {
				for h := range c.held {
					if innerLocks[h] && c.held[h] {
						c.report(call, "acquiring %q while holding %q inverts the lock order (mu before statsMu)", field, h)
					}
				}
			}
			c.held[field] = true
		case "Unlock", "RUnlock":
			if deferred {
				// Held until function exit: leave it held for the rest of
				// the body.
				return
			}
			delete(c.held, field)
		}
		return
	}
	c.checkUnknownCall(call)
	for _, a := range call.Args {
		c.checkExprCalls(a)
	}
}

// checkExprCalls scans an expression for nested calls made while locks
// are held.
func (c *lockChecker) checkExprCalls(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, _, isLock := c.lockCall(call); !isLock {
				c.checkUnknownCall(call)
			}
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // analyzed separately
		}
		return true
	})
}

// checkUnknownCall reports calls that hand control to unknown code while
// an outer lock is held: interface-method calls and func-value calls.
// Concrete method/function calls within the package are assumed to honor
// the protocol themselves (they are analyzed too).
func (c *lockChecker) checkUnknownCall(call *ast.CallExpr) {
	holding := ""
	for h := range c.held {
		if outerLocks[h] && c.held[h] {
			holding = h
			break
		}
	}
	if holding == "" {
		return
	}
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if selInfo, ok := c.pkg.Info.Selections[fun]; ok {
			recv := selInfo.Recv()
			// Only I/O-shaped interface methods: a Stringer or hash
			// accessor under the lock is harmless; a Write/Read hands the
			// lock-hold region to an unknown writer.
			if types.IsInterface(recv) && ioMethodNames[fun.Sel.Name] {
				c.report(call, "interface call %s.%s while holding %q (I/O or reentrancy under the structural lock)",
					exprString(fun.X), fun.Sel.Name, holding)
			}
			return
		}
		// Qualified identifier (pkg.Func): opaque external call. Flag the
		// functions that actually perform I/O; constructors (io.MultiWriter,
		// bufio.NewWriter) and pure helpers (fmt.Errorf) are fine.
		if id, ok := fun.X.(*ast.Ident); ok {
			if obj, ok := c.pkg.Info.Uses[id]; ok {
				if pn, ok := obj.(*types.PkgName); ok {
					path := pn.Imported().Path()
					name := fun.Sel.Name
					switch {
					case path == "os" || path == "net":
						c.report(call, "call into package %s while holding %q", path, holding)
					case path == "fmt" && strings.HasPrefix(name, "Fprint"):
						c.report(call, "fmt.%s while holding %q (writes to an external writer)", name, holding)
					case path == "io" && ioPkgFuncs[name]:
						c.report(call, "io.%s while holding %q", name, holding)
					}
				}
			}
		}
	case *ast.Ident:
		obj, ok := c.pkg.Info.Uses[fun]
		if !ok {
			return
		}
		if v, isVar := obj.(*types.Var); isVar {
			if _, isFunc := v.Type().Underlying().(*types.Signature); isFunc {
				c.report(call, "func-value call %s(...) while holding %q (callback under the structural lock)",
					fun.Name, holding)
			}
		}
	}
}

// exprString renders a short selector expression for diagnostics.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	default:
		return "expr"
	}
}
