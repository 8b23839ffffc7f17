package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the shared control-flow layer under the path-sensitive
// passes (errflow, atomicpub): a per-function CFG over the raw go/ast,
// built without any dependency outside the standard library.
//
// The graph decomposes short-circuit conditions, so every edge out of a
// condition block carries the *leaf* comparison that is known true (or
// false, when Negate is set) on that edge — exactly what a dataflow
// client needs to refine facts like "err is non-nil here". Loops,
// labeled break/continue, goto, switch (with fallthrough), type switch, and select are all wired; `defer` keeps its
// syntactic position as an ordinary node (the registration point is what
// obligation-style passes reason about) and is additionally collected in
// CFG.Defers. A `panic(...)` statement terminates its path without an
// edge to Exit: the unwinding path is outside the passes' contracts,
// matching the previous hand-rolled walkers.
type CFG struct {
	Entry *CFGBlock
	// Exit is the single synthetic exit: every return statement and
	// every fall-off-the-end path edges here. A block's dataflow fact at
	// Exit is the "function is over" state.
	Exit   *CFGBlock
	Blocks []*CFGBlock
	// Defers lists every defer statement in syntactic order.
	Defers []*ast.DeferStmt
}

// CFGBlock is a straight-line run of statements and leaf condition
// expressions with no internal control flow.
type CFGBlock struct {
	Index int
	// Nodes holds, in execution order: simple statements (assignments,
	// expression statements, send/incdec/decl/go/defer/return), switch
	// tags and type-switch assignments, select comm statements, range
	// statements (standing for the per-iteration binding), and leaf
	// condition expressions produced by short-circuit decomposition.
	Nodes []ast.Node
	Succs []CFGEdge
}

// CFGEdge is one control transfer. When Cond is non-nil the edge is
// taken exactly when Cond evaluates to !Negate.
type CFGEdge struct {
	To     *CFGBlock
	Cond   ast.Expr
	Negate bool
}

// BuildCFG constructs the control-flow graph of one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{g: &CFG{}, labels: make(map[string]*CFGBlock)}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	end := b.stmtList(body.List, b.g.Entry)
	b.edge(end, b.g.Exit, nil, false)
	// goto targets may be declared after the jump; resolve at the end.
	for _, pj := range b.gotos {
		if to := b.labels[pj.label]; to != nil {
			b.edge(pj.from, to, nil, false)
		}
	}
	return b.g
}

type jumpScope struct {
	label string
	to    *CFGBlock
}

type pendingJump struct {
	from  *CFGBlock
	label string
}

type cfgBuilder struct {
	g      *CFG
	breaks []jumpScope // innermost-last break targets (loops, switch, select)
	conts  []jumpScope // innermost-last continue targets (loops only)
	labels map[string]*CFGBlock
	gotos  []pendingJump
	fallTo *CFGBlock // next case body, inside a switch clause
}

func (b *cfgBuilder) newBlock() *CFGBlock {
	blk := &CFGBlock{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *CFGBlock, cond ast.Expr, negate bool) {
	from.Succs = append(from.Succs, CFGEdge{To: to, Cond: cond, Negate: negate})
}

func (b *cfgBuilder) stmtList(list []ast.Stmt, cur *CFGBlock) *CFGBlock {
	for _, s := range list {
		cur = b.stmt(s, cur, "")
	}
	return cur
}

// stmt wires one statement starting in cur and returns the block where
// control continues. Terminating statements (return, break, panic)
// return a fresh block with no predecessors: anything appended there is
// dead code and stays unreached by the solver.
func (b *cfgBuilder) stmt(s ast.Stmt, cur *CFGBlock, label string) *CFGBlock {
	switch st := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(st.List, cur)

	case *ast.LabeledStmt:
		lb := b.newBlock()
		b.edge(cur, lb, nil, false)
		b.labels[st.Label.Name] = lb
		return b.stmt(st.Stmt, lb, st.Label.Name)

	case *ast.IfStmt:
		if st.Init != nil {
			cur = b.stmt(st.Init, cur, "")
		}
		thenB := b.newBlock()
		join := b.newBlock()
		elseB := join
		if st.Else != nil {
			elseB = b.newBlock()
		}
		b.cond(st.Cond, cur, thenB, elseB)
		b.edge(b.stmtList(st.Body.List, thenB), join, nil, false)
		if st.Else != nil {
			b.edge(b.stmt(st.Else, elseB, ""), join, nil, false)
		}
		return join

	case *ast.ForStmt:
		if st.Init != nil {
			cur = b.stmt(st.Init, cur, "")
		}
		head := b.newBlock()
		body := b.newBlock()
		post := b.newBlock()
		exit := b.newBlock()
		b.edge(cur, head, nil, false)
		if st.Cond != nil {
			b.cond(st.Cond, head, body, exit)
		} else {
			b.edge(head, body, nil, false)
		}
		b.pushLoop(label, exit, post)
		bodyEnd := b.stmtList(st.Body.List, body)
		b.popLoop()
		b.edge(bodyEnd, post, nil, false)
		if st.Post != nil {
			post.Nodes = append(post.Nodes, st.Post)
		}
		b.edge(post, head, nil, false) // back edge
		return exit

	case *ast.RangeStmt:
		head := b.newBlock()
		body := b.newBlock()
		exit := b.newBlock()
		// The RangeStmt node stands for the per-iteration key/value
		// binding (and the once-evaluated range operand).
		head.Nodes = append(head.Nodes, st)
		b.edge(cur, head, nil, false)
		b.edge(head, body, nil, false)
		b.edge(head, exit, nil, false)
		b.pushLoop(label, exit, head)
		bodyEnd := b.stmtList(st.Body.List, body)
		b.popLoop()
		b.edge(bodyEnd, head, nil, false) // back edge
		return exit

	case *ast.SwitchStmt:
		if st.Init != nil {
			cur = b.stmt(st.Init, cur, "")
		}
		if st.Tag != nil {
			cur.Nodes = append(cur.Nodes, st.Tag)
		}
		return b.cases(st.Body, cur, label, false)

	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			cur = b.stmt(st.Init, cur, "")
		}
		cur.Nodes = append(cur.Nodes, st.Assign)
		return b.cases(st.Body, cur, label, false)

	case *ast.SelectStmt:
		return b.cases(st.Body, cur, label, true)

	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, st)
		b.edge(cur, b.g.Exit, nil, false)
		return b.newBlock()

	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK:
			if to := b.target(b.breaks, st.Label); to != nil {
				b.edge(cur, to, nil, false)
			}
		case token.CONTINUE:
			if to := b.target(b.conts, st.Label); to != nil {
				b.edge(cur, to, nil, false)
			}
		case token.GOTO:
			b.gotos = append(b.gotos, pendingJump{from: cur, label: st.Label.Name})
		case token.FALLTHROUGH:
			if b.fallTo != nil {
				b.edge(cur, b.fallTo, nil, false)
			}
		}
		return b.newBlock()

	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, st)
		cur.Nodes = append(cur.Nodes, st)
		return cur

	case *ast.ExprStmt:
		cur.Nodes = append(cur.Nodes, st)
		if isPanicCall(st.X) {
			return b.newBlock()
		}
		return cur

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt, EmptyStmt.
		cur.Nodes = append(cur.Nodes, s)
		return cur
	}
}

// cases wires a switch/type-switch/select body: every clause entry hangs
// off cur, the clause ends join at a shared exit, and fallthrough jumps
// to the next clause's body. A switch without a default keeps the
// no-case-taken edge to the exit; a select without a default blocks, so
// it gets none.
func (b *cfgBuilder) cases(body *ast.BlockStmt, cur *CFGBlock, label string, isSelect bool) *CFGBlock {
	exit := b.newBlock()
	b.breaks = append(b.breaks, jumpScope{label: label, to: exit})
	var entries []*CFGBlock
	var bodies [][]ast.Stmt
	sawDefault := false
	for _, cl := range body.List {
		eb := b.newBlock()
		b.edge(cur, eb, nil, false)
		switch c := cl.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				sawDefault = true
			}
			for _, e := range c.List {
				eb.Nodes = append(eb.Nodes, e)
			}
			bodies = append(bodies, c.Body)
		case *ast.CommClause:
			if c.Comm == nil {
				sawDefault = true
			} else {
				eb.Nodes = append(eb.Nodes, c.Comm)
			}
			bodies = append(bodies, c.Body)
		}
		entries = append(entries, eb)
	}
	if !sawDefault && !isSelect {
		b.edge(cur, exit, nil, false)
	}
	for i, eb := range entries {
		savedFall := b.fallTo
		if !isSelect && i+1 < len(entries) {
			b.fallTo = entries[i+1]
		} else {
			b.fallTo = nil
		}
		b.edge(b.stmtList(bodies[i], eb), exit, nil, false)
		b.fallTo = savedFall
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	return exit
}

// cond wires e evaluated for truth starting in cur: control reaches t
// when e is true and f when false. Short-circuit operators split into
// chained condition blocks so each out-edge carries one leaf comparison.
func (b *cfgBuilder) cond(e ast.Expr, cur, t, f *CFGBlock) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		b.cond(x.X, cur, t, f)
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, cur, f, t)
			return
		}
		b.leaf(e, cur, t, f)
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			mid := b.newBlock()
			b.cond(x.X, cur, mid, f)
			b.cond(x.Y, mid, t, f)
		case token.LOR:
			mid := b.newBlock()
			b.cond(x.X, cur, t, mid)
			b.cond(x.Y, mid, t, f)
		default:
			b.leaf(e, cur, t, f)
		}
	default:
		b.leaf(e, cur, t, f)
	}
}

// leaf records the evaluated condition as a node (its sub-expressions
// run on this path) and emits the true/false edges carrying it.
func (b *cfgBuilder) leaf(e ast.Expr, cur, t, f *CFGBlock) {
	cur.Nodes = append(cur.Nodes, e)
	b.edge(cur, t, e, false)
	b.edge(cur, f, e, true)
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *CFGBlock) {
	b.breaks = append(b.breaks, jumpScope{label: label, to: brk})
	b.conts = append(b.conts, jumpScope{label: label, to: cont})
}

func (b *cfgBuilder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.conts = b.conts[:len(b.conts)-1]
}

// target resolves a break/continue: the innermost scope when unlabeled,
// the matching label otherwise.
func (b *cfgBuilder) target(stack []jumpScope, lbl *ast.Ident) *CFGBlock {
	for i := len(stack) - 1; i >= 0; i-- {
		if lbl == nil || stack[i].label == lbl.Name {
			return stack[i].to
		}
	}
	return nil
}

// isPanicCall matches a direct panic(...) call statement.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
