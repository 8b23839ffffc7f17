package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ErrFlowPass flags dropped errors on the serialization and storage
// write paths, where a swallowed failure corrupts data silently instead
// of failing the build or query:
//
//   - binary.Read / binary.Write with the error unchecked;
//   - segment/page decoders (functions named Decode*/decode*) whose
//     error result is discarded;
//   - storage writes (WritePage / WriteBytes / WriteTo) and media
//     flushes (Sync — on the file backend a dropped Sync error silently
//     forfeits the fsync-at-commit durability guarantee) whose error is
//     assigned to the blank identifier or ignored as a statement;
//   - the persistence and incremental-update write path (ApplyOp /
//     ApplyOps / WriteRunTo / ApplyRun / CommitEpoch): a dropped error
//     there either publishes an epoch that never applied or commits a
//     page run that never landed, exactly the torn states the
//     crash-point harness exists to rule out.
//
// The pass runs on the shared CFG/dataflow engine, which adds two
// path-sensitive checks the statement-local walk could not see: a
// watched error *captured* into a variable but never read on any path
// to the function exit (typically a reassignment after the last check),
// and a watched error passed to an intra-package callee whose error
// parameter is never read (the call-graph's drops-error summary).
//
// Unlike a general errcheck, the pass is deliberately narrow: these are
// the calls whose failure modes the fault-injection and crash-safety
// suites exercise, so ignoring them defeats tested recovery machinery.
type ErrFlowPass struct{}

// Name implements Pass.
func (*ErrFlowPass) Name() string { return "errflow" }

// watchedWriters are method and function names whose error results must
// be consumed (matched as method selectors and as package-qualified
// calls).
var watchedWriters = map[string]bool{
	"WritePage":  true,
	"WriteBytes": true,
	"WriteTo":    true,
	// Media flushes: the file backend's durability hinges on the fsync at
	// the commit point actually being checked.
	"Sync": true,
	// The persistence and incremental-update write path.
	"ApplyOp":     true,
	"ApplyOps":    true,
	"WriteRunTo":  true,
	"ApplyRun":    true,
	"CommitEpoch": true,
}

// Run implements Pass.
func (p *ErrFlowPass) Run(pkg *Package) []Finding {
	cg := BuildCallGraph(pkg)
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
			out = append(out, runErrFlow(pkg, cg, body)...)
			// Nested function literals get their own analysis.
			return true
		})
	}
	return out
}

// runErrFlow solves the pending-error dataflow over one function body
// and replays it once for reporting.
func runErrFlow(pkg *Package, cg *CallGraph, body *ast.BlockStmt) []Finding {
	g := BuildCFG(body)
	flow := &errFlowClient{pkg: pkg, cg: cg}
	res := Solve(g, flow)
	flow.report = true
	for _, blk := range g.Blocks {
		if !res.Reached[blk.Index] || blk == g.Exit {
			continue
		}
		ReplayBlock(blk, res.In[blk.Index], flow)
	}
	if res.Reached[g.Exit.Index] {
		if exit, ok := res.In[g.Exit.Index].(errPending); ok {
			flow.reportPending(exit)
		}
	}
	return flow.findings
}

// pendingErr is an unexamined watched error sitting in a variable.
type pendingErr struct {
	pos  token.Pos // the capturing assignment
	name string    // printable callee, e.g. "d.WriteBytes"
}

// errPending maps error variables to their unexamined capture. Facts
// are immutable: transfers copy before changing.
type errPending map[types.Object]pendingErr

// pathEnd marks a path discharged at a return statement: any pending
// error there has already been reported at the return, so the path is
// an identity for the exit join — without it, an early `return` (empty
// pending) would intersect away obligations still live on the
// fall-through path.
type pathEnd struct{}

func (m errPending) cloneWithout(obj types.Object) errPending {
	out := make(errPending, len(m))
	for k, v := range m {
		if k != obj {
			out[k] = v
		}
	}
	return out
}

// errFlowClient is the FlowClient for the pending-error analysis; it
// also hosts the statement-local checks during the reporting replay.
type errFlowClient struct {
	pkg      *Package
	cg       *CallGraph
	report   bool
	findings []Finding
}

// Entry implements FlowClient.
func (c *errFlowClient) Entry() any { return errPending(nil) }

// Join implements FlowClient: intersection — an error is only "never
// checked" if no incoming path checked it. The earlier capture wins a
// position disagreement, keeping reports deterministic.
func (c *errFlowClient) Join(a, b any) any {
	if _, ok := a.(pathEnd); ok {
		return b
	}
	if _, ok := b.(pathEnd); ok {
		return a
	}
	fa, fb := a.(errPending), b.(errPending)
	if len(fa) == 0 || len(fb) == 0 {
		return errPending(nil)
	}
	out := make(errPending)
	for k, va := range fa {
		if vb, ok := fb[k]; ok {
			if vb.pos < va.pos {
				va = vb
			}
			out[k] = va
		}
	}
	return out
}

// Equal implements FlowClient.
func (c *errFlowClient) Equal(a, b any) bool {
	_, ea := a.(pathEnd)
	_, eb := b.(pathEnd)
	if ea || eb {
		return ea && eb
	}
	fa, fb := a.(errPending), b.(errPending)
	if len(fa) != len(fb) {
		return false
	}
	for k, va := range fa {
		if vb, ok := fb[k]; !ok || va != vb {
			return false
		}
	}
	return true
}

// Refine implements FlowClient: reads already clear pending errors when
// the condition node transfers, so edges need no extra narrowing.
func (c *errFlowClient) Refine(cond ast.Expr, negate bool, fact any) any { return fact }

// Transfer implements FlowClient.
func (c *errFlowClient) Transfer(n ast.Node, fact any) any {
	pending, ok := fact.(errPending)
	if !ok {
		// Past a path end (only the exit block's joined input can carry
		// the sentinel, and the exit has no nodes; stay defensive).
		return fact
	}

	// Statement-local checks (reporting replay only).
	if c.report {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if name, ok := c.watched(call); ok {
					c.findings = append(c.findings, finding("errflow", c.pkg.Fset, call.Pos(),
						"result of %s is ignored (a dropped error here corrupts data silently)", name))
				}
			}
		case *ast.AssignStmt:
			c.findings = append(c.findings, c.checkAssign(st)...)
		case *ast.GoStmt:
			if name, ok := c.watched(st.Call); ok {
				c.findings = append(c.findings, finding("errflow", c.pkg.Fset, st.Call.Pos(),
					"result of %s is lost in a go statement", name))
			}
		case *ast.DeferStmt:
			if name, ok := c.watched(st.Call); ok {
				c.findings = append(c.findings, finding("errflow", c.pkg.Fset, st.Call.Pos(),
					"result of %s is lost in a defer", name))
			}
		}
	}

	// Dropped-in-callee: a pending error handed to a function whose
	// error parameter is never read is dropped right there.
	if len(pending) > 0 {
		pending = c.checkSinks(n, pending)
	}

	// Any read of a pending variable counts as the check happening.
	if len(pending) > 0 {
		pending = c.clearReads(n, pending)
	}

	// New captures: `v, err = watchedCall(...)` re-arms the obligation.
	if st, isAssign := n.(*ast.AssignStmt); isAssign {
		pending = c.capture(st, pending)
	}

	// A return ends the path: whatever is still pending here was never
	// checked before the function gave up control, so report it now and
	// discharge the path (pathEnd joins as identity at the exit).
	if _, isRet := n.(*ast.ReturnStmt); isRet {
		c.reportPending(pending)
		return pathEnd{}
	}
	return pending
}

// reportPending emits the never-checked finding for each live capture,
// ordered by capture position for determinism.
func (c *errFlowClient) reportPending(pending errPending) {
	if !c.report || len(pending) == 0 {
		return
	}
	objs := make([]types.Object, 0, len(pending))
	for o := range pending {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return pending[objs[i]].pos < pending[objs[j]].pos })
	for _, o := range objs {
		pe := pending[o]
		c.findings = append(c.findings, finding("errflow", c.pkg.Fset, pe.pos,
			"error from %s is captured in %s but never checked (a dropped error here corrupts data silently)",
			pe.name, o.Name()))
	}
}

// checkSinks reports pending errors passed to intra-package callees
// that ignore their error parameter, and clears them (the sink consumed
// the value, however uselessly).
func (c *errFlowClient) checkSinks(n ast.Node, pending errPending) errPending {
	ast.Inspect(n, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		sum := c.cg.Summary(call)
		if sum == nil {
			return true
		}
		for a, arg := range call.Args {
			id, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok {
				continue
			}
			obj := c.pkg.Info.Uses[id]
			if obj == nil {
				continue
			}
			pe, isPending := pending[obj]
			if !isPending {
				continue
			}
			i := sum.CallArgIndex(call, a)
			if i < 0 || i >= len(sum.IgnoresErrorParam) || !sum.IgnoresErrorParam[i] {
				continue
			}
			if c.report {
				c.findings = append(c.findings, finding("errflow", c.pkg.Fset, call.Pos(),
					"error from %s is passed to %s, which never reads its error parameter (a dropped error here corrupts data silently)",
					pe.name, sum.Obj.Name()))
			}
			pending = pending.cloneWithout(obj)
		}
		return true
	})
	return pending
}

// clearReads drops pending entries for every variable the node reads.
// Assignment targets are writes, not reads, so plain identifier LHS
// positions are skipped.
func (c *errFlowClient) clearReads(n ast.Node, pending errPending) errPending {
	skip := make(map[*ast.Ident]bool)
	if st, ok := n.(*ast.AssignStmt); ok {
		for _, lhs := range st.Lhs {
			if id, isID := ast.Unparen(lhs).(*ast.Ident); isID {
				skip[id] = true
			}
		}
	}
	ast.Inspect(n, func(nd ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok || skip[id] {
			return true
		}
		if obj := c.pkg.Info.Uses[id]; obj != nil {
			if _, isPending := pending[obj]; isPending {
				pending = pending.cloneWithout(obj)
			}
		}
		return true
	})
	return pending
}

// capture arms the pending obligation for `v, err = watched(...)`
// (including plain `err = watched(...)`). A `:=` definition whose error
// is never read fails compilation already, but reassignment compiles
// quietly — exactly the hole this closes. An overwritten pending entry
// is replaced silently; the exit report points at the live capture.
func (c *errFlowClient) capture(st *ast.AssignStmt, pending errPending) errPending {
	if len(st.Rhs) != 1 {
		return pending
	}
	call, ok := st.Rhs[0].(*ast.CallExpr)
	if !ok {
		return pending
	}
	name, ok := c.watched(call)
	if !ok {
		return pending
	}
	for _, i := range c.errorResultIndexes(call) {
		if i >= len(st.Lhs) {
			continue
		}
		id, isID := st.Lhs[i].(*ast.Ident)
		if !isID || id.Name == "_" {
			continue
		}
		var obj types.Object
		if o := c.pkg.Info.Defs[id]; o != nil {
			obj = o
		} else if o := c.pkg.Info.Uses[id]; o != nil {
			obj = o
		}
		if obj == nil {
			continue
		}
		out := make(errPending, len(pending)+1)
		for k, v := range pending {
			out[k] = v
		}
		out[obj] = pendingErr{pos: st.Pos(), name: name}
		pending = out
	}
	return pending
}

// watched reports whether call is one of the guarded functions, with a
// printable name.
func (c *errFlowClient) watched(call *ast.CallExpr) (string, bool) {
	pkg := c.pkg
	if !callReturnsError(pkg, call) {
		return "", false
	}
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		// binary.Read / binary.Write.
		if id, ok := fun.X.(*ast.Ident); ok {
			if obj, ok := pkg.Info.Uses[id]; ok {
				if pn, ok := obj.(*types.PkgName); ok {
					if pn.Imported().Path() == "encoding/binary" && (name == "Read" || name == "Write") {
						return "binary." + name, true
					}
					// Package-level decoders (vstore.DecodeX) and write-path
					// functions (core.ApplyOps, dbfile.CommitEpoch).
					if isDecoderName(name) || watchedWriters[name] {
						return pn.Imported().Name() + "." + name, true
					}
					return "", false
				}
			}
		}
		if watchedWriters[name] || isDecoderName(name) {
			return exprString(fun.X) + "." + name, true
		}
	case *ast.Ident:
		if isDecoderName(fun.Name) || watchedWriters[fun.Name] {
			return fun.Name, true
		}
	}
	return "", false
}

// isDecoderName matches the project's decoder naming convention.
func isDecoderName(name string) bool {
	return strings.HasPrefix(name, "Decode") || strings.HasPrefix(name, "decode")
}

// callReturnsError reports whether any result of call has type error.
func callReturnsError(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call]
	if !ok {
		return false
	}
	isErr := func(t types.Type) bool {
		named, ok := t.(*types.Named)
		return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
	}
	if tup, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isErr(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErr(tv.Type)
}

// errorResultIndexes lists the result positions of call that have type
// error (position 0 for a single non-tuple result).
func (c *errFlowClient) errorResultIndexes(call *ast.CallExpr) []int {
	tv := c.pkg.Info.Types[call]
	var errIdx []int
	if tup, isTup := tv.Type.(*types.Tuple); isTup {
		for i := 0; i < tup.Len(); i++ {
			if named, isNamed := tup.At(i).Type().(*types.Named); isNamed &&
				named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
				errIdx = append(errIdx, i)
			}
		}
	} else {
		errIdx = append(errIdx, 0)
	}
	return errIdx
}

// checkAssign flags `_ = watchedCall(...)` and multi-assigns that blank
// the error position.
func (c *errFlowClient) checkAssign(st *ast.AssignStmt) []Finding {
	var out []Finding
	if len(st.Rhs) != 1 {
		return nil
	}
	call, ok := st.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	name, ok := c.watched(call)
	if !ok {
		return nil
	}
	for _, i := range c.errorResultIndexes(call) {
		if i >= len(st.Lhs) {
			continue
		}
		if id, isID := st.Lhs[i].(*ast.Ident); isID && id.Name == "_" {
			out = append(out, finding("errflow", c.pkg.Fset, st.Pos(),
				"error from %s is assigned to _ (a dropped error here corrupts data silently)", name))
		}
	}
	return out
}
