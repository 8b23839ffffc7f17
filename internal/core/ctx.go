package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/cells"
	"repro/internal/geom"
	"repro/internal/storage"
)

// Deadline, cancellation, and fidelity-aware shedding (DESIGN.md §14).
//
// Every query entry point has a Context-taking form; the plain forms are
// thin wrappers over an unbounded background context, so the ~hundred
// existing call sites (and the paper-faithful experiments, which have no
// notion of time) keep their exact behavior. A context flows two ways:
//
//   - cooperatively, as a checkpoint polled at every node expansion — the
//     traversal notices cancellation within one node visit; and
//   - through the session's storage.Client (BindContext), so a read that
//     would start after the deadline fails fast before paying seek,
//     transfer, retry, or backoff cost.
//
// A context error is never degradable: fault-tolerant traversal absorbs
// bad media, not abandoned queries, so cancellation aborts cleanly with
// no substitution and no quarantine side effects.
//
// Shedding is the overload half: under pressure a serving stack installs
// a ShedPolicy (SetShed) and queries answer at relaxed fidelity —
// exactly the trade the HDoV-tree's internal LoDs exist for. Shedding is
// never silent: every shed query carries CauseShed Degradation records.

// bgContext is the unbounded context behind the non-Context wrappers.
//
//lint:ignore ctxflow compat wrappers deliberately run unbounded
var bgContext = context.Background()

// ShedPolicy relaxes query fidelity under overload. The zero policy (or
// a nil policy pointer) sheds nothing.
type ShedPolicy struct {
	// EtaFactor > 1 multiplies the query's DoV threshold η, terminating
	// branches earlier at internal LoDs (values <= 1 leave η alone). The
	// answer is the one the relaxed η would produce.
	EtaFactor float64
	// MaxDepth > 0 truncates the traversal below that depth: entries at
	// the limit answer with their child's internal LoD regardless of η
	// (0 means unlimited). Depth 1 reduces every query to the root's
	// children's internal LoDs.
	MaxDepth int
}

// active reports whether the policy changes anything.
func (p *ShedPolicy) active() bool {
	return p != nil && (p.EtaFactor > 1 || p.MaxDepth > 0)
}

// shedHolder shares one mutable policy slot between a tree and every
// session derived from it, so a serving stack can turn shedding on and
// off while sessions are live.
type shedHolder struct{ p atomic.Pointer[ShedPolicy] }

// SetShed installs (nil: removes) the load-shedding policy. The slot is
// shared with sessions derived from this tree *after* the first SetShed
// call — serving stacks call SetShed(nil) once before creating sessions,
// then flip the policy under pressure and every live session sees it on
// its next query.
func (t *Tree) SetShed(p *ShedPolicy) {
	if t.shed == nil {
		t.shed = &shedHolder{}
	}
	t.shed.p.Store(p)
}

// Shed returns the currently installed policy (nil when none).
func (t *Tree) Shed() *ShedPolicy {
	if t.shed == nil {
		return nil
	}
	return t.shed.p.Load()
}

// travCtx carries the per-query control state — the caller's context,
// the shed policy snapshot, a prioritized query's frustum, and the
// session's traversal buffers — through the traversal recursion.
type travCtx struct {
	ctx     context.Context
	shed    *ShedPolicy
	frustum *geom.Frustum
	scr     *travScratch
}

// err is the cooperative cancellation checkpoint, polled at every node
// expansion. The wrapped error stays errors.Is-visible as
// context.Canceled / context.DeadlineExceeded and is not degradable.
func (tc travCtx) err() error {
	if err := tc.ctx.Err(); err != nil {
		return fmt.Errorf("core: traversal aborted: %w", err)
	}
	return nil
}

// truncate reports whether the shed policy cuts the traversal at depth
// (the length of the ancestor ladder above the entry being considered).
func (tc travCtx) truncate(depth int) bool {
	return tc.shed != nil && tc.shed.MaxDepth > 0 && depth >= tc.shed.MaxDepth
}

// begin snapshots the query-scoped control state and binds ctx to the
// session's I/O client; the returned func restores the unbounded binding
// so later non-Context calls on the session are unaffected. It also
// returns the effective (possibly relaxed) η.
func (t *Tree) begin(ctx context.Context, eta float64) (travCtx, float64, func()) {
	tc := travCtx{ctx: ctx, shed: t.Shed()}
	if !tc.shed.active() {
		tc.shed = nil
	}
	eff := eta
	if tc.shed != nil && tc.shed.EtaFactor > 1 {
		eff = eta * tc.shed.EtaFactor
	}
	if ctx == bgContext {
		return tc, eff, func() {}
	}
	t.IO.BindContext(ctx)
	return tc, eff, func() { t.IO.BindContext(bgContext) }
}

// shedMark records the query-level CauseShed Degradation for an η
// relaxation, so shed fidelity is visible in the same stream as absorbed
// media faults.
func (tc travCtx) shedMark(res *QueryResult) {
	if tc.shed == nil || tc.shed.EtaFactor <= 1 {
		return
	}
	res.Degradations = append(res.Degradations, Degradation{
		Cell: res.Cell, Node: NilNode, Object: -1,
		Cause: CauseShed, Page: storage.NilPage,
		SubstituteNode: NilNode, SubstituteLevel: -1,
	})
}

// Query runs the threshold-based traversal of Figure 3 unbounded — no
// deadline, no shedding beyond the installed policy. See QueryContext.
func (t *Tree) Query(cell cells.CellID, eta float64) (*QueryResult, error) {
	return t.QueryContext(bgContext, cell, eta)
}

// QueryCoherent is the unbounded form of QueryCoherentContext.
func (t *Tree) QueryCoherent(cell cells.CellID, eta float64) (*QueryResult, error) {
	return t.QueryCoherentContext(bgContext, cell, eta)
}

// QueryPrioritized is the unbounded form of QueryPrioritizedContext.
func (t *Tree) QueryPrioritized(cell cells.CellID, eta float64, f geom.Frustum) (*QueryResult, error) {
	return t.QueryPrioritizedContext(bgContext, cell, eta, f)
}

// FetchPayloads is the unbounded form of FetchPayloadsContext.
func (t *Tree) FetchPayloads(res *QueryResult, skip func(ResultItem) bool) (int, error) {
	return t.FetchPayloadsContext(bgContext, res, skip)
}
