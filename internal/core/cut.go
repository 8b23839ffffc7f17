package core

import (
	"context"
	"fmt"

	"repro/internal/cells"
	"repro/internal/storage"
)

// Frame-coherent incremental traversal. A walkthrough viewer moves between
// *adjacent* cells, and the Figure 3 traversal's shape changes only where
// DoV values cross the η threshold — almost nowhere, between neighbors. A
// session can therefore keep the previous query's traversal cut (the
// frontier where the descent terminated, with the decision per entry) and,
// on the next query, re-evaluate that cut against the new cell's V-data:
// entries whose DoV rose re-expand, subtrees whose DoV fell collapse, and
// every retained interior node answers from its cached record instead of a
// disk read. V-data is ALWAYS re-read for the new cell (it is
// view-variant by definition); only the view-invariant node records are
// reused. The answer set is byte-identical to a from-root traversal — the
// differential suite asserts exactly that across all three schemes.
//
// Fault handling is deliberately blunt: the incremental path absorbs
// nothing. Any error — corrupt V-page, quarantined record, decode failure
// — invalidates the whole cut and falls back to a plain Query, which
// degrades (or fails) exactly like a fresh full traversal would. A
// degraded query never seeds a cut, so a stale frontier can never be
// re-served after a fault.

// cutNode is one retained node of the previous query's traversal tree:
// the view of its record (view-invariant, so reusable across cells; it
// may share a pool frame, which storage never writes) and the children
// that were descended into last time, in entry order.
type cutNode struct {
	id       NodeID
	rec      NodeView // cached record; the zero view until first visited
	children []*cutNode
}

// CoherenceStats counts how a session's QueryCoherent calls were served.
type CoherenceStats struct {
	// Incremental counts queries served through the cut machinery — a
	// cold start is included (its seed cut is just the root, so every
	// node shows up in Expanded); Full counts fallbacks to plain Query
	// after a traversal fault or decode error invalidated the cut.
	Incremental int64
	Full        int64
	// NodesReused counts node records served from the cut instead of
	// disk; Expanded and Collapsed count cut edits (subtrees newly
	// descended into, and subtrees dropped because their entry's decision
	// changed or a fault forced a rebuild).
	NodesReused int64
	Expanded    int64
	Collapsed   int64
}

// cutState is a session's cut between queries: valid for one η only —
// changing the threshold moves the frontier everywhere, so it rebuilds.
type cutState struct {
	root  *cutNode
	eta   float64
	valid bool
	stats CoherenceStats
}

// QueryCoherentContext is QueryContext with incremental cut maintenance:
// identical answer set (the differential suite asserts byte-identity,
// Degradations included), but node records retained from this session's
// previous query are served from memory, so a warm adjacent-cell query
// pays only the V-data reads. Use on a Session driving a walkthrough; on
// a cold cut, after an η change, or after any traversal fault it
// transparently runs the full query. While a shed policy is active it
// also delegates to the full query — the cut is valid for one η, and a
// policy-relaxed η would thrash it — so shedding trades the warm path
// for fidelity control. Not safe for concurrent use — like every other
// method of one session.
func (t *Tree) QueryCoherentContext(ctx context.Context, cell cells.CellID, eta float64) (*QueryResult, error) {
	return t.query(ctx, cell, eta, true, nil)
}

// searchCoherent answers into res through the session's retained cut,
// reseeding it (the bare root) when cold or when η changed. Any error
// drops the cut, which may be half-rewritten; the caller falls back to
// the full traversal.
func (t *Tree) searchCoherent(tc travCtx, cell cells.CellID, eta float64, res *QueryResult) error {
	if t.cut == nil {
		t.cut = &cutState{}
	}
	cs := t.cut
	if !cs.valid || cs.eta != eta {
		cs.root = &cutNode{id: 0}
		cs.eta = eta
		cs.valid = true
	}
	err := t.vstore.SetCell(cell)
	if err == nil {
		err = t.searchCut(tc, cs.root, 0, eta, res)
	}
	if err != nil {
		t.InvalidateCut()
		return err
	}
	cs.stats.Incremental++
	return nil
}

// CoherenceStats returns this session's incremental-traversal counters.
func (t *Tree) CoherenceStats() CoherenceStats {
	if t.cut == nil {
		return CoherenceStats{}
	}
	return t.cut.stats
}

// InvalidateCut drops the retained cut; the next QueryCoherent runs a
// full traversal. Callers that mutate the disk under a live session (test
// harnesses injecting faults, repair tools) should invalidate explicitly
// rather than rely on quarantine detection.
func (t *Tree) InvalidateCut() {
	if t.cut != nil {
		t.cut.valid = false
		t.cut.root = nil
	}
}

// cutRecord returns cn's node record, from the cut cache when possible.
// A cached record whose pages have since been quarantined is dropped and
// re-read — the re-read surfaces the fault instead of masking it.
// (Corruption injected after caching without quarantine is invisible
// here, exactly as it is invisible to a page sitting in the buffer pool.)
func (t *Tree) cutRecord(cn *cutNode, res *QueryResult) (NodeView, error) {
	if cn.rec.Valid() && !t.recordQuarantined(cn.id) {
		t.cut.stats.NodesReused++
		return cn.rec, nil
	}
	cn.rec = NodeView{}
	rec, err := t.ReadNodeRecord(cn.id, nil) // the cut keeps the view
	if err != nil {
		return NodeView{}, err
	}
	res.Stats.NodesVisited++
	cn.rec = rec
	return rec, nil
}

// recordQuarantined reports whether any page of id's record is parked.
func (t *Tree) recordQuarantined(id NodeID) bool {
	start := t.NodePage(id)
	for i := 0; i < t.nodeStride; i++ {
		if t.Disk.IsQuarantined(start + storage.PageID(i)) {
			return true
		}
	}
	return false
}

// child returns the retained cut child for id, if the previous traversal
// descended into it. Children are kept in entry order and nodes have
// bounded fan-out, so the linear scan is cheaper than any map.
func (cn *cutNode) child(id NodeID) *cutNode {
	for _, c := range cn.children {
		if c.id == id {
			return c
		}
	}
	return nil
}

// searchCut is the coherent driver of decide: searchNode re-rooted on
// the retained cut — the same decisions in the same entry order, so the
// same Items — but node records come from the cut where retained, and the
// cut is rewritten in place to the new traversal's shape. depth is cn's
// depth, which picks the session's V-data and child-list buffers. No
// fault absorption and no shedding here — any error aborts to the
// full-query fallback, and a shedding query never gets here.
//
// hdov:hot-path
func (t *Tree) searchCut(tc travCtx, cn *cutNode, depth int, eta float64, res *QueryResult) error {
	if err := tc.err(); err != nil {
		return err
	}
	rec, err := t.cutRecord(cn, res)
	if err != nil {
		return err
	}
	vd, ok, err := t.vstore.NodeVD(cn.id, tc.scr.vdBuf(depth))
	if err != nil {
		return err
	}
	tc.scr.vd[depth] = vd
	if !ok {
		// Whole node invisible in this cell: the cut keeps cn (the record
		// cache stays warm — a neighbor may flip it visible again) but
		// drops the subtree below the frontier.
		t.collapse(cn)
		return nil
	}
	n := rec.NumEntries()
	if len(vd) < n {
		return fmt.Errorf("core: node %d has %d entries but V-page has %d", cn.id, n, len(vd))
	}
	// The children descended into now are collected in the session's
	// buffer for this depth — the old list is still being searched
	// (cn.child) — and then copied back into cn.children's array.
	tc.scr.keepReset(depth)
	var it ResultItem
	for ei := 0; ei < n; ei++ {
		act := t.decide(rec, ei, vd[ei], eta, false, &it)
		if act != actDescend {
			res.record(act, &it)
			// Only a subtree retained from the last query collapses.
			if !rec.Leaf() && cn.child(rec.EntryChild(ei)) != nil {
				t.cut.stats.Collapsed++
			}
			continue
		}
		c := cn.child(it.NodeID)
		if c == nil {
			//lint:ignore hotalloc a node enters the cut once, when the frontier first moves below it; it is then reused by every later query until it collapses
			c = &cutNode{id: it.NodeID}
			t.cut.stats.Expanded++
		}
		if err := t.searchCut(tc, c, depth+1, eta, res); err != nil {
			return err
		}
		// Indexed afresh: the recursion may have grown tc.scr.keep.
		tc.scr.keep[depth] = append(tc.scr.keep[depth], c)
	}
	cn.children = append(cn.children[:0], tc.scr.keep[depth]...)
	return nil
}

// collapse drops cn's subtree from the cut (the frontier moved above it),
// counting one collapse per retained descendant edge.
func (t *Tree) collapse(cn *cutNode) {
	for _, c := range cn.children {
		t.cut.stats.Collapsed++
		t.collapse(c)
	}
	cn.children = nil
}
