package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cells"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/storage"
)

// ResultItem is one element of a visibility-query answer set: either an
// object LoD (line 5 of Figure 3, equation 6) or an internal LoD of a node
// whose branch the traversal terminated (line 8, equation 5).
type ResultItem struct {
	// ObjectID >= 0 for object items; -1 for internal-LoD items.
	ObjectID int64
	// NodeID >= 0 for internal-LoD items; NilNode for object items.
	NodeID NodeID
	// DoV is the entry's degree of visibility.
	DoV float64
	// Detail is the continuous detail coefficient k of equations 5/6.
	Detail float64
	// Level is the discrete LoD level selected for retrieval.
	Level int
	// Polygons is the interpolated polygon count (the render-cost model
	// input).
	Polygons float64
	// Extent locates the payload of the selected level on disk.
	Extent Extent
}

// IsInternal reports whether the item is an internal LoD.
func (it ResultItem) IsInternal() bool { return it.NodeID != NilNode }

// QueryStats summarizes the cost of one visibility query.
type QueryStats struct {
	NodesVisited  int // node records read (light)
	BranchesCut   int // entries pruned with DoV == 0 (line 3)
	EarlyStops    int // branches answered by an internal LoD (line 8)
	LightIO       int64
	HeavyIO       int64
	Retries       int64 // transient read faults absorbed by the disk
	SimTime       time.Duration
	TotalPolygons float64
	TotalBytes    int64 // nominal payload bytes of the answer set
}

// QueryResult is the answer set of a visibility query.
type QueryResult struct {
	Cell  cells.CellID
	Eta   float64
	Items []ResultItem
	Stats QueryStats
	// Degradations lists the media faults absorbed while answering (empty
	// unless Tree.FaultTolerant and faults fired; see degrade.go).
	Degradations []Degradation

	// substituted dedups internal-LoD stand-ins: when several siblings
	// fail, their shared ancestor's LoD appears in Items once.
	substituted map[NodeID]bool
}

// ErrNoVStore is returned by Query before SetVStore.
var ErrNoVStore = errors.New("core: no storage scheme attached (call SetVStore)")

// QueryContext runs the threshold-based traversal of Figure 3 for the
// given cell and DoV threshold η. It charges light I/O for node records
// and V-pages (via the attached VStore); payload retrieval is separate
// (FetchPayloadsContext) so experiments can account light-weight and
// total I/O independently, as Figures 8(a) and 8(b) do.
//
// The context bounds the traversal: cancellation and deadline expiry are
// observed within one node expansion (and before any further disk read),
// aborting with an error wrapping ctx.Err(). With an installed ShedPolicy
// the query answers at relaxed fidelity, recording CauseShed
// Degradations. With a background context and no policy the behavior —
// and the answer — is byte-identical to Query's.
func (t *Tree) QueryContext(ctx context.Context, cell cells.CellID, eta float64) (*QueryResult, error) {
	return t.query(ctx, cell, eta, false, nil)
}

// query is the one prologue and epilogue behind every query form: it
// clamps η, snapshots the control state once (begin), flips the cell,
// runs a driver of the Figure 3 decision, absorbs a failed root access
// (rootFallback), marks η shedding, and fills Stats. coherent selects the
// retained-cut driver; a non-nil frustum orders the serial driver's
// visits (QueryPrioritizedContext). The driver rules:
//
//   - coherent delegates to the full traversal while shedding — the cut
//     is valid for one η, and a policy-relaxed η would thrash it — and
//     after any fault on the warm path;
//   - prioritized is serial, so its frustum order is the emission order.
func (t *Tree) query(ctx context.Context, cell cells.CellID, eta float64, coherent bool, f *geom.Frustum) (*QueryResult, error) {
	if t.vstore == nil {
		return nil, ErrNoVStore
	}
	if eta < 0 {
		eta = 0
	}
	tc, eff, done := t.begin(ctx, eta)
	defer done()
	tc.frustum = f
	tc.scr = t.scr
	if tc.scr == nil {
		tc.scr = &travScratch{}
	}
	before := t.IO.Stats()
	res := t.getResult(cell, eta)
	full := !coherent || tc.shed != nil
	if !full {
		if err := t.searchCoherent(tc, cell, eff, res); err != nil {
			// Fail fast: the cut is dropped and a full traversal absorbs
			// (or reports) the fault exactly as a cold query would. The
			// wasted incremental reads stay on this session's account; the
			// returned Stats cover only the full traversal. An abandoned
			// query must not buy a second traversal, so context errors
			// abort outright.
			if ctx.Err() != nil {
				t.Recycle(res)
				return nil, err
			}
			t.cut.stats.Full++
			res.reset()
			before = t.IO.Stats()
			full = true
		}
	} else if coherent {
		t.InvalidateCut()
	}
	if full {
		if err := t.vstore.SetCell(cell); err != nil {
			if !t.rootFallback(res, err, CauseCellFlip) {
				return nil, fmt.Errorf("core: cell flip: %w", err)
			}
		} else if err := t.searchNode(tc, 0, eff, res, nil); err != nil {
			// Only the root's own record/V-page failures reach here; deeper
			// faults are absorbed at their recursion sites.
			if !t.rootFallback(res, err, CauseNodeRecord) {
				return nil, err
			}
		}
	}
	tc.shedMark(res)
	d := t.IO.Stats().Sub(before)
	res.Stats.LightIO = d.LightReads
	res.Stats.HeavyIO = d.HeavyReads
	res.Stats.Retries = d.Retries
	res.Stats.SimTime = d.SimTime
	for _, it := range res.Items {
		res.Stats.TotalPolygons += it.Polygons
		res.Stats.TotalBytes += it.Extent.NominalBytes
	}
	return res, nil
}

// entryAction is the Figure 3 outcome for one entry of a visited node.
type entryAction uint8

const (
	actCut     entryAction = iota // line 3: hidden branch, pruned
	actItem                       // lines 5 and 8: emit the item
	actShed                       // shed truncation: emit the item plus a CauseShed Degradation
	actDescend                    // line 10: recurse into the child
)

// decide is the per-entry rule of Search(Node), Figure 3 — the single copy
// every driver calls — for entry i of the record rec. For actItem and
// actShed it writes the answer to emit into it; for actDescend it writes
// only the entry's DoV and equation-5 detail, which fault substitution
// needs. (it is an out-parameter so the item is built once, in the
// caller's frame.) truncate reports whether the shed policy cuts the
// traversal at this node's depth (travCtx.truncate).
//
// hdov:hot-path
func (t *Tree) decide(rec NodeView, i int, v VD, eta float64, truncate bool, it *ResultItem) entryAction {
	// Line 3: completely hidden branch.
	if v.DoV <= 0 {
		return actCut
	}
	// Lines 4-5: visible object.
	if rec.Leaf() {
		obj := rec.EntryObject(i)
		k := LeafDetail(v.DoV)
		lvl := chooseLevel(k, len(t.ObjExtents[obj]))
		*it = ResultItem{
			ObjectID: obj,
			NodeID:   NilNode,
			DoV:      v.DoV,
			Detail:   k,
			Level:    lvl,
			Polygons: t.Scene.Object(obj).LoDs.PolygonsFor(k),
			Extent:   t.ObjExtents[obj][lvl],
		}
		return actItem
	}
	// Line 7: the equation-5 detail k is computed first because the guard
	// compares costs at the internal-LoD level that would actually be
	// retrieved (see TerminateHeuristic). An entry without LoD references
	// — possible only for hand-built trees — always recurses.
	child := rec.EntryChild(i)
	k := InternalDetail(v.DoV, eta)
	act := actDescend
	nLoD := rec.NumLoD()
	var polys float64
	if nLoD > 0 {
		_, finest := rec.EntryLoD(i, 0)
		_, coarsest := rec.EntryLoD(i, nLoD-1)
		polys = interpolatePolys(finest, coarsest, k)
		avgObjPolys := 0.0
		if n := rec.EntryDescCount(i); n > 0 {
			avgObjPolys = float64(rec.EntryDescPolys(i)) / float64(n)
		}
		if v.DoV <= eta && (t.DisableTerminationHeuristic ||
			TerminateHeuristic(polys, avgObjPolys, t.RhoMeasured, v.NVO)) {
			// Line 8: answer the branch with the child's internal LoD,
			// whose references are co-located in the entry.
			act = actItem
		} else if truncate {
			// At the shed policy's depth limit the branch answers with the
			// child's internal LoD even though η says descend.
			act = actShed
		}
	}
	if act == actDescend {
		*it = ResultItem{ObjectID: -1, NodeID: child, DoV: v.DoV, Detail: k}
		return act
	}
	lvl := chooseLevel(k, nLoD)
	ext, _ := rec.EntryLoD(i, lvl)
	*it = ResultItem{
		ObjectID: -1,
		NodeID:   child,
		DoV:      v.DoV,
		Detail:   k,
		Level:    lvl,
		Polygons: polys,
		Extent:   ext,
	}
	return act
}

// record applies a decision other than actDescend to res: a pruned branch
// is counted, an item is appended (an internal LoD counts an early stop),
// and a shed truncation also records its CauseShed Degradation — shedding
// is never silent.
func (res *QueryResult) record(act entryAction, it *ResultItem) {
	if act == actCut {
		res.Stats.BranchesCut++
		return
	}
	res.Items = append(res.Items, *it)
	if !it.IsInternal() {
		return
	}
	res.Stats.EarlyStops++
	if act == actShed {
		res.Degradations = append(res.Degradations, Degradation{
			Cell: res.Cell, Node: it.NodeID, Object: -1,
			Cause: CauseShed, Page: storage.NilPage,
			SubstituteNode: it.NodeID, SubstituteLevel: it.Level,
		})
	}
}

// searchNode is Algorithm Search(Node) of Figure 3: the serial driver of
// decide. anc is the ancestor ladder of internal-LoD sources used by
// fault-tolerant substitution (nil at the root; see degrade.go); its
// length is the node's depth plus one. tc carries the cancellation
// checkpoint (polled here, once per node expansion), the shed policy,
// the frustum of a prioritized query, which orders the visits, and the
// session's traversal buffers.
//
// hdov:hot-path
func (t *Tree) searchNode(tc travCtx, id NodeID, eta float64, res *QueryResult, anc []lodSource) error {
	if err := tc.err(); err != nil {
		return err
	}
	depth := max(len(anc)-1, 0)
	// The record lands in this depth's buffer (every record fits its
	// stride): its view is dead once the node's entry loop ends, and the
	// ladder holds only shallower ones.
	buf := tc.scr.recBuf(depth, t.nodeStride*t.Disk.PageSize())
	rec, err := t.ReadNodeRecord(id, buf)
	if err != nil {
		return err
	}
	res.Stats.NodesVisited++
	if len(anc) == 0 {
		anc = append(tc.scr.anc[:0], lodSource{node: id, rec: rec, entry: -1})
	}
	vd, ok, err := t.vstore.NodeVD(id, tc.scr.vdBuf(depth))
	if err != nil {
		return err
	}
	tc.scr.vd[depth] = vd
	if !ok {
		return nil // whole node invisible in this cell
	}
	n := rec.NumEntries()
	if len(vd) < n {
		return fmt.Errorf("core: node %d has %d entries but V-page has %d", id, n, len(vd))
	}
	order := frustumOrder(rec, tc.frustum)
	trunc := tc.truncate(len(anc))
	var it ResultItem
	for i := 0; i < n; i++ {
		ei := i
		if order != nil {
			ei = order[i]
		}
		act := t.decide(rec, ei, vd[ei], eta, trunc, &it)
		if act != actDescend {
			res.record(act, &it)
			continue
		}
		// Line 10: recurse. The child's internal-LoD references (already
		// in hand from this entry) extend the substitution ladder, which
		// the session keeps so its growth outlives the query.
		child := it.NodeID
		childAnc := append(anc, lodSource{node: child, rec: rec, entry: ei})
		if cap(childAnc) > cap(tc.scr.anc) {
			tc.scr.anc = childAnc
		}
		if err := t.searchNode(tc, child, eta, res, childAnc); err != nil {
			cause, page, ok := t.absorbFault(err, child)
			if !ok {
				return err
			}
			t.substitute(res, childAnc, child, it.DoV, it.Detail, cause, page)
		}
	}
	return nil
}

// frustumOrder is the visit order of a prioritized query (nil for every
// other query): frustum-intersecting entries first, then those whose bulk
// lies ahead of the viewer (an intersecting box centered behind the eye
// mostly holds behind-geometry), then nearest first.
func frustumOrder(rec NodeView, f *geom.Frustum) []int {
	if f == nil {
		return nil
	}
	n := rec.NumEntries()
	order := make([]int, n)
	inView := make([]bool, n)
	ahead := make([]bool, n)
	dist := make([]float64, n)
	for i := range order {
		mbr := rec.EntryMBR(i)
		order[i] = i
		inView[i] = f.IntersectsAABB(mbr)
		ahead[i] = mbr.Center().Sub(f.Apex).Dot(f.Look) >= 0
		dist[i] = mbr.Dist2ToPoint(f.Apex)
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if inView[ia] != inView[ib] {
			return inView[ia]
		}
		if ahead[ia] != ahead[ib] {
			return ahead[ia]
		}
		return dist[ia] < dist[ib]
	})
	return order
}

// chooseLevel maps a continuous detail k in [0,1] (1 = finest) to a
// discrete level index among n levels, mirroring mesh.LoDChain.LevelFor.
func chooseLevel(k float64, n int) int {
	if n <= 1 {
		return 0
	}
	if k >= 1 {
		return 0
	}
	if k <= 0 {
		return n - 1
	}
	idx := int((1 - k) * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// interpolatePolys evaluates the equation-5 polygon interpolation between
// the finest (hi) and coarsest (lo) internal LoD polygon counts.
func interpolatePolys(hi, lo int, k float64) float64 {
	if k >= 1 {
		return float64(hi)
	}
	if k <= 0 {
		return float64(lo)
	}
	return k*float64(hi) + (1-k)*float64(lo)
}

// FetchPayloadsContext charges the heavy-weight I/O of retrieving every
// item's payload extent, skipping items for which skip returns true (the
// delta search of §5.4 passes a cache-hit predicate). It returns the
// number of items actually fetched. The context is checked before each
// item's extent read; an expired deadline aborts with the items fetched
// so far counted.
func (t *Tree) FetchPayloadsContext(ctx context.Context, res *QueryResult, skip func(ResultItem) bool) (int, error) {
	tc, _, done := t.begin(ctx, 0)
	defer done()
	fetched := 0
	for i := range res.Items {
		if err := tc.err(); err != nil {
			return fetched, err
		}
		it := res.Items[i]
		if skip != nil && skip(it) {
			continue
		}
		ext := it.Extent
		err := t.IO.ReadExtent(ext.Start, ext.Pages(t.Disk), storage.ClassHeavy)
		if err == nil {
			fetched++
			continue
		}
		if !t.FaultTolerant || !degradable(err) {
			return fetched, err
		}
		if n, ok := t.degradePayload(res, i); ok {
			fetched += n
		}
	}
	return fetched, nil
}

// degradePayload handles a media fault on res.Items[i]'s extent: the
// failing pages are quarantined, a sibling LoD level of the same object or
// node stands in (coarser preferred), the item is rewritten to the level
// actually fetched, and a CausePayload Degradation is recorded. Returns
// the number of extents fetched (0 when no level was readable — the item's
// geometry is simply absent from the frame).
func (t *Tree) degradePayload(res *QueryResult, i int) (int, bool) {
	it := res.Items[i]
	deg := Degradation{
		Cell: res.Cell, Node: it.NodeID, Object: it.ObjectID,
		Cause: CausePayload, Page: storage.NilPage,
		SubstituteNode: NilNode, SubstituteLevel: -1,
	}
	// Quarantine the failing pages so later frames skip the seek.
	for p, n := 0, it.Extent.Pages(t.Disk); p < n; p++ {
		t.Disk.Quarantine(it.Extent.Start + storage.PageID(p))
	}
	deg.Page = it.Extent.Start
	var refs []Extent
	var polys []int
	if it.ObjectID >= 0 && int(it.ObjectID) < len(t.ObjExtents) {
		refs = t.ObjExtents[it.ObjectID]
	} else if it.NodeID != NilNode && int(it.NodeID) < len(t.Nodes) {
		refs = t.Nodes[it.NodeID].InternalExtents
		polys = t.Nodes[it.NodeID].InternalPolys
	}
	// Prefer the coarser neighbors of the lost level, then finer ones.
	lvl, ok := t.pickReadableLevel(len(refs), func(l int) Extent { return refs[l] }, it.Level+1)
	if ok {
		ext := refs[lvl]
		if err := t.IO.ReadExtent(ext.Start, ext.Pages(t.Disk), storage.ClassHeavy); err == nil {
			res.Items[i].Level = lvl
			res.Items[i].Extent = ext
			if lvl < len(polys) {
				res.Items[i].Polygons = float64(polys[lvl])
			}
			if it.NodeID != NilNode {
				deg.SubstituteNode = it.NodeID
			}
			deg.SubstituteLevel = lvl
			res.Degradations = append(res.Degradations, deg)
			return 1, true
		}
		// The fallback level failed too (fresh fault): quarantine it and
		// give up on this item rather than looping.
		for p, n := 0, ext.Pages(t.Disk); p < n; p++ {
			t.Disk.Quarantine(ext.Start + storage.PageID(p))
		}
	}
	res.Degradations = append(res.Degradations, deg)
	return 0, true
}

// LoadMesh decodes the actual mesh payload of a result item (the real
// bytes prefix of its extent), charging heavy I/O for the full nominal
// extent. Examples and the fidelity renderer use this.
func (t *Tree) LoadMesh(it ResultItem) (*mesh.Mesh, error) {
	buf, err := t.IO.ReadBytes(it.Extent.Start, int(it.Extent.RealBytes), storage.ClassHeavy, nil)
	if err != nil {
		return nil, err
	}
	return mesh.Decode(buf)
}

// QueryPrioritizedContext is the DESIGN.md D5 extension (the paper's §6
// future work): identical answer set to QueryContext, but branches
// intersecting the view frustum are traversed first so the renderer
// receives in-view geometry earliest. The result carries, per item, the
// prefix position at which it became available; tests measure
// time-to-first-in-view-item. Context and shed semantics match
// QueryContext's.
func (t *Tree) QueryPrioritizedContext(ctx context.Context, cell cells.CellID, eta float64, f geom.Frustum) (*QueryResult, error) {
	return t.query(ctx, cell, eta, false, &f)
}
