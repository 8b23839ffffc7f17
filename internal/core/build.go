package core

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/cells"
	"repro/internal/mesh"
	"repro/internal/rtree"
	"repro/internal/scene"
	"repro/internal/simplify"
	"repro/internal/storage"
	"repro/internal/visibility"
)

// BuildParams controls HDoV-tree construction (the preprocessing pipeline
// of §5.1: R-tree insertion with linear splitting, internal-LoD generation
// with qslim, conservative visibility + DoV evaluation per cell).
type BuildParams struct {
	// FanoutMin/FanoutMax are the R-tree m and M.
	FanoutMin, FanoutMax int
	// InternalLoDLevels is the number of "levels of internal LoDs" per
	// node (§3.2).
	InternalLoDLevels int
	// S is the target parent/children polygon ratio s of equation 3:
	// s = npoly(node) / Σ npoly(child_i). Must be in (0, 1) for the
	// termination heuristic to ever fire.
	S float64
	// InternalLoDRatio is the shrink factor between consecutive internal
	// LoD levels of the same node.
	InternalLoDRatio float64
	// Grid partitions the viewpoint space (nil: a default 8×8 grid over
	// the scene's view region).
	Grid *cells.Grid
	// DirsPerViewpoint is the DoV ray count per sample viewpoint.
	DirsPerViewpoint int
	// SamplesPerCell is the per-axis sample density for the region-DoV
	// maximum of equation 2 (n of cells.SamplePoints).
	SamplesPerCell int
	// Workers bounds precompute parallelism (0: GOMAXPROCS).
	Workers int
	// UseItemBuffer selects the cube-map rasterizer (the literal software
	// form of the paper's hardware DoV pass) instead of ray casting for
	// the per-cell precomputation. Both backends measure the same solid
	// angles; see visibility.ItemBuffer.
	UseItemBuffer bool
	// ItemBufferRes is the per-face resolution when UseItemBuffer is set
	// (0: visibility.DefaultItemBufferRes).
	ItemBufferRes int
	// BulkLoad builds the R-tree backbone with STR packing instead of
	// one-by-one insertion: near-full leaves, lower sibling overlap,
	// fewer nodes (ablation D8). The paper inserts incrementally.
	BulkLoad bool
	// DoVQuantBits snaps leaf DoV values onto a dyadic 2^-bits grid at
	// build time (see quant.go), so the codec V-page layer stores them
	// as small fixed-point integers with byte-identical query results.
	// Zero: DefaultDoVQuantBits. Negative: no snapping (raw float64s).
	DoVQuantBits int
	// QuantSafeEtas are the η thresholds snapping is validated against
	// per cell (nil: DefaultQuantSafeEtas). A cell where snapping would
	// move any aggregated DoV across any of these thresholds widens its
	// grid, and falls back to raw values if none is safe.
	QuantSafeEtas []float64
}

// DefaultBuildParams returns parameters mirroring the paper's prototype.
// S is deliberately small: an internal LoD only pays off when it is far
// coarser than the coarse object LoDs it replaces, since the traversal
// terminates exactly where DoV (and hence the equation-6 object detail) is
// tiny.
func DefaultBuildParams() BuildParams {
	return BuildParams{
		FanoutMin:         rtree.DefaultMinEntries,
		FanoutMax:         rtree.DefaultMaxEntries,
		InternalLoDLevels: 3,
		S:                 0.08,
		InternalLoDRatio:  0.25,
		DirsPerViewpoint:  2048,
		SamplesPerCell:    2,
	}
}

// Tree is a built HDoV-tree: the view-invariant structure on disk plus an
// in-memory mirror used by the build pipeline, tests, and the renderer.
// Attach a storage scheme with SetVStore before querying.
type Tree struct {
	Scene  *scene.Scene
	Grid   *cells.Grid
	Disk   *storage.Disk
	Params BuildParams

	Nodes []*Node // by NodeID (depth-first preorder; root is 0)
	// ObjExtents[objID][level] locates each object LoD payload.
	ObjExtents [][]Extent
	// SMeasured is the realized mean polygon ratio s (equation 3's s),
	// which the traversal's termination heuristic uses.
	SMeasured float64
	// RhoMeasured is the mean coarsest/finest polygon ratio of the object
	// LoD chains, used by the equation-3 guard (see TerminateHeuristic).
	RhoMeasured float64

	// DisableTerminationHeuristic drops the equation-4 guard from line 7
	// of Figure 3, terminating on DoV <= eta alone. This is ablation D2
	// (DESIGN.md §6): without the guard the traversal may retrieve
	// internal LoDs carrying more polygons than their visible children.
	DisableTerminationHeuristic bool

	// FaultTolerant enables degraded-mode traversal (degrade.go): media
	// faults during a query substitute ancestor internal LoDs and record
	// Degradation events instead of aborting. Off by default; with no
	// faults firing, results are identical either way.
	FaultTolerant bool

	// IO is the accounting handle the tree's query-path reads go through,
	// so per-query stats stay exact when several sessions share one disk.
	// Every tree has one: Build, OpenTree and ApplyOps set it, and Session
	// gives each session its own.
	IO *storage.Client

	vstore       VStore
	nodePageBase storage.PageID
	nodeStride   int // pages per node record

	// bb holds the live R-tree backbone the node mirror was derived from,
	// retained so incremental updates (update.go) can evolve it in place.
	// It lives behind a pointer so transferring it to the next epoch never
	// writes a Tree field that a concurrent Session() struct copy could be
	// reading: the holder's contents are only ever touched by the (single)
	// writer, while readers at most copy the pointer. bb.rt is nil on
	// reopened trees until the first update reconstructs it from the
	// mirror; bb.nodes maps each mirrored Node (by NodeID) back to its
	// R-tree node, the identity the internal-LoD cache is keyed on.
	bb *backbone

	// shed is the shared load-shedding policy slot (SetShed): sessions
	// derived after the slot exists see policy flips immediately. Nil
	// until the first SetShed — no shedding, byte-identical traversal.
	shed *shedHolder

	// cut is the session's retained traversal frontier (QueryCoherent);
	// nil until the first coherent query. Sessions never inherit a cut.
	cut *cutState
	// resPool recycles QueryResults within one session (see Recycle);
	// nil on the base tree, so recycling is per-session by construction.
	resPool *resultPool
	// scr holds the session's traversal buffers; nil on the base tree,
	// whose queries each take a fresh set (see query).
	scr *travScratch
}

// backbone boxes the live R-tree so epoch transfer mutates holder
// contents, not Tree fields (see the Tree.bb comment).
type backbone struct {
	rt    *rtree.Tree
	nodes []*rtree.Node
}

// Root returns the root node.
func (t *Tree) Root() *Node { return t.Nodes[0] }

// NumNodes returns N_node.
func (t *Tree) NumNodes() int { return len(t.Nodes) }

// SetVStore attaches the V-page layout Query reads: the tree reads it
// through a view over its own client, so V-page I/O is charged where the
// tree measures its queries. A nil layout detaches it.
func (t *Tree) SetVStore(l VStoreLayout) {
	t.vstore = nil
	if l != nil {
		t.vstore = l.View(t.IO)
	}
}

// Build constructs the HDoV-tree over sc on disk d and precomputes the
// visibility data for every cell of the grid. The returned VisData is then
// handed to one of the vstore schemes; the tree is queryable after
// SetVStore.
func Build(sc *scene.Scene, d *storage.Disk, p BuildParams) (*Tree, *VisData, error) {
	if sc == nil || len(sc.Objects) == 0 {
		return nil, nil, fmt.Errorf("core: empty scene")
	}
	p = normalizeBuildParams(sc, p)

	// Step 1: R-tree over object MBRs — linear-split insertion as in
	// §5.1, or STR packing when BulkLoad is set. Tombstoned objects are
	// not indexed.
	var rt *rtree.Tree
	if p.BulkLoad {
		items := make([]rtree.Item, 0, len(sc.Objects))
		for _, o := range sc.Objects {
			if o.Dead {
				continue
			}
			items = append(items, rtree.Item{MBR: o.MBR, ID: o.ID})
		}
		rt = rtree.BulkLoad(items, p.FanoutMin, p.FanoutMax)
	} else {
		rt = rtree.New(p.FanoutMin, p.FanoutMax)
		for _, o := range sc.Objects {
			if o.Dead {
				continue
			}
			rt.Insert(o.MBR, o.ID)
		}
	}
	return BuildFromRTree(sc, d, p, rt)
}

// normalizeBuildParams fills defaults; Build and BuildFromRTree share it.
func normalizeBuildParams(sc *scene.Scene, p BuildParams) BuildParams {
	if p.FanoutMax < 2 {
		p.FanoutMax = rtree.DefaultMaxEntries
	}
	if p.InternalLoDLevels < 1 {
		p.InternalLoDLevels = 1
	}
	if p.S <= 0 || p.S >= 1 {
		p.S = 0.08
	}
	if p.Grid == nil {
		p.Grid = cells.NewGrid(sc.ViewRegion, 8, 8)
	}
	if p.DirsPerViewpoint <= 0 {
		p.DirsPerViewpoint = 2048
	}
	if p.SamplesPerCell <= 0 {
		p.SamplesPerCell = 1
	}
	if p.DoVQuantBits == 0 {
		p.DoVQuantBits = DefaultDoVQuantBits
	}
	if p.QuantSafeEtas == nil {
		p.QuantSafeEtas = DefaultQuantSafeEtas()
	}
	return p
}

// BuildFromRTree runs the HDoV build pipeline over an already-evolved
// R-tree backbone: mirroring, internal LoDs, payload and node records,
// and per-cell DoV precomputation — everything downstream of step 1. The
// incremental-update differential harness uses it to define the
// from-scratch reference: replay the same deterministic R-tree op
// evolution the live tree went through, then rebuild every derived
// artifact fresh. The tree takes ownership of rt.
func BuildFromRTree(sc *scene.Scene, d *storage.Disk, p BuildParams, rt *rtree.Tree) (*Tree, *VisData, error) {
	if sc == nil || len(sc.Objects) == 0 {
		return nil, nil, fmt.Errorf("core: empty scene")
	}
	if d == nil {
		return nil, nil, fmt.Errorf("core: nil disk")
	}
	if rt == nil || rt.Len() == 0 {
		return nil, nil, fmt.Errorf("core: empty R-tree")
	}
	p = normalizeBuildParams(sc, p)

	t := &Tree{Scene: sc, Grid: p.Grid, Disk: d, Params: p, IO: d.NewClient(), bb: &backbone{rt: rt}}

	// Step 2: mirror the R-tree into HDoV nodes in depth-first preorder.
	t.mirror(rt)

	// Step 3: internal LoDs, bottom-up; writes payload extents.
	if err := t.buildInternalLoDs(nil); err != nil {
		return nil, nil, err
	}

	// Measure rho: the mean coarsest/finest polygon ratio of the object
	// chains, the LoD-selected-retrieval correction of the equation-3
	// guard.
	t.RhoMeasured = measureRho(sc)

	// Step 4: object LoD payload extents.
	if err := t.writeObjectPayloads(); err != nil {
		return nil, nil, err
	}

	// Step 5: node records.
	if err := t.writeNodeRecords(); err != nil {
		return nil, nil, err
	}

	// Step 6: per-cell DoV precomputation.
	vis := t.precomputeVisibility()

	return t, vis, nil
}

// mirror copies the R-tree structure into t.Nodes in DFS preorder,
// recording the R-tree node behind each mirrored node in t.bb.nodes.
func (t *Tree) mirror(rt *rtree.Tree) {
	var walk func(rn *rtree.Node) NodeID
	walk = func(rn *rtree.Node) NodeID {
		n := &Node{ID: NodeID(len(t.Nodes)), Leaf: rn.Leaf}
		t.Nodes = append(t.Nodes, n)
		t.bb.nodes = append(t.bb.nodes, rn)
		for _, e := range rn.Entries {
			ne := NodeEntry{MBR: e.MBR, ChildID: NilNode, ObjectID: -1, DescCount: 1}
			if rn.Leaf {
				ne.ObjectID = e.ItemID
				ne.DescPolys = int64(t.Scene.Object(e.ItemID).LoDs.Finest().NumTriangles())
				n.LeafDescendants++
			} else {
				child := walk(e.Child)
				ne.ChildID = child
				cn := t.Nodes[child]
				ne.DescCount = int32(cn.LeafDescendants)
				for _, ce := range cn.Entries {
					ne.DescPolys += ce.DescPolys
				}
				n.LeafDescendants += cn.LeafDescendants
				if h := cn.SubtreeHeight + 1; h > n.SubtreeHeight {
					n.SubtreeHeight = h
				}
			}
			n.Entries = append(n.Entries, ne)
		}
		return n.ID
	}
	walk(rt.Root())
}

// buildInternalLoDs generates the aggregate coarse meshes bottom-up: a
// leaf's internal LoD aggregates its objects' models; an internal node's
// aggregates its children's internal LoDs — "Internal LoDs of nodes at
// higher levels are then generated in a bottom-up order" (§5.1). The
// simplification target enforces npoly(node) ≈ S · Σ npoly(children).
//
// reuse, when non-nil, lets the incremental-update path substitute an
// already-built chain for a node whose subtree is provably unchanged: it
// returns the previous epoch's node (whose chain, extents and polygon
// counts are adopted verbatim — the extents stay valid because committed
// pages are never rewritten) or nil to build fresh. The s-ratio
// accumulation runs identically either way, in the same bottom-up order,
// so SMeasured is bit-identical to a from-scratch rebuild.
//
// hdov:construction-window — runs before the tree is published; the
// nodes it mutates are not yet reachable by readers.
func (t *Tree) buildInternalLoDs(reuse func(n *Node) *Node) error {
	var sSum float64
	var sCnt int
	// DFS preorder guarantees children have higher IDs than parents, so
	// iterate in reverse ID order for bottom-up processing.
	for i := len(t.Nodes) - 1; i >= 0; i-- {
		n := t.Nodes[i]
		var parts []*mesh.Mesh
		var childPolys int
		if n.Leaf {
			for _, e := range n.Entries {
				obj := t.Scene.Object(e.ObjectID)
				// Aggregate a mid-detail representation: detailed enough
				// to keep silhouettes, cheap enough to merge and simplify.
				lvl := obj.LoDs.NumLevels() / 2
				parts = append(parts, obj.LoDs.Levels[lvl])
				childPolys += obj.LoDs.Finest().NumTriangles()
			}
		} else {
			for _, e := range n.Entries {
				cn := t.Nodes[e.ChildID]
				parts = append(parts, cn.InternalLoD.Finest())
				childPolys += cn.InternalLoD.Finest().NumTriangles()
			}
		}
		if reuse != nil {
			if old := reuse(n); old != nil {
				n.InternalLoD = old.InternalLoD
				n.InternalExtents = old.InternalExtents
				n.InternalPolys = old.InternalPolys
				if childPolys > 0 {
					sSum += float64(n.InternalLoD.Finest().NumTriangles()) / float64(childPolys)
					sCnt++
				}
				continue
			}
		}
		agg := mesh.Merge(parts...)
		target := int(t.Params.S * float64(childPolys))
		if target < 8 {
			target = 8
		}
		top := simplify.Simplify(agg, target)
		n.InternalLoD = simplify.BuildLoDChain(top, t.Params.InternalLoDLevels, t.Params.InternalLoDRatio)
		if childPolys > 0 {
			sSum += float64(top.NumTriangles()) / float64(childPolys)
			sCnt++
		}
		// Write the chain's payload extents now.
		n.InternalExtents = make([]Extent, n.InternalLoD.NumLevels())
		n.InternalPolys = make([]int, n.InternalLoD.NumLevels())
		for li, m := range n.InternalLoD.Levels {
			enc := m.Encode()
			nominal := int64(float64(len(enc)) * t.Scene.PayloadScale)
			if nominal < int64(len(enc)) {
				nominal = int64(len(enc))
			}
			start := t.Disk.AllocPages(t.Disk.PagesFor(nominal))
			// Real bytes are written so the mesh can be reloaded.
			if err := t.Disk.WriteBytes(start, enc); err != nil {
				return fmt.Errorf("core: node %d internal LoD %d: %w", n.ID, li, err)
			}
			n.InternalExtents[li] = Extent{Start: start, NominalBytes: nominal, RealBytes: int64(len(enc))}
			n.InternalPolys[li] = m.NumTriangles()
		}
	}
	if sCnt > 0 {
		t.SMeasured = sSum / float64(sCnt)
	} else {
		t.SMeasured = t.Params.S
	}
	// Mirror each child's internal-LoD references into its parent entry so
	// line 8 of Figure 3 (E.ptr→LOD_internal) needs no child-record fetch.
	for _, n := range t.Nodes {
		if n.Leaf {
			continue
		}
		for ei := range n.Entries {
			c := t.Nodes[n.Entries[ei].ChildID]
			n.Entries[ei].LoDRefs = append([]Extent(nil), c.InternalExtents...)
			n.Entries[ei].LoDPolys = append([]int(nil), c.InternalPolys...)
		}
	}
	return nil
}

// measureRho returns the mean coarsest/finest polygon ratio over the live
// objects, accumulated in object-ID order so the incremental-update path
// reproduces the build value bit for bit.
func measureRho(sc *scene.Scene) float64 {
	var rhoSum float64
	alive := 0
	for _, o := range sc.Objects {
		if o.Dead {
			continue
		}
		alive++
		hi := o.LoDs.Finest().NumTriangles()
		lo := o.LoDs.Coarsest().NumTriangles()
		if hi > 0 {
			rhoSum += float64(lo) / float64(hi)
		}
	}
	if alive == 0 {
		return 0
	}
	return rhoSum / float64(alive)
}

// writeObjectPayload allocates and writes one object's LoD payload chain.
func (t *Tree) writeObjectPayload(o *scene.Object) ([]Extent, error) {
	exts := make([]Extent, o.LoDs.NumLevels())
	for li, m := range o.LoDs.Levels {
		nominal := o.LoDBytes[li]
		enc := m.Encode()
		if nominal < int64(len(enc)) {
			nominal = int64(len(enc))
		}
		start := t.Disk.AllocPages(t.Disk.PagesFor(nominal))
		if err := t.Disk.WriteBytes(start, enc); err != nil {
			return nil, fmt.Errorf("core: object %d LoD %d: %w", o.ID, li, err)
		}
		exts[li] = Extent{Start: start, NominalBytes: nominal, RealBytes: int64(len(enc))}
	}
	return exts, nil
}

// writeObjectPayloads allocates and writes the object LoD payload extents.
func (t *Tree) writeObjectPayloads() error {
	t.ObjExtents = make([][]Extent, len(t.Scene.Objects))
	for _, o := range t.Scene.Objects {
		exts, err := t.writeObjectPayload(o)
		if err != nil {
			return err
		}
		t.ObjExtents[o.ID] = exts
	}
	return nil
}

// writeNodeRecords lays the node records out contiguously in ID order with
// a uniform page stride, so node I/O is addressable as base + id*stride.
//
// hdov:construction-window — assigns page numbers during build, before
// the tree is published.
func (t *Tree) writeNodeRecords() error {
	maxRec := 0
	for _, n := range t.Nodes {
		if s := n.RecordSize(); s > maxRec {
			maxRec = s
		}
	}
	t.nodeStride = t.Disk.PagesFor(int64(maxRec))
	t.nodePageBase = t.Disk.AllocPages(t.nodeStride * len(t.Nodes))
	for _, n := range t.Nodes {
		n.Page = t.nodePageBase + storage.PageID(int(n.ID)*t.nodeStride)
		if err := t.Disk.WriteBytes(n.Page, n.EncodeRecord()); err != nil {
			return fmt.Errorf("core: writing node %d: %w", n.ID, err)
		}
	}
	return nil
}

// DescendantObjects calls fn for every object beneath the given node. The
// fidelity metrics use it to expand internal-LoD items into the objects
// they represent.
func (t *Tree) DescendantObjects(id NodeID, fn func(objID int64)) {
	if int(id) < 0 || int(id) >= len(t.Nodes) {
		return
	}
	n := t.Nodes[id]
	for _, e := range n.Entries {
		if n.Leaf {
			fn(e.ObjectID)
		} else {
			t.DescendantObjects(e.ChildID, fn)
		}
	}
}

// NodePage returns the disk page of a node record.
func (t *Tree) NodePage(id NodeID) storage.PageID {
	return t.nodePageBase + storage.PageID(int(id)*t.nodeStride)
}

// NodeStride returns pages per node record.
func (t *Tree) NodeStride() int { return t.nodeStride }

// ReadNodeRecord fetches a node record from disk, charging light I/O —
// the "tree node" component of Figure 8(b) — and returns a view over the
// bytes where storage served them (ParseNodeRecord): no decode, no copy.
// buf is the caller's read buffer (storage.Disk.ReadBytes): the view
// may lie in it, so a caller that keeps the view past its own next read
// into buf passes nil.
func (t *Tree) ReadNodeRecord(id NodeID, buf []byte) (NodeView, error) {
	if int(id) < 0 || int(id) >= len(t.Nodes) {
		return NodeView{}, fmt.Errorf("core: node %d out of range", id)
	}
	buf, err := t.IO.ReadBytes(t.NodePage(id), t.Nodes[id].RecordSize(), storage.ClassLight, buf)
	if err != nil {
		return NodeView{}, err
	}
	rec, err := ParseNodeRecord(buf)
	if err != nil {
		// The pages read back but the record does not parse: silent
		// corruption, distinguishable (ErrBadRecord) so fault-tolerant
		// traversal can degrade on it.
		return NodeView{}, fmt.Errorf("%w: node %d: %v", ErrBadRecord, id, err)
	}
	return rec, nil
}

// precomputeVisibility evaluates per-cell, per-object region DoV and
// aggregates it to per-node entry VD values (DoV sums per §3.2 attribute
// 2, NVO counts). Cells are processed in parallel; the visibility engine
// is read-only after construction.
func (t *Tree) precomputeVisibility() *VisData {
	grid := t.Grid
	vis := &VisData{
		NumNodes:  len(t.Nodes),
		Grid:      grid,
		PerCell:   make(map[cells.CellID][][]VD, grid.NumCells()),
		CellShift: make([]uint8, grid.NumCells()),
		RawDoV:    make([][]float64, grid.NumCells()),
	}

	workers := t.Params.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Backend selection: the ray engine is safe to share across workers;
	// the item buffer holds raster state, so each worker gets a clone.
	var sharedRays *visibility.Engine
	var protoIB *visibility.ItemBuffer
	if t.Params.UseItemBuffer {
		protoIB = visibility.NewItemBuffer(t.Scene, t.Params.ItemBufferRes)
	} else {
		sharedRays = visibility.NewEngine(t.Scene, t.Params.DirsPerViewpoint)
	}
	type cellResult struct {
		cell  cells.CellID
		vd    [][]VD
		shift uint8
		raw   []float64
	}
	jobs := make(chan cells.CellID)
	results := make(chan cellResult)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var field visibility.Field
			if protoIB != nil {
				field = protoIB.Clone()
			} else {
				field = sharedRays
			}
			for cell := range jobs {
				samples := grid.SamplePoints(cell, t.Params.SamplesPerCell)
				objDoV := field.RegionDoV(samples)
				vd, shift := t.quantizeCell(objDoV, t.Params.DoVQuantBits, t.Params.QuantSafeEtas)
				results <- cellResult{cell: cell, vd: vd, shift: shift, raw: objDoV}
			}
		}()
	}
	go func() {
		for c := 0; c < grid.NumCells(); c++ {
			jobs <- cells.CellID(c)
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()
	for r := range results {
		vis.PerCell[r.cell] = r.vd
		vis.CellShift[r.cell] = r.shift
		vis.RawDoV[r.cell] = r.raw
	}
	return vis
}

// aggregate rolls a per-object DoV field up the tree: leaf entry VD is the
// object's (DoV, 0/1); internal entry VD sums the child node's entries
// (attribute 2 of §3.2) and counts visible objects (NVO).
func (t *Tree) aggregate(objDoV []float64) [][]VD {
	perNode := make([][]VD, len(t.Nodes))
	// Bottom-up: children have higher IDs (preorder).
	for i := len(t.Nodes) - 1; i >= 0; i-- {
		n := t.Nodes[i]
		vd := make([]VD, len(n.Entries))
		visible := false
		for ei, e := range n.Entries {
			if n.Leaf {
				d := objDoV[e.ObjectID]
				vd[ei].DoV = d
				if d > 0 {
					vd[ei].NVO = 1
					visible = true
				}
			} else {
				cvd := perNode[e.ChildID]
				if cvd == nil {
					continue // invisible child: DoV 0, NVO 0
				}
				var sum float64
				var nvo int32
				for _, c := range cvd {
					sum += c.DoV
					nvo += c.NVO
				}
				vd[ei].DoV = sum
				vd[ei].NVO = nvo
				if sum > 0 {
					visible = true
				}
			}
		}
		if visible {
			perNode[i] = vd
		}
	}
	return perNode
}

// CheckVisDataInvariants verifies the three DoV attributes of §3.2 on a
// VisData field: non-negativity, the parent-sum property, and the
// visible-child property. Returns the first violation.
func (t *Tree) CheckVisDataInvariants(vis *VisData) error {
	// Walk cells in ID order, not map order, so which violation is
	// reported first is the same on every run.
	for c := 0; c < vis.Grid.NumCells(); c++ {
		cell := cells.CellID(c)
		perNode := vis.PerCell[cell]
		for id, vd := range perNode {
			if vd == nil {
				continue
			}
			n := t.Nodes[id]
			nodeVisible := false
			for ei, v := range vd {
				if v.DoV < 0 {
					return fmt.Errorf("cell %d node %d entry %d: negative DoV %v", cell, id, ei, v.DoV)
				}
				if v.DoV > 0 {
					nodeVisible = true
				}
				if n.Leaf {
					continue
				}
				cvd := perNode[n.Entries[ei].ChildID]
				var sum float64
				var nvo int32
				for _, c := range cvd {
					sum += c.DoV
					nvo += c.NVO
				}
				if diff := v.DoV - sum; diff > 1e-9 || diff < -1e-9 {
					return fmt.Errorf("cell %d node %d entry %d: DoV %v != child sum %v", cell, id, ei, v.DoV, sum)
				}
				if v.NVO != nvo {
					return fmt.Errorf("cell %d node %d entry %d: NVO %d != child sum %d", cell, id, ei, v.NVO, nvo)
				}
				if v.DoV > 0 && cvd == nil {
					return fmt.Errorf("cell %d node %d entry %d: visible entry with invisible child", cell, id, ei)
				}
			}
			if !nodeVisible {
				return fmt.Errorf("cell %d node %d: stored but entirely invisible", cell, id)
			}
		}
	}
	return nil
}
