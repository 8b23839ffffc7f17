package core

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/cells"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/scene"
	"repro/internal/visibility"
)

// Incremental scene maintenance (DESIGN.md §15). ApplyOps evolves a built
// HDoV-tree through a batch of insert/delete/move operations without
// rebuilding from scratch:
//
//   - the R-tree backbone is updated in place (Guttman insert/delete with
//     the same Ang–Tan splits a from-scratch evolution would perform, so
//     topology is deterministic and shared with the rebuild reference);
//   - internal LoDs are rebuilt only for nodes whose subtree changed —
//     every other node reuses the previous epoch's chain and on-disk
//     extents verbatim;
//   - per-cell DoV fields are re-cast only for viewing cells one of whose
//     sampling rays reaches a changed object's bounding box (old or new
//     position); untouched cells reuse their retained raw DoV;
//   - every page written is freshly allocated (the simulated disk is
//     append-only from the tree's perspective), so the previous epoch's
//     tree, payloads and V-pages remain fully readable: concurrent
//     sessions pinned to the old tree keep seeing a consistent snapshot.
//
// The correctness contract — enforced by the rebuild-differential harness
// in update_differential_test.go — is that the updated tree answers every
// query byte-identically (modulo on-disk addresses) to a tree built from
// scratch over the replayed scene with the same deterministically evolved
// backbone.

// UpdateStats reports what an ApplyOps call did, for tests and the
// dynupdate experiment.
type UpdateStats struct {
	// Ops is the number of operations applied.
	Ops int
	// TouchedCells is how many viewing cells had their DoV field re-cast;
	// TotalCells is the grid size. The difference is the cells served from
	// the retained raw field.
	TouchedCells int
	TotalCells   int
	// LoDReused / LoDRebuilt count nodes whose internal-LoD chain was
	// adopted from the previous epoch vs. re-simplified.
	LoDReused  int
	LoDRebuilt int
	// PagesAppended is the number of disk pages the update allocated.
	PagesAppended int64
}

// entrySig is the identity of one R-tree entry for the purposes of the
// internal-LoD cache: the child pointer (internal) or item ID (leaf) plus
// the exact MBR. Signatures are order-sensitive — mesh aggregation merges
// parts in entry order, so a reordered node must rebuild.
type entrySig struct {
	child *rtree.Node
	item  int64
	mbr   geom.AABB
}

// nodeSnap pairs a pre-update mirrored node with its entry signatures.
type nodeSnap struct {
	old *Node
	sig []entrySig
}

// ApplyOps applies ops to the tree and returns the next epoch's tree and
// visibility data. The receiver tree and vis are never mutated (beyond
// transferring the private R-tree backbone to the new epoch) and stay
// fully queryable; on error nothing observable has changed.
//
// vis may be nil (a reopened database): every cell is then recomputed
// once, exactly as a fresh build would, and the returned VisData carries
// raw DoV so subsequent updates localize.
//
// The caller owns republishing: building vstore schemes over the returned
// VisData and swapping sessions over to the new tree.
func ApplyOps(t *Tree, vis *VisData, ops []scene.Op) (*Tree, *VisData, []scene.OpEffect, *UpdateStats, error) {
	if t == nil || t.Scene == nil || t.Disk == nil {
		return nil, nil, nil, nil, fmt.Errorf("core: update: nil tree")
	}
	if len(ops) == 0 {
		return nil, nil, nil, nil, fmt.Errorf("core: update: empty op batch")
	}
	stats := &UpdateStats{Ops: len(ops)}
	pagesBefore := t.Disk.NumPages()

	if err := t.ensureRTree(); err != nil {
		return nil, nil, nil, nil, err
	}

	// Snapshot entry signatures BEFORE mutating the backbone: the cache
	// compares post-update entries against what each surviving R-tree node
	// looked like in the previous epoch.
	oldSnap := make(map[*rtree.Node]*nodeSnap, len(t.bb.nodes))
	for i, rn := range t.bb.nodes {
		sig := make([]entrySig, len(rn.Entries))
		for j := range rn.Entries {
			e := &rn.Entries[j]
			sig[j] = entrySig{child: e.Child, item: e.ItemID, mbr: e.MBR}
		}
		oldSnap[rn] = &nodeSnap{old: t.Nodes[i], sig: sig}
	}

	// Apply the ops: copy-on-write scene evolution plus the deterministic
	// R-tree op sequence the rebuild reference replays.
	sc2 := t.Scene.CloneShell()
	effects := make([]scene.OpEffect, 0, len(ops))
	rt := t.bb.rt
	fail := func(err error) (*Tree, *VisData, []scene.OpEffect, *UpdateStats, error) {
		// The backbone diverged from the mirror mid-batch; drop it so the
		// next update reconstructs the pre-batch state from the mirror.
		t.bb.rt, t.bb.nodes = nil, nil
		return nil, nil, nil, nil, err
	}
	for i, op := range ops {
		eff, err := sc2.ApplyOp(op)
		if err != nil {
			return fail(fmt.Errorf("core: update op %d: %w", i, err))
		}
		switch eff.Kind {
		case scene.OpInsert:
			rt.Insert(eff.NewMBR, eff.ObjectID)
		case scene.OpDelete:
			if !rt.Delete(eff.OldMBR, eff.ObjectID) {
				return fail(fmt.Errorf("core: update op %d: object %d not in R-tree", i, eff.ObjectID))
			}
		case scene.OpMove:
			if !rt.Delete(eff.OldMBR, eff.ObjectID) {
				return fail(fmt.Errorf("core: update op %d: object %d not in R-tree", i, eff.ObjectID))
			}
			rt.Insert(eff.NewMBR, eff.ObjectID)
		}
		effects = append(effects, eff)
	}
	if rt.Len() != sc2.NumAlive() {
		return fail(fmt.Errorf("core: update: R-tree has %d items, scene has %d alive", rt.Len(), sc2.NumAlive()))
	}

	// The backbone now belongs to the next epoch; the old tree keeps its
	// mirror (its queryable structure) but loses the live rt. Only holder
	// contents change — the Tree struct itself stays frozen, so sessions
	// being created off the old tree right now copy a stable struct.
	t.bb.rt, t.bb.nodes = nil, nil

	// Next epoch's tree shell. Grid, disk and params carry over; the shed
	// policy slot is shared so a policy flip reaches both epochs.
	p := t.Params
	p.Grid = t.Grid
	p = normalizeBuildParams(sc2, p)
	t2 := &Tree{
		Scene:                       sc2,
		Grid:                        p.Grid,
		Disk:                        t.Disk,
		Params:                      p,
		IO:                          t.Disk.NewClient(),
		bb:                          &backbone{rt: rt},
		DisableTerminationHeuristic: t.DisableTerminationHeuristic,
		FaultTolerant:               t.FaultTolerant,
		shed:                        t.shed,
	}
	t2.mirror(rt)

	// Internal LoDs: reuse chains for nodes whose subtree provably did not
	// change. Cleanliness is bottom-up: a node is clean iff its R-tree node
	// survived with identical entries (same children/items, same MBRs, same
	// order) and every child is clean. Children have higher preorder IDs,
	// so a reverse-ID scan resolves child cleanliness first — the same
	// order buildInternalLoDs consumes the answers in.
	clean := make([]bool, len(t2.Nodes))
	for i := len(t2.Nodes) - 1; i >= 0; i-- {
		rn := t2.bb.nodes[i]
		snap := oldSnap[rn]
		if snap == nil || len(snap.sig) != len(rn.Entries) {
			continue
		}
		ok := true
		for j := range rn.Entries {
			e := &rn.Entries[j]
			s := snap.sig[j]
			if e.Child != s.child || e.ItemID != s.item || e.MBR != s.mbr {
				ok = false
				break
			}
			if !t2.Nodes[i].Leaf && !clean[t2.Nodes[i].Entries[j].ChildID] {
				ok = false
				break
			}
		}
		clean[i] = ok
	}
	err := t2.buildInternalLoDs(func(n *Node) *Node {
		if clean[n.ID] {
			stats.LoDReused++
			return oldSnap[t2.bb.nodes[n.ID]].old
		}
		stats.LoDRebuilt++
		return nil
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}

	t2.RhoMeasured = measureRho(sc2)

	// Object payloads: unchanged objects (and tombstones — their geometry
	// is frozen) keep their extents; inserted and moved objects get fresh
	// pages.
	t2.ObjExtents = make([][]Extent, len(sc2.Objects))
	for id, o := range sc2.Objects {
		if id < len(t.ObjExtents) && (o.Dead || t.Scene.Objects[id] == o) {
			t2.ObjExtents[id] = t.ObjExtents[id]
			continue
		}
		exts, werr := t2.writeObjectPayload(o)
		if werr != nil {
			return nil, nil, nil, nil, werr
		}
		t2.ObjExtents[id] = exts
	}

	// Node records are always rewritten: preorder IDs shift under any
	// topology change and the records are small.
	if err := t2.writeNodeRecords(); err != nil {
		return nil, nil, nil, nil, err
	}
	if err := t2.CheckStructure(); err != nil {
		return nil, nil, nil, nil, fmt.Errorf("core: update: %w", err)
	}
	if err := rt.CheckInvariants(); err != nil {
		return nil, nil, nil, nil, fmt.Errorf("core: update: %w", err)
	}

	// Visibility: localized re-cast.
	changed := changedBoxes(effects)
	vis2, err := t2.updateVisibility(vis, changed, stats)
	if err != nil {
		return nil, nil, nil, nil, err
	}

	stats.PagesAppended = int64(t.Disk.NumPages() - pagesBefore)
	return t2, vis2, effects, stats, nil
}

// ensureRTree reconstructs the live R-tree backbone from the node mirror
// when the tree was reopened from disk. The mirror preserves structure,
// entry order and MBRs exactly, so the adopted backbone evolves bit-
// identically to the one that was live when the database was saved.
func (t *Tree) ensureRTree() error {
	if t.bb == nil {
		t.bb = &backbone{}
	}
	if t.bb.rt != nil {
		return nil
	}
	rnodes := make([]*rtree.Node, len(t.Nodes))
	for i := len(t.Nodes) - 1; i >= 0; i-- {
		n := t.Nodes[i]
		rn := &rtree.Node{Leaf: n.Leaf, Entries: make([]rtree.Entry, len(n.Entries))}
		for j, e := range n.Entries {
			if n.Leaf {
				rn.Entries[j] = rtree.Entry{MBR: e.MBR, ItemID: e.ObjectID}
			} else {
				rn.Entries[j] = rtree.Entry{MBR: e.MBR, Child: rnodes[e.ChildID]}
			}
		}
		rnodes[i] = rn
	}
	rt, err := rtree.Adopt(rnodes[0], t.Params.FanoutMin, t.Params.FanoutMax)
	if err != nil {
		return fmt.Errorf("core: update: %w", err)
	}
	t.bb.rt = rt
	t.bb.nodes = rnodes
	return nil
}

// changedBoxes collects the bounding boxes whose contents changed: old and
// new positions of every affected object, empties dropped.
func changedBoxes(effects []scene.OpEffect) []geom.AABB {
	var boxes []geom.AABB
	for _, e := range effects {
		if !e.OldMBR.IsEmpty() {
			boxes = append(boxes, e.OldMBR)
		}
		if !e.NewMBR.IsEmpty() {
			boxes = append(boxes, e.NewMBR)
		}
	}
	return boxes
}

// updateVisibility recomputes the per-cell DoV fields after a scene
// change. A cell whose sampling rays reach none of the changed boxes keeps
// its retained raw DoV (zero-extended for inserted objects — by
// construction their DoV there is exactly zero); every other cell is
// re-cast with a fresh engine over the new scene. Quantization and
// aggregation rerun for every cell either way, because both depend on the
// (possibly shifted) tree topology. The result is bit-identical to a
// from-scratch precompute: an untouched cell's rays attribute to the same
// nearest occluders at the same distances, since no changed geometry lies
// on any of them and hit distances are never range-clipped (maxDist is the
// scene diameter, which only grows).
func (t *Tree) updateVisibility(oldVis *VisData, changed []geom.AABB, stats *UpdateStats) (*VisData, error) {
	grid := t.Grid
	stats.TotalCells = grid.NumCells()
	if t.Params.UseItemBuffer || oldVis == nil || oldVis.RawDoV == nil {
		// No retained raw field to localize against (or the rasterizer
		// backend, whose fields are not per-object ray attributions):
		// recompute everything, exactly as a fresh build would.
		stats.TouchedCells = grid.NumCells()
		return t.precomputeVisibility(), nil
	}

	eng := visibility.NewEngine(t.Scene, t.Params.DirsPerViewpoint)
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
	type cellResult struct {
		cell    cells.CellID
		vd      [][]VD
		shift   uint8
		raw     []float64
		touched bool
	}
	jobs := make(chan cells.CellID)
	results := make(chan cellResult)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cell := range jobs {
				samples := grid.SamplePoints(cell, t.Params.SamplesPerCell)
				oldRaw := oldVis.RawDoV[cell]
				touched := oldRaw == nil
				for _, box := range changed {
					if touched {
						break
					}
					if eng.AnyRayHitsBox(samples, box) {
						touched = true
					}
				}
				var raw []float64
				if touched {
					raw = eng.RegionDoV(samples)
				} else {
					raw = make([]float64, len(t.Scene.Objects))
					copy(raw, oldRaw)
				}
				vd, shift := t.quantizeCell(raw, t.Params.DoVQuantBits, t.Params.QuantSafeEtas)
				results <- cellResult{cell: cell, vd: vd, shift: shift, raw: raw, touched: touched}
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
		if r.touched {
			stats.TouchedCells++
		}
	}
	return vis, nil
}
