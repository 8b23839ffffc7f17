package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sync"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/rtree"
	"repro/internal/scene"
	"repro/internal/storage"
	"repro/internal/vstore"
)

// The dynupdate experiment measures the incremental scene-maintenance
// machinery (DESIGN.md §15) on a seeded insert/delete/move workload:
// ApplyOps evolves the tree batch by batch, the three V-page schemes are
// re-laid over the new visibility data after each batch (what DB.Update
// does), and three locality figures are recorded:
//
//	touched-cell fraction — viewing cells whose DoV field was re-cast,
//	                        over the grid size; the rest answered from
//	                        the retained raw field
//	LoD reuse rate        — internal-LoD chains adopted from the previous
//	                        epoch, over all internal nodes visited
//	pages per batch       — simulated-disk pages appended per batch,
//	                        V-page rebuilds included
//
// The headline is the write-cost comparison against the rebuild
// reference of the differential gate: replaying the whole op log from
// scratch (same deterministic R-tree evolution, everything downstream
// rebuilt fresh) costs RebuildPages; the incremental path pays
// PagesPerBatch per batch instead. Their ratio is WriteSavings — the
// figure that justifies maintaining the tree online at all. Everything
// runs on a private simulated disk from a seeded workload, so every
// metric of the committed BENCH_dynupdate.json is exact.

// The workload shape and the gates the experiment must hold: updates
// must localize (most cells untouched, most LoD chains reused) and a
// batch must cost well under a from-scratch rebuild.
const (
	dynBatches     = 8
	dynOpsPerBatch = 6
	dynSeedOffset  = 300

	dynTouchedGate = 0.90 // mean touched-cell fraction stays below
	dynReuseGate   = 0.50 // mean LoD reuse rate stays above
	dynSavingsGate = 2.0  // rebuild pages / pages per batch stays above
)

var (
	dynMu    sync.Mutex
	dynCache = map[string]*Reference{}
)

// dynWorkloadTag extends the dataset tag with the update-workload shape.
func dynWorkloadTag(p Params) string {
	return fmt.Sprintf("%s-dynb%d-ops%d", workloadTag(p), dynBatches, dynOpsPerBatch)
}

// genDynOps generates the seeded update workload: ~35% inserts
// (procedural blobs dropped inside the view region), ~25% deletes and
// ~40% moves of live objects, with alive-set bookkeeping so every op is
// valid when applied in order (the same mix the differential suite
// replays).
func genDynOps(seed int64, sc *scene.Scene, n int) []scene.Op {
	rng := rand.New(rand.NewSource(seed))
	alive := make([]int64, 0, len(sc.Objects))
	for _, o := range sc.Objects {
		if !o.Dead {
			alive = append(alive, o.ID)
		}
	}
	nextID := int64(len(sc.Objects))
	lo, hi := sc.ViewRegion.Min, sc.ViewRegion.Max
	ops := make([]scene.Op, 0, n)
	for len(ops) < n {
		r := rng.Float64()
		switch {
		case r < 0.35 || len(alive) <= 4:
			ops = append(ops, scene.Op{Kind: scene.OpInsert, Insert: &scene.InsertSpec{
				Seed:   rng.Int63(),
				X:      lo.X + 2 + rng.Float64()*(hi.X-lo.X-4),
				Y:      lo.Y + 2 + rng.Float64()*(hi.Y-lo.Y-4),
				Radius: 1 + 2*rng.Float64(),
			}})
			alive = append(alive, nextID)
			nextID++
		case r < 0.60:
			i := rng.Intn(len(alive))
			ops = append(ops, scene.Op{Kind: scene.OpDelete, ID: alive[i]})
			alive[i] = alive[len(alive)-1]
			alive = alive[:len(alive)-1]
		default:
			dx := (rng.Float64()*2 - 1) * 8
			dy := (rng.Float64()*2 - 1) * 8
			if dx == 0 && dy == 0 {
				dx = 1
			}
			ops = append(ops, scene.Op{Kind: scene.OpMove, ID: alive[rng.Intn(len(alive))], DX: dx, DY: dy})
		}
	}
	return ops
}

// dynSchemes lays the three raw-layout schemes over vis on d — the
// per-epoch republish work DB.Update performs — and returns the
// indexed-vertical store for the tree to answer from.
func dynSchemes(d *storage.Disk, vis *core.VisData) (*vstore.IndexedVertical, error) {
	if _, err := vstore.BuildHorizontalOpts(d, vis, vstore.Options{}); err != nil {
		return nil, err
	}
	if _, err := vstore.BuildVerticalOpts(d, vis, vstore.Options{}); err != nil {
		return nil, err
	}
	return vstore.BuildIndexedVerticalOpts(d, vis, vstore.Options{})
}

// dynRebuildPages prices the alternative to incremental maintenance:
// replay the op log from scratch — same deterministic R-tree evolution
// as the incremental path, everything downstream rebuilt fresh on a
// fresh disk — and return the pages written.
func dynRebuildPages(baseSc *scene.Scene, bp core.BuildParams, ops []scene.Op) (int64, error) {
	sc2 := baseSc.CloneShell()
	rt := rtree.New(bp.FanoutMin, bp.FanoutMax)
	for _, o := range baseSc.Objects {
		if !o.Dead {
			rt.Insert(o.MBR, o.ID)
		}
	}
	for i, op := range ops {
		eff, err := sc2.ApplyOp(op)
		if err != nil {
			return 0, fmt.Errorf("replay op %d: %w", i, err)
		}
		switch eff.Kind {
		case scene.OpInsert:
			rt.Insert(eff.NewMBR, eff.ObjectID)
		case scene.OpDelete:
			if !rt.Delete(eff.OldMBR, eff.ObjectID) {
				return 0, fmt.Errorf("replay op %d: object %d not in R-tree", i, eff.ObjectID)
			}
		case scene.OpMove:
			if !rt.Delete(eff.OldMBR, eff.ObjectID) {
				return 0, fmt.Errorf("replay op %d: object %d not in R-tree", i, eff.ObjectID)
			}
			rt.Insert(eff.NewMBR, eff.ObjectID)
		}
	}
	d2 := storage.NewDisk(0, storage.DefaultCostModel())
	_, vis2, err := core.BuildFromRTree(sc2, d2, bp, rt)
	if err != nil {
		return 0, err
	}
	if _, err := dynSchemes(d2, vis2); err != nil {
		return 0, err
	}
	return d2.NumPages(), nil
}

// collectDynUpdate builds a dedicated database (updates consume the
// tree's backbone, so the shared Env cache is off limits), evolves it
// through the seeded workload batch by batch, and prices the rebuild
// alternative. It records per batch the ops applied, the touched and
// total viewing cells, the LoD chains reused and rebuilt, and the pages
// appended (scheme rebuilds included); then the means over batches of
// the touched-cell fraction and LoD reuse rate, the mean pages per
// batch, the pages a from-scratch rebuild over the final op log costs on
// a fresh disk, and their ratio, the write savings. Results are cached
// per workload tag: the run and guard paths share one measurement.
func collectDynUpdate(p Params) (*Reference, error) {
	tag := dynWorkloadTag(p)
	dynMu.Lock()
	defer dynMu.Unlock()
	if r, ok := dynCache[tag]; ok {
		return r, nil
	}

	cp := scene.DefaultCityParams()
	cp.Seed = p.Seed
	cp.BlocksX, cp.BlocksY = p.CityBlocks, p.CityBlocks
	cp.BlobDetail = 10
	cp.NominalBytes = p.NominalBytes
	sc := scene.Generate(cp)

	d := storage.NewDisk(0, storage.DefaultCostModel())
	bp := core.DefaultBuildParams()
	bp.Grid = cells.NewGrid(sc.ViewRegion, p.GridCells, p.GridCells)
	bp.DirsPerViewpoint = p.Dirs
	bp.SamplesPerCell = p.Samples
	tr, vis, err := core.Build(sc, d, bp)
	if err != nil {
		return nil, fmt.Errorf("bench: dynupdate build: %w", err)
	}

	ops := genDynOps(p.Seed+dynSeedOffset, sc, dynBatches*dynOpsPerBatch)
	r := newReference("dynupdate", tag)
	var touched, reuse float64
	var pages int64
	for b := 0; b < dynBatches; b++ {
		batch := ops[b*dynOpsPerBatch : (b+1)*dynOpsPerBatch]
		before := d.NumPages()
		var st *core.UpdateStats
		tr, vis, _, st, err = core.ApplyOps(tr, vis, batch)
		if err != nil {
			return nil, fmt.Errorf("bench: dynupdate batch %d: %w", b, err)
		}
		iv, err := dynSchemes(d, vis)
		if err != nil {
			return nil, fmt.Errorf("bench: dynupdate batch %d schemes: %w", b, err)
		}
		tr.SetVStore(iv)
		appended := d.NumPages() - before
		prefix := fmt.Sprintf("batch=%d/", b+1)
		r.exact(prefix+"ops", "ops", float64(st.Ops))
		r.exact(prefix+"touched_cells", "cells", float64(st.TouchedCells))
		r.exact(prefix+"total_cells", "cells", float64(st.TotalCells))
		r.exact(prefix+"lod_reused", "chains", float64(st.LoDReused))
		r.exact(prefix+"lod_rebuilt", "chains", float64(st.LoDRebuilt))
		r.exact(prefix+"pages_appended", "pages", float64(appended))
		touched += float64(st.TouchedCells) / float64(st.TotalCells)
		if n := st.LoDReused + st.LoDRebuilt; n > 0 {
			reuse += float64(st.LoDReused) / float64(n)
		}
		pages += appended
	}
	perBatch := float64(pages) / dynBatches
	rebuild, err := dynRebuildPages(sc, bp, ops)
	if err != nil {
		return nil, fmt.Errorf("bench: dynupdate rebuild reference: %w", err)
	}
	var savings float64
	if perBatch > 0 {
		savings = float64(rebuild) / perBatch
	}
	r.exact("touched_cell_frac", "frac", touched/dynBatches)
	r.exact("lod_reuse_rate", "frac", reuse/dynBatches)
	r.exact("pages_per_batch", "pages", perBatch)
	r.exact("rebuild_pages", "pages", float64(rebuild))
	r.exact("write_savings", "x", savings)
	dynCache[tag] = r
	return r, nil
}

// checkDynUpdate holds the three gates: updates localize in the viewing
// grid, reuse dominates LoD work, and a batch costs well under a
// from-scratch rebuild.
func checkDynUpdate(cur, _ *Reference) []Claim {
	touched, reuse, savings := cur.value("touched_cell_frac"), cur.value("lod_reuse_rate"), cur.value("write_savings")
	return []Claim{
		claim(touched < dynTouchedGate, "touched-cell fraction %.2f (claim: < %.2f)", touched, dynTouchedGate),
		claim(reuse > dynReuseGate, "LoD reuse rate %.2f (claim: > %.2f)", reuse, dynReuseGate),
		claim(savings > dynSavingsGate, "write savings %.1fx (claim: > %.1fx)", savings, dynSavingsGate),
	}
}

// RunDynUpdate prints the per-batch locality table and verdicts the
// gates.
func RunDynUpdate(w io.Writer, p Params) error {
	r, err := collectDynUpdate(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d batches x %d ops (insert/delete/move), schemes re-laid per batch\n\n",
		dynBatches, dynOpsPerBatch)
	fmt.Fprintf(w, "%-7s %-6s %-14s %-16s %-10s\n",
		"batch", "ops", "cells touched", "LoD reuse/total", "pages")
	for b := 1; b <= dynBatches; b++ {
		v := func(m string) float64 { return r.value(fmt.Sprintf("batch=%d/%s", b, m)) }
		fmt.Fprintf(w, "%-7d %-6.0f %3.0f / %-8.0f %5.0f / %-8.0f %-10.0f\n",
			b, v("ops"), v("touched_cells"), v("total_cells"),
			v("lod_reused"), v("lod_reused")+v("lod_rebuilt"), v("pages_appended"))
	}
	fmt.Fprintf(w, "\nmean touched-cell fraction: %.2f  mean LoD reuse rate: %.2f\n",
		r.value("touched_cell_frac"), r.value("lod_reuse_rate"))
	fmt.Fprintf(w, "pages per batch: %.0f  from-scratch rebuild: %.0f  write savings: %.1fx\n",
		r.value("pages_per_batch"), r.value("rebuild_pages"), r.value("write_savings"))
	return verdicts(w, "dynupdate", checkDynUpdate(r, nil))
}
