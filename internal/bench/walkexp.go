package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/render"
	"repro/internal/review"
	"repro/internal/storage"
	"repro/internal/vstore"
	"repro/internal/walkthrough"
)

// visualPlayer builds the standard VISUAL player.
func visualPlayer(e *Env, eta float64) *walkthrough.VisualPlayer {
	return &walkthrough.VisualPlayer{
		Tree:   e.Tree,
		Eta:    eta,
		Delta:  true,
		Render: render.DefaultConfig(),
	}
}

// reviewPlayer builds the standard REVIEW player with the given box depth.
func reviewPlayer(e *Env, boxDepth float64) *walkthrough.ReviewPlayer {
	cfg := review.DefaultConfig()
	cfg.QueryBoxDepth = boxDepth
	return &walkthrough.ReviewPlayer{
		Sys:        review.New(e.Tree, cfg),
		Complement: true,
		Render:     render.DefaultConfig(),
	}
}

// printFrameSeries prints every k-th frame time of one or two traces side
// by side — the per-frame curves of Figure 10.
func printFrameSeries(w io.Writer, every int, traces ...*walkthrough.Result) {
	fmt.Fprintf(w, "%-8s", "frame")
	for _, t := range traces {
		fmt.Fprintf(w, "%-22s", t.System)
	}
	fmt.Fprintln(w)
	n := len(traces[0].Frames)
	for i := 0; i < n; i += every {
		fmt.Fprintf(w, "%-8d", i)
		for _, t := range traces {
			fmt.Fprintf(w, "%-22.2f", float64(t.Frames[i].Total)/float64(time.Millisecond))
		}
		fmt.Fprintln(w)
	}
}

func printTraceSummary(w io.Writer, traces ...*walkthrough.Result) {
	fmt.Fprintf(w, "\n%-24s %-14s %-12s %-10s %-10s %-10s %-12s\n",
		"system", "avg frame ms", "variance", "p95 ms", "worst ms", "queries", "peak mem")
	for _, t := range traces {
		fmt.Fprintf(w, "%-24s %-14.2f %-12.2f %-10.2f %-10.2f %-10d %-12s\n",
			t.System, t.AvgFrameTime(), t.VarFrameTime(),
			t.PercentileFrameTime(95), t.MaxFrameTime(), t.Queries, mb(t.PeakBytes))
	}
}

// RunFig10a reproduces Figure 10(a): per-frame time of VISUAL (eta=0.001)
// vs REVIEW (400 m boxes) on session 1. REVIEW is slower and "choppier" —
// taller query spikes.
func RunFig10a(w io.Writer, p Params) error {
	e := DefaultEnv(p)
	e.Tree.SetVStore(e.IV)
	s := walkthrough.RecordNormal(e.Scene, p.Frames, p.Seed)
	vres, err := visualPlayer(e, 0.001).Play(s)
	if err != nil {
		return err
	}
	rres, err := reviewPlayer(e, 400).Play(s)
	if err != nil {
		return err
	}
	printFrameSeries(w, maxi(p.Frames/40, 1), vres, rres)
	printTraceSummary(w, vres, rres)
	return nil
}

// RunFig10b reproduces Figure 10(b): VISUAL at eta=0.001 vs eta=0.0003 on
// the same session — the larger threshold gives up to ~20% faster frames.
func RunFig10b(w io.Writer, p Params) error {
	e := DefaultEnv(p)
	e.Tree.SetVStore(e.IV)
	s := walkthrough.RecordNormal(e.Scene, p.Frames, p.Seed)
	coarse, err := visualPlayer(e, 0.001).Play(s)
	if err != nil {
		return err
	}
	fine, err := visualPlayer(e, 0.0003).Play(s)
	if err != nil {
		return err
	}
	printFrameSeries(w, maxi(p.Frames/40, 1), coarse, fine)
	printTraceSummary(w, coarse, fine)
	fmt.Fprintf(w, "\nframe-rate advantage of eta=0.001 over eta=0.0003: %.1f%% (paper: up to 20%%)\n",
		100*(fine.AvgFrameTime()-coarse.AvgFrameTime())/fine.AvgFrameTime())
	return nil
}

// RunFig11 reproduces Figure 11 quantitatively: fidelity of REVIEW
// (200 m boxes) and VISUAL (eta=0.001) against the original models, as
// DoV-weighted coverage and missed-object counts, averaged over sampled
// viewpoints. REVIEW loses far objects; VISUAL covers everything with
// near-original fidelity.
func RunFig11(w io.Writer, p Params) error {
	e := DefaultEnv(p)
	e.Tree.SetVStore(e.IV)
	sys := review.New(e.Tree, func() review.Config {
		cfg := review.DefaultConfig()
		cfg.QueryBoxDepth = 200
		return cfg
	}())

	type agg struct {
		coverage, detail, missed float64
	}
	var rev, vis agg
	nViews := 8
	for i := 0; i < nViews; i++ {
		cell := cells.CellID((i*7 + 3) % e.Tree.Grid.NumCells())
		eye := e.Tree.Grid.SamplePoints(cell, 1)[0]
		look := geom.V(1, 0.2*float64(i%3-1), 0)
		truth := e.Engine.PointDoV(eye)

		rres, err := sys.Query(eye, look)
		if err != nil {
			return err
		}
		rf := render.Evaluate(e.Tree, rres.Items, truth)
		rev.coverage += rf.Coverage
		rev.detail += rf.DetailFidelity
		rev.missed += float64(rf.MissedObjects)

		hres, err := e.Tree.Query(cell, 0.001)
		if err != nil {
			return err
		}
		hf := render.Evaluate(e.Tree, hres.Items, truth)
		vis.coverage += hf.Coverage
		vis.detail += hf.DetailFidelity
		vis.missed += float64(hf.MissedObjects)
	}
	n := float64(nViews)
	fmt.Fprintf(w, "fidelity vs original models, averaged over %d viewpoints\n\n", nViews)
	fmt.Fprintf(w, "%-26s %-16s %-16s %-14s\n", "system", "DoV coverage", "detail fidelity", "missed objs")
	fmt.Fprintf(w, "%-26s %-16.3f %-16.3f %-14.1f\n", "original (all, full LoD)", 1.0, 1.0, 0.0)
	fmt.Fprintf(w, "%-26s %-16.3f %-16.3f %-14.1f\n", "REVIEW (200m boxes)", rev.coverage/n, rev.detail/n, rev.missed/n)
	fmt.Fprintf(w, "%-26s %-16.3f %-16.3f %-14.1f\n", "VISUAL (eta=0.001)", vis.coverage/n, vis.detail/n, vis.missed/n)

	if p.ImageDir != "" {
		if err := writeFig11Images(w, p, e, sys); err != nil {
			return err
		}
	}
	return nil
}

// writeFig11Images renders the three systems' answer sets from one street
// viewpoint and writes them as PGM files — the artifact form of the
// paper's Figure 11 screenshots: (a) original models, (b) REVIEW with its
// truncated boxes losing far objects, (c) VISUAL at eta=0.001.
func writeFig11Images(w io.Writer, p Params, e *Env, sys *review.System) error {
	if err := os.MkdirAll(p.ImageDir, 0o755); err != nil {
		return err
	}
	// Stand at a street intersection near the city edge looking down the
	// long street axis, so the view has both near and far (>200 m)
	// buildings — the geometry Figure 11 is about.
	sp := e.Scene.Params
	pitch := sp.BlockSize + sp.StreetWidth
	eye := geom.V(sp.StreetWidth/2+pitch, sp.StreetWidth/2+pitch, e.Scene.ViewRegion.Center().Z)
	cell := e.Tree.Grid.Locate(eye)
	if cell == cells.NoCell {
		cell = 0
		eye = e.Tree.Grid.SamplePoints(cell, 1)[0]
	}
	look := geom.V(1, 0.1, 0)
	cfg := render.DefaultViewConfig(eye, look)
	cfg.W, cfg.H = 480, 360

	// (a) original: every object at its finest LoD.
	var original []render.RenderItem
	for _, o := range e.Scene.Objects {
		original = append(original, render.RenderItem{ID: int32(o.ID), Mesh: o.LoDs.Finest()})
	}
	if err := writePGMFile(p.ImageDir, "fig11a_original.pgm", render.RenderView(cfg, original)); err != nil {
		return err
	}

	// (b) REVIEW answer set at its selected LoDs.
	rres, err := sys.Query(eye, look)
	if err != nil {
		return err
	}
	items, err := answerMeshes(e, rres.Items)
	if err != nil {
		return err
	}
	if err := writePGMFile(p.ImageDir, "fig11b_review.pgm", render.RenderView(cfg, items)); err != nil {
		return err
	}

	// (c) VISUAL answer set (objects + internal LoDs as retrieved).
	hres, err := e.Tree.Query(cell, 0.001)
	if err != nil {
		return err
	}
	items, err = answerMeshes(e, hres.Items)
	if err != nil {
		return err
	}
	if err := writePGMFile(p.ImageDir, "fig11c_visual.pgm", render.RenderView(cfg, items)); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwrote fig11{a,b,c}_*.pgm to %s\n", p.ImageDir)
	return nil
}

// answerMeshes decodes every item's payload mesh for rendering.
func answerMeshes(e *Env, items []core.ResultItem) ([]render.RenderItem, error) {
	out := make([]render.RenderItem, 0, len(items))
	for i, it := range items {
		m, err := e.Tree.LoadMesh(it)
		if err != nil {
			return nil, err
		}
		out = append(out, render.RenderItem{ID: int32(i), Mesh: m})
	}
	return out, nil
}

func writePGMFile(dir, name string, v *render.View) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := v.WritePGM(f); err != nil {
		return err
	}
	return f.Close()
}

// RunFig12 reproduces Figure 12: average search time (a) and I/O count (b)
// per query for the three motion-pattern sessions, VISUAL vs REVIEW.
func RunFig12(w io.Writer, p Params) error {
	e := DefaultEnv(p)
	e.Tree.SetVStore(e.IV)
	sessions := walkthrough.Sessions(e.Scene, p.Frames, p.Seed)
	fmt.Fprintf(w, "%-24s %-18s %-18s\n", "session", "VISUAL", "REVIEW")
	fmt.Fprintf(w, "(a) avg search time per query (ms)\n")
	type row struct{ vt, rt, vio, rio float64 }
	rows := make([]row, len(sessions))
	for i, s := range sessions {
		vres, err := visualPlayer(e, 0.001).Play(s)
		if err != nil {
			return err
		}
		rres, err := reviewPlayer(e, 400).Play(s)
		if err != nil {
			return err
		}
		rows[i] = row{vres.AvgQueryTime(), rres.AvgQueryTime(), vres.AvgQueryIO(), rres.AvgQueryIO()}
		fmt.Fprintf(w, "%-24s %-18.2f %-18.2f\n", s.Name, rows[i].vt, rows[i].rt)
	}
	fmt.Fprintf(w, "(b) avg I/O operations per query\n")
	for i, s := range sessions {
		fmt.Fprintf(w, "%-24s %-18.1f %-18.1f\n", s.Name, rows[i].vio, rows[i].rio)
	}
	return nil
}

// RunTable3 reproduces Table 3: average frame time and frame-time variance
// of session 1 across the paper's eta ladder, plus the REVIEW row (400 m
// boxes) and the peak-memory comparison.
func RunTable3(w io.Writer, p Params) error {
	e := DefaultEnv(p)
	e.Tree.SetVStore(e.IV)
	s := walkthrough.RecordNormal(e.Scene, p.Frames, p.Seed)
	etas := []float64{0, 0.00005, 0.0001, 0.0002, 0.0003, 0.0005, 0.001, 0.002, 0.004}
	fmt.Fprintf(w, "%-10s %-20s %-22s %-12s\n", "eta", "Avg Frame Time(ms)", "Variance of Frame Time", "peak mem")
	for _, eta := range etas {
		res, err := visualPlayer(e, eta).Play(s)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10g %-20.2f %-22.2f %-12s\n", eta, res.AvgFrameTime(), res.VarFrameTime(), mb(res.PeakBytes))
	}
	rres, err := reviewPlayer(e, 400).Play(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %-20.2f %-22.2f %-12s\n", "REVIEW", rres.AvgFrameTime(), rres.VarFrameTime(), mb(rres.PeakBytes))
	return nil
}

// RunAblations reports the design-choice studies D1-D5 of DESIGN.md §6.
func RunAblations(w io.Writer, p Params) error {
	e := DefaultEnv(p)
	e.Tree.SetVStore(e.IV)
	workload := queryWorkload(e, maxi(p.Queries/10, 100), p.Seed+300)

	// D1: threshold traversal vs eta=0 (no early termination).
	fmt.Fprintf(w, "D1: DoV-threshold traversal (eta=0.001) vs eta=0\n")
	for _, eta := range []float64{0, 0.001} {
		var simTime time.Duration
		var lio int64
		for _, cell := range workload {
			before := e.Disk.Stats()
			res, err := e.Tree.Query(cell, eta)
			if err != nil {
				return err
			}
			if _, err := e.Tree.FetchPayloads(res, nil); err != nil {
				return err
			}
			d := e.Disk.Stats().Sub(before)
			simTime += d.SimTime
			lio += d.LightReads + d.HeavyReads
		}
		fmt.Fprintf(w, "  eta=%-8g avg time %.2f ms, avg I/O %.1f\n", eta,
			float64(simTime)/float64(time.Millisecond)/float64(len(workload)),
			float64(lio)/float64(len(workload)))
	}

	// D2: equation-4 termination guard on/off: without it the answer may
	// carry more polygons than the visible children it replaces.
	fmt.Fprintf(w, "\nD2: termination heuristic (equation 4) on vs off (eta=0.004)\n")
	for _, disabled := range []bool{false, true} {
		e.Tree.DisableTerminationHeuristic = disabled
		var polys float64
		var stops int
		for _, cell := range workload {
			res, err := e.Tree.Query(cell, 0.004)
			if err != nil {
				e.Tree.DisableTerminationHeuristic = false
				return err
			}
			polys += res.Stats.TotalPolygons
			stops += res.Stats.EarlyStops
		}
		label := "on"
		if disabled {
			label = "off"
		}
		fmt.Fprintf(w, "  guard %-4s avg polygons %.0f, early stops %d\n",
			label, polys/float64(len(workload)), stops)
	}
	e.Tree.DisableTerminationHeuristic = false

	// D3: segment flip cost, vertical vs indexed-vertical. Page counts
	// tie for small trees (both segments fit one page), so the logical
	// flip volume — the O(N_node) vs O(N_vnode) claim of §4.3 — is
	// reported alongside.
	fmt.Fprintf(w, "\nD3: cell-flip cost, vertical vs indexed-vertical\n")
	var avgVnode float64
	for c := 0; c < e.Tree.Grid.NumCells(); c++ {
		avgVnode += float64(e.Vis.VisibleNodes(cells.CellID(c)))
	}
	avgVnode /= float64(e.Tree.Grid.NumCells())
	flipBytes := map[string]float64{
		"vertical":         8 * float64(e.Tree.NumNodes()),
		"indexed-vertical": 12 * avgVnode,
	}
	for _, sc := range []core.VStore{e.V, e.IV} {
		before := e.Disk.Stats()
		flips := 0
		for c := 0; c < e.Tree.Grid.NumCells(); c++ {
			if err := sc.SetCell(cells.CellID(c)); err != nil {
				return err
			}
			flips++
		}
		d := e.Disk.Stats().Sub(before)
		fmt.Fprintf(w, "  %-18s %.2f pages per flip (%.0f logical bytes)\n",
			sc.Name(), float64(d.LightReads)/float64(flips), flipBytes[sc.Name()])
	}

	// D4: delta search on/off over a revisit-heavy session.
	fmt.Fprintf(w, "\nD4: delta search on vs off (session 3, eta=0.001)\n")
	s3 := walkthrough.RecordBackForward(e.Scene, p.Frames, p.Seed+2)
	for _, delta := range []bool{true, false} {
		pl := visualPlayer(e, 0.001)
		pl.Delta = delta
		res, err := pl.Play(s3)
		if err != nil {
			return err
		}
		var heavy int64
		for _, f := range res.Frames {
			heavy += f.HeavyIO
		}
		fmt.Fprintf(w, "  delta=%-6v total heavy I/O %d pages, avg frame %.2f ms\n",
			delta, heavy, res.AvgFrameTime())
	}

	// D5: frustum-prioritized traversal (the paper's §6 future work):
	// in-view prefix mass vs plain depth-first ordering.
	fmt.Fprintf(w, "\nD5: frustum-prioritized traversal (future-work extension)\n")
	var plainMass, prioMass float64
	for i, cell := range workload[:minl(len(workload), 100)] {
		eye := e.Tree.Grid.SamplePoints(cell, 1)[0]
		look := geom.V(1, 0.3*float64(i%3-1), 0)
		f := geom.NewFrustum(eye, look, geom.V(0, 0, 1), 1.0472, 4.0/3, 0.5, 2000)
		plain, err := e.Tree.Query(cell, 0.001)
		if err != nil {
			return err
		}
		prio, err := e.Tree.QueryPrioritized(cell, 0.001, f)
		if err != nil {
			return err
		}
		plainMass += inViewPrefixMass(e, f, plain.Items)
		prioMass += inViewPrefixMass(e, f, prio.Items)
	}
	fmt.Fprintf(w, "  in-view prefix mass: plain %.0f, prioritized %.0f (higher = earlier in-view delivery)\n",
		plainMass, prioMass)

	// D6: an LRU buffer pool over index pages. The paper's prototype runs
	// uncached; this measures what a buffer manager would buy.
	fmt.Fprintf(w, "\nD6: index buffer pool off vs on (1024 pages, eta=0.001)\n")
	for _, cachePages := range []int{0, 1024} {
		e.Disk.SetCacheSize(cachePages)
		var simTime time.Duration
		var lio int64
		for _, cell := range workload {
			before := e.Disk.Stats()
			if _, err := e.Tree.Query(cell, 0.001); err != nil {
				e.Disk.SetCacheSize(0)
				return err
			}
			d := e.Disk.Stats().Sub(before)
			simTime += d.SimTime
			lio += d.LightReads
		}
		ps := e.Disk.PoolStats()
		fmt.Fprintf(w, "  cache=%-5d avg light I/O %.1f, avg time %.2f ms (hits %d, misses %d)\n",
			cachePages, float64(lio)/float64(len(workload)),
			float64(simTime)/float64(time.Millisecond)/float64(len(workload)), ps.Hits(), ps.Misses())
	}
	e.Disk.SetCacheSize(0)

	// D8: R-tree construction — incremental Ang–Tan insertion (the
	// paper's choice) vs STR bulk loading.
	fmt.Fprintf(w, "\nD8: R-tree backbone, incremental insertion vs STR bulk load\n")
	{
		ibp := core.DefaultBuildParams()
		ibp.Grid = e.Tree.Grid
		ibp.DirsPerViewpoint = 512
		ibp.SamplesPerCell = 1
		for _, bulk := range []bool{false, true} {
			ibp.BulkLoad = bulk
			d2 := storageNew()
			tr2, vis2, err := core.Build(e.Scene, d2, ibp)
			if err != nil {
				return err
			}
			iv2, err := buildIndexed(d2, vis2)
			if err != nil {
				return err
			}
			tr2.SetVStore(iv2)
			var lio int64
			short := workload[:minl(len(workload), 200)]
			for _, cell := range short {
				res, err := tr2.Query(cell, 0.001)
				if err != nil {
					return err
				}
				lio += res.Stats.LightIO
			}
			label := "insertion"
			if bulk {
				label = "bulk-load"
			}
			fmt.Fprintf(w, "  %-10s %d nodes, avg light I/O %.1f\n",
				label, tr2.NumNodes(), float64(lio)/float64(len(short)))
		}
	}

	return nil
}

// storageNew and buildIndexed keep the D8 ablation terse.
func storageNew() *storage.Disk {
	return storage.NewDisk(0, storage.DefaultCostModel())
}

func buildIndexed(d *storage.Disk, vis *core.VisData) (core.VStore, error) {
	return vstore.BuildIndexedVertical(d, vis, 0)
}

// inViewPrefixMass scores how early in-view items appear in an answer.
func inViewPrefixMass(e *Env, f geom.Frustum, items []core.ResultItem) float64 {
	var mass float64
	n := len(items)
	for i, it := range items {
		var b geom.AABB
		if it.ObjectID >= 0 {
			b = e.Scene.Object(it.ObjectID).MBR
		} else {
			b = geom.EmptyAABB()
			for _, en := range e.Tree.Nodes[it.NodeID].Entries {
				b = b.Union(en.MBR)
			}
		}
		if f.IntersectsAABB(b) {
			mass += float64(n - i)
		}
	}
	return mass
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minl(a, b int) int {
	if a < b {
		return a
	}
	return b
}
