package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/cells"
	"repro/internal/vstore"
)

// RunTable2 reproduces Table 2: the storage space of the three schemes.
// Paper: horizontal 4 GB, vertical 267 MB, indexed-vertical 152.8 MB — the
// shapes to reproduce are horizontal ≫ vertical > indexed-vertical, with
// horizontal roughly an order of magnitude beyond the others.
func RunTable2(w io.Writer, p Params) error {
	e := DefaultEnv(p)
	fmt.Fprintf(w, "dataset: %d objects, %d nodes, %d cells, nominal raw size %s\n",
		len(e.Scene.Objects), e.Tree.NumNodes(), e.Tree.Grid.NumCells(), mb(e.Scene.NominalRawBytes()))
	fmt.Fprintf(w, "avg visible nodes per cell (N_vnode): %.1f of %d (N_node)\n\n",
		e.Vis.AvgVisibleNodes(), e.Tree.NumNodes())
	fmt.Fprintf(w, "%-18s %-14s\n", "Storage Scheme", "Size")
	fmt.Fprintf(w, "%-18s %-14s\n", "Horizontal", mb(e.H.SizeBytes()))
	fmt.Fprintf(w, "%-18s %-14s\n", "Vertical", mb(e.V.SizeBytes()))
	fmt.Fprintf(w, "%-18s %-14s\n", "Indexed-vertical", mb(e.IV.SizeBytes()))
	fmt.Fprintf(w, "\nhorizontal / indexed-vertical ratio: %.1fx (paper: ~26x)\n",
		float64(e.H.SizeBytes())/float64(e.IV.SizeBytes()))
	return nil
}

// queryWorkload returns a deterministic sequence of query cells emulating
// "random viewpoint positions obtained from the precomputed cells".
func queryWorkload(e *Env, n int, seed int64) []cells.CellID {
	rng := rand.New(rand.NewSource(seed))
	out := make([]cells.CellID, n)
	for i := range out {
		out[i] = cells.CellID(rng.Intn(e.Tree.Grid.NumCells()))
	}
	return out
}

// sweepResult is one (scheme, eta) measurement of Figures 7 and 8.
type sweepResult struct {
	avgTimeMS  float64
	avgTotalIO float64
	avgLightIO float64
}

// runHDoVSweep measures the HDoV-tree under one scheme for each eta,
// including payload retrieval ("the loading time of these objects"), which
// is what makes Figure 7 fall with eta.
func runHDoVSweep(e *Env, scheme vstore.Layout, etas []float64, workload []cells.CellID) ([]sweepResult, error) {
	e.Tree.SetVStore(scheme)
	out := make([]sweepResult, len(etas))
	for i, eta := range etas {
		var simTime time.Duration
		var total, light int64
		for _, cell := range workload {
			before := e.Disk.Stats()
			res, err := e.Tree.Query(cell, eta)
			if err != nil {
				return nil, err
			}
			if _, err := e.Tree.FetchPayloads(res, nil); err != nil {
				return nil, err
			}
			d := e.Disk.Stats().Sub(before)
			simTime += d.SimTime
			total += d.LightReads + d.HeavyReads
			light += d.LightReads
		}
		n := float64(len(workload))
		out[i] = sweepResult{
			avgTimeMS:  float64(simTime) / float64(time.Millisecond) / n,
			avgTotalIO: float64(total) / n,
			avgLightIO: float64(light) / n,
		}
	}
	return out, nil
}

// runNaiveSweep measures the naive baseline (constant in eta).
func runNaiveSweep(e *Env, workload []cells.CellID) (sweepResult, error) {
	var simTime time.Duration
	var total, light int64
	for _, cell := range workload {
		before := e.Disk.Stats()
		res, err := e.Naive.Query(cell)
		if err != nil {
			return sweepResult{}, err
		}
		if _, err := e.Naive.FetchPayloads(res, nil); err != nil {
			return sweepResult{}, err
		}
		d := e.Disk.Stats().Sub(before)
		simTime += d.SimTime
		total += d.LightReads + d.HeavyReads
		light += d.LightReads
	}
	n := float64(len(workload))
	return sweepResult{
		avgTimeMS:  float64(simTime) / float64(time.Millisecond) / n,
		avgTotalIO: float64(total) / n,
		avgLightIO: float64(light) / n,
	}, nil
}

// RunFig7 reproduces Figure 7: average search time (query + model loading)
// per visibility query as eta varies, for the three storage schemes and
// the naive method. Shapes: all HDoV curves fall with eta; horizontal is
// the slowest scheme; vertical ≈ indexed-vertical (indexed marginally
// better); eta=0 ≈ naive.
func RunFig7(w io.Writer, p Params) error {
	e := DefaultEnv(p)
	workload := queryWorkload(e, p.Queries, p.Seed+100)
	hres, err := runHDoVSweep(e, e.H, p.Etas, workload)
	if err != nil {
		return err
	}
	vres, err := runHDoVSweep(e, e.V, p.Etas, workload)
	if err != nil {
		return err
	}
	ivres, err := runHDoVSweep(e, e.IV, p.Etas, workload)
	if err != nil {
		return err
	}
	nres, err := runNaiveSweep(e, workload)
	if err != nil {
		return err
	}
	e.Tree.SetVStore(e.IV)
	fmt.Fprintf(w, "%d visibility queries at random viewpoints; avg search time (ms)\n\n", p.Queries)
	fmt.Fprintf(w, "%-10s %-12s %-12s %-12s %-12s\n", "eta", "horizontal", "vertical", "indexed-v", "naive")
	for i, eta := range p.Etas {
		fmt.Fprintf(w, "%-10g %-12.2f %-12.2f %-12.2f %-12.2f\n",
			eta, hres[i].avgTimeMS, vres[i].avgTimeMS, ivres[i].avgTimeMS, nres.avgTimeMS)
	}
	return nil
}

// RunFig8a reproduces Figure 8(a): average number of disk I/Os per query
// including model data, for the indexed-vertical scheme vs naive. HDoV
// falls with eta and stays below naive.
func RunFig8a(w io.Writer, p Params) error {
	e := DefaultEnv(p)
	workload := queryWorkload(e, p.Queries, p.Seed+100)
	ivres, err := runHDoVSweep(e, e.IV, p.Etas, workload)
	if err != nil {
		return err
	}
	nres, err := runNaiveSweep(e, workload)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "avg disk I/Os per query (nodes + V-pages + model data)\n\n")
	fmt.Fprintf(w, "%-10s %-14s %-14s\n", "eta", "HDoV(idx-v)", "naive")
	for i, eta := range p.Etas {
		fmt.Fprintf(w, "%-10g %-14.1f %-14.1f\n", eta, ivres[i].avgTotalIO, nres.avgTotalIO)
	}
	return nil
}

// RunFig8b reproduces Figure 8(b): light-weight I/O (nodes and V-pages
// only). At very small eta HDoV pays extra internal-node I/O and sits
// above naive; the curves cross as eta grows.
func RunFig8b(w io.Writer, p Params) error {
	e := DefaultEnv(p)
	workload := queryWorkload(e, p.Queries, p.Seed+100)
	ivres, err := runHDoVSweep(e, e.IV, p.Etas, workload)
	if err != nil {
		return err
	}
	nres, err := runNaiveSweep(e, workload)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "avg light-weight I/Os per query (tree nodes + V-pages, no model data)\n\n")
	fmt.Fprintf(w, "%-10s %-14s %-14s\n", "eta", "HDoV(idx-v)", "naive")
	for i, eta := range p.Etas {
		fmt.Fprintf(w, "%-10g %-14.1f %-14.1f\n", eta, ivres[i].avgLightIO, nres.avgLightIO)
	}
	return nil
}

// fig9Datasets defines the Figure 9 dataset series: the paper's 400 MB to
// 1.6 GB axis, realized as cities whose object count grows with the
// nominal size (object count scales with blocks squared). The viewing-cell
// grid scales with the city so cell size — and hence the per-cell visible
// set — stays constant, as with the paper's fixed, pre-determined cells.
func fig9Datasets(p Params) []struct {
	label   string
	blocks  int
	grid    int
	nominal int64
} {
	base := p.CityBlocks
	g := func(blocks int) int { return p.GridCells * blocks / base }
	return []struct {
		label   string
		blocks  int
		grid    int
		nominal int64
	}{
		{"400MB", base, g(base), 400 << 20},
		{"800MB", base * 4 / 3, g(base * 4 / 3), 800 << 20},
		{"1.2GB", base * 5 / 3, g(base * 5 / 3), 1200 << 20},
		{"1.6GB", base * 2, g(base * 2), 1600 << 20},
	}
}

// RunFig9 reproduces Figure 9: traversal-only search time and I/O per
// query over growing datasets. The paper reports near-flat curves: "the
// average response time and I/O cost increases only marginally with
// increasing dataset sizes."
func RunFig9(w io.Writer, p Params) error {
	fmt.Fprintf(w, "%d traversal-only queries per dataset (model retrieval excluded)\n\n", p.ScalQueries)
	fmt.Fprintf(w, "%-8s %-9s %-8s %-14s %-12s\n", "dataset", "objects", "nodes", "avg time (ms)", "avg I/Os")
	eta := 0.001
	for _, ds := range fig9Datasets(p) {
		e := BuildEnv(p, ds.blocks, ds.grid, ds.nominal)
		e.Tree.SetVStore(e.IV)
		workload := queryWorkload(e, p.ScalQueries, p.Seed+200)
		var simTime time.Duration
		var io64 int64
		for _, cell := range workload {
			before := e.Disk.Stats()
			if _, err := e.Tree.Query(cell, eta); err != nil {
				return err
			}
			d := e.Disk.Stats().Sub(before)
			simTime += d.SimTime
			io64 += d.LightReads
		}
		n := float64(p.ScalQueries)
		fmt.Fprintf(w, "%-8s %-9d %-8d %-14.2f %-12.1f\n",
			ds.label, len(e.Scene.Objects), e.Tree.NumNodes(),
			float64(simTime)/float64(time.Millisecond)/n, float64(io64)/n)
	}
	return nil
}
