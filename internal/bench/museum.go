package bench

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/naive"
	"repro/internal/review"
	"repro/internal/scene"
	"repro/internal/storage"
	"repro/internal/visibility"
	"repro/internal/vstore"
	"repro/internal/walkthrough"
)

var (
	museumMu  sync.Mutex
	museumEnv *Env
)

// buildMuseumEnv constructs (once) the indoor environment for the museum
// experiment.
func buildMuseumEnv(p Params) *Env {
	museumMu.Lock()
	defer museumMu.Unlock()
	if museumEnv != nil {
		return museumEnv
	}
	mp := scene.DefaultMuseumParams()
	mp.Seed = p.Seed
	mp.NominalBytes = p.NominalBytes / 2
	sc := scene.GenerateMuseum(mp)

	d := storage.NewDisk(0, storage.DefaultCostModel())
	bp := core.DefaultBuildParams()
	bp.Grid = cells.NewGrid(sc.ViewRegion, p.GridCells/2, p.GridCells/2)
	bp.DirsPerViewpoint = p.Dirs
	bp.SamplesPerCell = p.Samples
	tr, vis, err := core.Build(sc, d, bp)
	if err != nil {
		panic("bench: " + err.Error())
	}
	h, err := vstore.Build(d, vis, vstore.SchemeHorizontal, vstore.Options{})
	if err != nil {
		panic("bench: " + err.Error())
	}
	v, err := vstore.Build(d, vis, vstore.SchemeVertical, vstore.Options{})
	if err != nil {
		panic("bench: " + err.Error())
	}
	iv, err := vstore.Build(d, vis, vstore.SchemeIndexedVertical, vstore.Options{})
	if err != nil {
		panic("bench: " + err.Error())
	}
	nv, err := naive.Build(tr, vis, 0)
	if err != nil {
		panic("bench: " + err.Error())
	}
	tr.SetVStore(iv)
	museumEnv = &Env{
		Scene: sc, Disk: d, Tree: tr, Vis: vis,
		H: h, V: v, IV: iv, Naive: nv,
		Engine: visibility.NewEngine(sc, p.Dirs),
	}
	return museumEnv
}

// RunMuseum is an extension experiment: the paper's two spatial-method
// failure modes ("it may miss some visible objects ... it may waste I/O
// and memory resources by retrieving objects that are hidden", §2) in the
// regime where they are sharpest — an indoor gallery. It quantifies the
// hidden-object waste per query and runs the walkthrough comparison.
func RunMuseum(w io.Writer, p Params) error {
	e := buildMuseumEnv(p)
	fmt.Fprintf(w, "museum: %d objects, %d nodes, %d cells; avg N_vnode %.1f of %d\n\n",
		len(e.Scene.Objects), e.Tree.NumNodes(), e.Tree.Grid.NumCells(),
		e.Vis.AvgVisibleNodes(), e.Tree.NumNodes())

	// Per-query waste: objects REVIEW retrieves that have zero region DoV
	// (hidden from the whole cell), vs the HDoV answer.
	sys := review.New(e.Tree, func() review.Config {
		cfg := review.DefaultConfig()
		cfg.QueryBoxDepth = 60
		return cfg
	}())
	var hdovItems, revItems, revHidden, visibleSet float64
	n := 0
	for c := 0; c < e.Tree.Grid.NumCells(); c += 3 {
		cell := cells.CellID(c)
		eye := e.Tree.Grid.SamplePoints(cell, 1)[0]
		visible := make(map[int64]bool)
		perNode := e.Vis.PerCell[cell]
		for id, vd := range perNode {
			if vd == nil || !e.Tree.Nodes[id].Leaf {
				continue
			}
			for ei, v := range vd {
				if v.DoV > 0 {
					visible[e.Tree.Nodes[id].Entries[ei].ObjectID] = true
				}
			}
		}
		hres, err := e.Tree.Query(cell, 0.001)
		if err != nil {
			return err
		}
		rres, err := sys.Query(eye, pickLook(c))
		if err != nil {
			return err
		}
		hidden := 0
		for _, it := range rres.Items {
			if !visible[it.ObjectID] {
				hidden++
			}
		}
		hdovItems += float64(len(hres.Items))
		revItems += float64(len(rres.Items))
		revHidden += float64(hidden)
		visibleSet += float64(len(visible))
		n++
	}
	fn := float64(n)
	fmt.Fprintf(w, "per-cell averages over %d cells (REVIEW boxes 60m):\n", n)
	fmt.Fprintf(w, "  truly visible objects:        %6.1f\n", visibleSet/fn)
	fmt.Fprintf(w, "  HDoV answer items:            %6.1f\n", hdovItems/fn)
	fmt.Fprintf(w, "  REVIEW retrieved objects:     %6.1f\n", revItems/fn)
	fmt.Fprintf(w, "  ...of which completely hidden:%6.1f (%.0f%% of its retrieval)\n\n",
		revHidden/fn, 100*revHidden/revItems)

	// Walkthrough through the galleries.
	s := walkthrough.RecordNormal(e.Scene, p.Frames/2, p.Seed)
	vres, err := visualPlayer(e, 0.001).Play(s)
	if err != nil {
		return err
	}
	rp := reviewPlayer(e, 60)
	rres, err := rp.Play(s)
	if err != nil {
		return err
	}
	printTraceSummary(w, vres, rres)
	return nil
}

// pickLook varies gaze deterministically across cells.
func pickLook(c int) geom.Vec3 {
	switch c % 4 {
	case 0:
		return geom.V(1, 0, 0)
	case 1:
		return geom.V(-1, 0, 0)
	case 2:
		return geom.V(0, 1, 0)
	default:
		return geom.V(0, -1, 0)
	}
}
