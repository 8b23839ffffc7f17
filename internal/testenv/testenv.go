// Package testenv builds shared, cached HDoV databases for the integration
// tests and benchmarks of the higher-level packages (naive, review, render,
// walkthrough) and for the root-level experiment benches. Construction is
// expensive (DoV precomputation casts millions of rays), so each
// configuration is built once per process.
package testenv

import (
	"sync"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/naive"
	"repro/internal/scene"
	"repro/internal/storage"
	"repro/internal/visibility"
	"repro/internal/vstore"
)

// Env bundles everything the experiments touch: the scene, the simulated
// disk, the built tree, its visibility field, the three storage schemes,
// the naive baseline and a ground-truth visibility engine.
type Env struct {
	Scene  *scene.Scene
	Disk   *storage.Disk
	Tree   *core.Tree
	Vis    *core.VisData
	H      vstore.Layout
	V      vstore.Layout
	IV     vstore.Layout
	Naive  *naive.Store
	Engine *visibility.Engine
}

// Config selects a database configuration.
type Config struct {
	CityBlocks   int   // blocks per side
	GridCells    int   // viewing cells per side
	Dirs         int   // DoV rays per sample viewpoint
	Samples      int   // region-DoV sample density
	NominalBytes int64 // raw dataset size target (Figure 9 axis)
	Seed         int64
	// Codec builds the three schemes with the compressed V-page layout
	// (DESIGN.md §13). Query results are byte-identical either way.
	Codec bool
}

// Small returns the fast configuration used by unit/integration tests.
func Small() Config {
	return Config{CityBlocks: 2, GridCells: 8, Dirs: 256, Samples: 1, NominalBytes: 16 << 20, Seed: 1}
}

// Medium is the walkthrough-scale configuration: a larger city and grid so
// sessions cross many cells.
func Medium() Config {
	return Config{CityBlocks: 4, GridCells: 12, Dirs: 512, Samples: 1, NominalBytes: 64 << 20, Seed: 1}
}

var (
	mu    sync.Mutex
	cache = map[Config]*Env{}
)

// Get builds (or returns the cached) environment for cfg.
func Get(cfg Config) *Env {
	mu.Lock()
	defer mu.Unlock()
	if e, ok := cache[cfg]; ok {
		return e
	}
	e := build(cfg)
	cache[cfg] = e
	return e
}

func build(cfg Config) *Env {
	p := scene.DefaultCityParams()
	p.Seed = cfg.Seed
	p.BlocksX, p.BlocksY = cfg.CityBlocks, cfg.CityBlocks
	p.BuildingsPerBlock = 6
	p.BlobsPerBlock = 3
	p.BlobDetail = 8
	p.NominalBytes = cfg.NominalBytes
	sc := scene.Generate(p)

	d := storage.NewDisk(0, storage.DefaultCostModel())
	bp := core.DefaultBuildParams()
	bp.Grid = cells.NewGrid(sc.ViewRegion, cfg.GridCells, cfg.GridCells)
	bp.DirsPerViewpoint = cfg.Dirs
	bp.SamplesPerCell = cfg.Samples
	tr, vis, err := core.Build(sc, d, bp)
	if err != nil {
		panic("testenv: " + err.Error())
	}
	opts := vstore.Options{Codec: cfg.Codec}
	h, err := vstore.Build(d, vis, vstore.SchemeHorizontal, opts)
	if err != nil {
		panic("testenv: " + err.Error())
	}
	v, err := vstore.Build(d, vis, vstore.SchemeVertical, opts)
	if err != nil {
		panic("testenv: " + err.Error())
	}
	iv, err := vstore.Build(d, vis, vstore.SchemeIndexedVertical, opts)
	if err != nil {
		panic("testenv: " + err.Error())
	}
	nv, err := naive.Build(tr, vis, 0)
	if err != nil {
		panic("testenv: " + err.Error())
	}
	tr.SetVStore(iv)
	return &Env{
		Scene:  sc,
		Disk:   d,
		Tree:   tr,
		Vis:    vis,
		H:      h,
		V:      v,
		IV:     iv,
		Naive:  nv,
		Engine: visibility.NewEngine(sc, cfg.Dirs),
	}
}
