// Package hdov is a from-scratch reproduction of the HDoV-tree (Shou,
// Huang, Tan: "HDoV-tree: The Structure, The Storage, The Speed", ICDE
// 2003): a hierarchical spatial index over large out-of-core virtual
// environments whose traversal is driven by precomputed per-viewing-cell
// degree-of-visibility (DoV) data, with internal levels-of-detail that let
// barely visible subtrees be answered by a single coarse aggregate mesh.
//
// The package builds a complete, self-contained pipeline:
//
//   - a procedural city dataset (buildings with tessellated facades and
//     organic high-polygon "blobs", the paper's bunny stand-ins),
//   - QEM polygon simplification producing per-object and internal LoD
//     chains,
//   - an R-tree backbone with the Ang–Tan linear split,
//   - ray-cast DoV precomputation over a viewing-cell grid,
//   - the three V-page storage schemes of the paper (horizontal, vertical,
//     indexed-vertical), one per database, over a simulated paged disk
//     with seek/transfer cost accounting,
//   - the threshold-based visibility query of Figure 3, and
//   - walkthrough players for VISUAL (this system) and the REVIEW spatial
//     baseline, with delta/complement search and semantic caching.
//
// One open DB serves many clients concurrently: every read runs on a
// Session, and NewSession gives each client a private query handle with
// its own I/O accounting; SetCacheSize installs a shared buffer pool
// whose hits charge no simulated I/O, and Serve plays N concurrent
// walkthrough clients end to end (see DESIGN.md §10). Each query runs
// the serial depth-first traversal of Figure 3.
//
// Quick start:
//
//	db, err := hdov.Build(hdov.DefaultConfig())
//	if err != nil { ... }
//	s := db.NewSession()
//	res, err := s.QueryCell(db.CellOf(hdov.Pt(150, 150, 1.7)), 0.001)
//	for _, item := range res.Items { ... }
package hdov

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/scene"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/visibility"
	"repro/internal/vstore"
)

// Point is a location or direction in the environment, in meters.
type Point struct {
	X, Y, Z float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y, z float64) Point { return Point{x, y, z} }

func (p Point) vec() geom.Vec3       { return geom.Vec3{X: p.X, Y: p.Y, Z: p.Z} }
func fromVec(v geom.Vec3) Point      { return Point{v.X, v.Y, v.Z} }
func (p Point) String() string       { return p.vec().String() }
func (p Point) Sub(q Point) Point    { return fromVec(p.vec().Sub(q.vec())) }
func (p Point) Dist(q Point) float64 { return p.vec().Dist(q.vec()) }

// Scheme selects the V-page storage layout of §4. Its values are
// internal/vstore's, so a Scheme converts to the layout it names.
type Scheme int

const (
	// SchemeIndexedVertical is §4.3, the paper's recommended layout.
	SchemeIndexedVertical = Scheme(vstore.SchemeIndexedVertical)
	// SchemeVertical is §4.2.
	SchemeVertical = Scheme(vstore.SchemeVertical)
	// SchemeHorizontal is §4.1.
	SchemeHorizontal = Scheme(vstore.SchemeHorizontal)
)

func (s Scheme) String() string { return vstore.Scheme(s).String() }

// SceneConfig shapes the procedural dataset.
type SceneConfig struct {
	// Blocks is the city size in blocks per side (or, with Museum set,
	// rooms per side).
	Blocks int
	// BuildingsPerBlock and BlobsPerBlock control density (city only).
	BuildingsPerBlock int
	BlobsPerBlock     int
	// Museum generates the indoor gallery dataset instead of the city —
	// the extreme-occlusion regime where visibility indexing pays off
	// most (from any room only neighbors' doorway slices are visible).
	Museum bool
	// NominalBytes is the raw dataset size the payloads are scaled to
	// (the paper's 400 MB – 1.6 GB axis). Zero keeps real mesh sizes.
	NominalBytes int64
	// Seed makes the dataset reproducible.
	Seed int64
}

// Config controls database construction.
type Config struct {
	Scene SceneConfig
	// GridCells is the viewing-cell resolution per side.
	GridCells int
	// DoVRays is the DoV sampling density per viewpoint; higher values
	// resolve smaller thresholds (resolution ≈ 1/DoVRays).
	DoVRays int
	// SamplesPerCell is the per-axis viewpoint sample density for the
	// conservative region DoV of equation 2.
	SamplesPerCell int
	// Scheme selects the one V-page layout Build lays out and sessions
	// serve. It is fixed for the DB's lifetime: Save persists it and
	// Open restores it. Build one DB per scheme to compare layouts.
	Scheme Scheme
	// UseItemBuffer precomputes DoV with the cube-map rasterizer (the
	// literal software form of the paper's hardware pass) instead of ray
	// casting. ItemBufferRes sets its per-face resolution (0 = default).
	UseItemBuffer bool
	ItemBufferRes int
	// BulkLoad packs the R-tree backbone with STR instead of the paper's
	// one-by-one Ang–Tan insertion (fewer nodes, lower overlap).
	BulkLoad bool
	// Codec stores the scheme's V-pages in the compressed layout
	// (DESIGN.md §13): fixed-point varint DoV entries in CRC-sealed,
	// variable-length units instead of raw float64 slots. Query results
	// are byte-identical to the raw layout; V-page bytes and light I/O
	// drop severalfold.
	Codec bool
	// DoVQuantBits overrides the build-time DoV quantization grid
	// (0 = default 16 fraction bits, < 0 disables quantization).
	DoVQuantBits int
	// Storage selects the media the paged disk runs on: the simulated
	// in-memory disk (the zero value) or a real OS file (BackendFile).
	// Query answers are byte-identical either way; the file backend
	// additionally charges measured wall-clock I/O into DiskStats.
	Storage StorageConfig
}

// DefaultConfig returns a laptop-scale database comparable in structure to
// the paper's evaluation setup.
func DefaultConfig() Config {
	return Config{
		Scene: SceneConfig{
			Blocks:            4,
			BuildingsPerBlock: 8,
			BlobsPerBlock:     4,
			NominalBytes:      100 << 20,
			Seed:              1,
		},
		GridCells:      12,
		DoVRays:        1024,
		SamplesPerCell: 1,
		Scheme:         SchemeIndexedVertical,
	}
}

// DB is a built HDoV-tree database: scene, index, visibility data and
// the V-page layout of its Scheme over one paged disk.
//
// Every DB method is safe for concurrent use. A DB is not itself a query
// handle: clients each take a Session (NewSession is safe to call at any
// time, including while an Update is in flight) and query through it;
// the DB's own tree is only the template sessions copy. Update is the one
// write path: it installs a new scene epoch atomically — existing
// Sessions keep answering from the epoch they pinned, new Sessions see
// the new one.
type DB struct {
	cfg    Config
	disk   *storage.Disk
	scene  *scene.Scene       // hdov:guarded-by mu
	tree   *core.Tree         // hdov:guarded-by mu
	vis    *core.VisData      // hdov:guarded-by mu
	vs     vstore.Layout      // hdov:guarded-by mu
	engine *visibility.Engine // hdov:guarded-by mu

	// router, when non-nil, partitions the viewing-cell grid across
	// shard stores and routes new sessions (see EnableSharding); shardCfg
	// remembers the enabling configuration so Update can re-shard.
	router   *shard.Router // hdov:guarded-by mu
	shardCfg ShardConfig   // hdov:guarded-by mu

	// mu guards the epoch swap: Update replaces scene/tree/vis/layout
	// under mu.Lock, NewSession pins the current tree under mu.RLock.
	mu sync.RWMutex
	// writeMu serializes writers (Update, CommitEpoch, Save).
	writeMu sync.Mutex
	// epoch counts committed+installed update batches; ops is the full op
	// log since the original build, replayed by Open.
	epoch int        // hdov:guarded-by mu
	ops   []scene.Op // hdov:guarded-by mu
	// tmpDir owns an unnamed file backend's page file; Close removes it.
	tmpDir string // hdov:guarded-by mu
}

// Build generates the city, constructs the HDoV-tree, precomputes per-cell
// DoV data and lays out the V-pages in cfg.Scheme.
func Build(cfg Config) (*DB, error) {
	if cfg.Scene.Blocks < 1 {
		cfg.Scene.Blocks = 4
	}
	if cfg.GridCells < 1 {
		cfg.GridCells = 12
	}
	if cfg.DoVRays < 64 {
		cfg.DoVRays = 1024
	}
	if cfg.SamplesPerCell < 1 {
		cfg.SamplesPerCell = 1
	}
	var sc *scene.Scene
	if cfg.Scene.Museum {
		mp := scene.DefaultMuseumParams()
		mp.Seed = cfg.Scene.Seed
		mp.RoomsX, mp.RoomsY = cfg.Scene.Blocks, cfg.Scene.Blocks
		mp.NominalBytes = cfg.Scene.NominalBytes
		sc = scene.GenerateMuseum(mp)
	} else {
		cp := scene.DefaultCityParams()
		cp.Seed = cfg.Scene.Seed
		cp.BlocksX, cp.BlocksY = cfg.Scene.Blocks, cfg.Scene.Blocks
		if cfg.Scene.BuildingsPerBlock > 0 {
			cp.BuildingsPerBlock = cfg.Scene.BuildingsPerBlock
		}
		if cfg.Scene.BlobsPerBlock >= 0 {
			cp.BlobsPerBlock = cfg.Scene.BlobsPerBlock
		}
		cp.NominalBytes = cfg.Scene.NominalBytes
		sc = scene.Generate(cp)
	}

	d, tmpDir, err := newDisk(cfg.Storage)
	if err != nil {
		return nil, err
	}
	// The disk may own real resources (page file, mmap window, temp dir);
	// every build failure past this point must release them.
	fail := func(err error) (*DB, error) {
		_ = d.Close()
		if tmpDir != "" {
			_ = os.RemoveAll(tmpDir)
		}
		return nil, err
	}
	bp := core.DefaultBuildParams()
	bp.Grid = cells.NewGrid(sc.ViewRegion, cfg.GridCells, cfg.GridCells)
	bp.DirsPerViewpoint = cfg.DoVRays
	bp.SamplesPerCell = cfg.SamplesPerCell
	bp.UseItemBuffer = cfg.UseItemBuffer
	bp.ItemBufferRes = cfg.ItemBufferRes
	bp.BulkLoad = cfg.BulkLoad
	bp.DoVQuantBits = cfg.DoVQuantBits
	tr, vis, err := core.Build(sc, d, bp)
	if err != nil {
		return fail(fmt.Errorf("hdov: %w", err))
	}
	vs, err := cfg.layout(d, vis)
	if err != nil {
		return fail(fmt.Errorf("hdov: %w", err))
	}
	tr.SetVStore(vs)
	return &DB{
		cfg: cfg, scene: sc, disk: d, tree: tr, vis: vis, vs: vs,
		engine: visibility.NewEngine(sc, cfg.DoVRays),
		tmpDir: tmpDir,
	}, nil
}

// layout lays out vis on d in the configured scheme and V-page codec.
func (cfg Config) layout(d *storage.Disk, vis *core.VisData) (vstore.Layout, error) {
	return vstore.Build(d, vis, vstore.Scheme(cfg.Scheme), vstore.Options{Codec: cfg.Codec})
}

// snapshot returns the current epoch's tree and scene under the read
// lock, so accessors stay consistent while an Update publishes. Callers
// must not already hold db.mu (RWMutex read locks do not nest safely
// under a waiting writer).
func (db *DB) snapshot() (*core.Tree, *scene.Scene) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tree, db.scene
}

// session derives a private session of the current epoch's tree, and
// returns it with that epoch's scene, under the read lock: the DB's own
// tree is only the template sessions copy, and no read runs on it.
func (db *DB) session() (*core.Tree, *scene.Scene) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tree.Session(), db.scene
}

// Scheme returns the V-page layout the DB was built with.
func (db *DB) Scheme() Scheme { return db.cfg.Scheme }

// NumObjects returns the object count of the dataset (tombstones
// included; see NumAliveObjects).
func (db *DB) NumObjects() int {
	_, sc := db.snapshot()
	return len(sc.Objects)
}

// NumNodes returns N_node, the HDoV-tree's node count.
func (db *DB) NumNodes() int {
	t, _ := db.snapshot()
	return t.NumNodes()
}

// NumCells returns the viewing-cell count.
func (db *DB) NumCells() int {
	t, _ := db.snapshot()
	return t.Grid.NumCells()
}

// NominalBytes returns the dataset's raw payload size.
func (db *DB) NominalBytes() int64 {
	_, sc := db.snapshot()
	return sc.NominalRawBytes()
}

// Bounds returns the corners of the environment.
func (db *DB) Bounds() (min, max Point) {
	_, sc := db.snapshot()
	return fromVec(sc.Bounds.Min), fromVec(sc.Bounds.Max)
}

// ViewRegion returns the corners of the walkable viewpoint slab.
func (db *DB) ViewRegion() (min, max Point) {
	_, sc := db.snapshot()
	return fromVec(sc.ViewRegion.Min), fromVec(sc.ViewRegion.Max)
}

// DefaultViewpoint returns a natural standing point: a street
// intersection near the city center (open sightlines down four
// corridors), or the center of a middle room in the museum.
func (db *DB) DefaultViewpoint() Point {
	_, sc := db.snapshot()
	p := sc.Params
	z := sc.ViewRegion.Center().Z
	if m := p.Museum; m != nil {
		pitch := m.RoomSize + m.WallThickness
		cx := m.WallThickness + pitch*float64(m.RoomsX/2) + m.RoomSize/2
		cy := m.WallThickness + pitch*float64(m.RoomsY/2) + m.RoomSize/2
		return Pt(cx, cy, z)
	}
	pitch := p.BlockSize + p.StreetWidth
	half := p.StreetWidth / 2
	cx := half + pitch*float64(p.BlocksX/2)
	cy := half + pitch*float64(p.BlocksY/2)
	return Pt(cx, cy, z)
}

// StorageSizes reports V-page footprints per scheme — the Table 2
// numbers.
type StorageSizes struct {
	Horizontal, Vertical, IndexedVertical int64
}

// StorageSizes returns the footprint of the DB's one layout in the field
// of its Scheme; the other two fields are 0. Build one DB per scheme to
// compare them.
func (db *DB) StorageSizes() StorageSizes {
	db.mu.RLock()
	size := db.vs.SizeBytes()
	db.mu.RUnlock()
	var by [3]int64
	by[db.cfg.Scheme] = size
	return StorageSizes{
		Horizontal:      by[SchemeHorizontal],
		Vertical:        by[SchemeVertical],
		IndexedVertical: by[SchemeIndexedVertical],
	}
}

// CellOf returns the viewing cell containing p, or -1 if p is outside the
// viewpoint region.
func (db *DB) CellOf(p Point) int {
	t, _ := db.snapshot()
	return int(t.Grid.Locate(p.vec()))
}

// CellViewpoint returns the cell's primary DoV sample point. Ground-truth
// fidelity evaluated exactly there is covered by the stored region field
// (equation 2 takes the max over sample viewpoints), so an eta=0 query
// from this point scores full coverage.
func (db *DB) CellViewpoint(cell int) Point {
	t, _ := db.snapshot()
	if cell < 0 || cell >= t.Grid.NumCells() {
		return Point{}
	}
	return fromVec(t.Grid.SamplePoints(cells.CellID(cell), 1)[0])
}

// ErrOutsideCells is wrapped by every Session query and fetch form for a
// cell outside the grid, including CellOf's -1 for an off-grid viewpoint.
var ErrOutsideCells = errors.New("hdov: outside the viewing-cell grid")

// FaultPlan configures seeded, deterministic fault injection on the
// simulated disk — the harness for exercising degraded-mode traversal.
type FaultPlan struct {
	// Seed drives the probabilistic draws; the same seed over the same
	// read sequence injects the same faults.
	Seed int64
	// PageProb is the per-page-read probability that a fault fires.
	PageProb float64
	// TransientFrac is the fraction of faults that are transient (cleared
	// by the disk's bounded retry); the rest are permanent and sticky.
	TransientFrac float64
	// MaxRetries bounds the retry loop per logical read (0 = default 3).
	MaxRetries int
	// RetryJitter adds a seeded random backoff (up to half the base
	// backoff) to each retry, decorrelating concurrent sessions that are
	// retrying the same hot region. The fault draws themselves are
	// unchanged: the same plan injects the same faults with or without
	// jitter — only the simulated retry cost varies.
	RetryJitter bool
}

// SetFaultTolerant switches degraded-mode traversal on or off. When on, a
// query that hits an unreadable node page, V-page or payload extent does
// not abort: the lost branch is answered by the deepest readable
// ancestor's internal LoD and the substitution is recorded on the result
// as a Degradation. When off (the default), media faults abort the query
// with an error.
func (db *DB) SetFaultTolerant(on bool) {
	db.mu.Lock()
	db.tree.FaultTolerant = on
	r := db.router
	db.mu.Unlock()
	if r != nil {
		r.SetFaultTolerant(on)
	}
}

// FaultTolerant reports whether degraded-mode traversal is enabled.
func (db *DB) FaultTolerant() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tree.FaultTolerant
}

// InjectFaults installs the fault plan on the database's disk — and on
// every shard store's, when sharding is enabled. Passing a
// zero-probability plan installs an injector that never fires.
func (db *DB) InjectFaults(p FaultPlan) {
	cfg := storage.FaultConfig{
		Seed:          p.Seed,
		PageProb:      p.PageProb,
		TransientFrac: p.TransientFrac,
		MaxRetries:    p.MaxRetries,
		Jitter:        p.RetryJitter,
	}
	db.disk.InjectFaults(cfg)
	if r := db.currentRouter(); r != nil {
		r.InjectFaults(cfg)
	}
}

// ClearFaults removes the fault injectors and forgets the quarantined
// pages degraded-mode traversal has learned to avoid.
func (db *DB) ClearFaults() {
	db.disk.ClearFaults()
	db.disk.ClearQuarantine()
	if r := db.currentRouter(); r != nil {
		r.ClearFaults()
	}
}
