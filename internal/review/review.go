// Package review reimplements the REVIEW walkthrough system (Shou et al.,
// VLDB 2001 — reference [12]), the spatial-access-method baseline of the
// paper's Experiment 2. REVIEW indexes objects with an R-tree and answers
// viewpoint queries with window queries over frustum-derived query boxes;
// its "complement search" is the spatial analogue of VISUAL's delta
// search, and its cache replacement is semantic: victims are chosen by
// spatial distance from the viewer.
//
// This implementation runs the window queries over the same on-disk node
// records and object payload extents as the HDoV-tree, so the two systems
// are compared on identical data, storage and disk model — only the access
// method differs. REVIEW never touches V-pages: it has no visibility data,
// which is exactly why it retrieves hidden objects inside its boxes (I/O
// waste) and misses visible objects beyond them ("short-sightedness",
// Figure 11b).
package review

import (
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/storage"
)

// Config parameterizes the REVIEW system.
type Config struct {
	// QueryBoxDepth is the frustum truncation distance in meters — the
	// paper evaluates 200 m and 400 m boxes.
	QueryBoxDepth float64
	// Bands is the number of distance-banded query boxes the frustum is
	// converted into (the LoD-R-tree refinement REVIEW inherits).
	Bands int
	// FovY and Aspect shape the viewing frustum.
	FovY, Aspect float64
	// Near and Far are the clip distances (Far only bounds the frustum
	// construction; retrieval is limited by QueryBoxDepth).
	Near, Far float64
}

// DefaultConfig returns the paper's 400 m configuration.
func DefaultConfig() Config {
	return Config{
		QueryBoxDepth: 400,
		Bands:         4,
		FovY:          math.Pi / 3,
		Aspect:        4.0 / 3.0,
		Near:          0.5,
		Far:           2000,
	}
}

// System is a REVIEW instance over a built HDoV database (using only its
// spatial part).
type System struct {
	T   *core.Tree
	Cfg Config
}

// New creates a REVIEW system over the shared database.
func New(t *core.Tree, cfg Config) *System {
	if cfg.QueryBoxDepth <= 0 {
		cfg.QueryBoxDepth = 400
	}
	if cfg.Bands < 1 {
		cfg.Bands = 1
	}
	if cfg.FovY <= 0 {
		cfg.FovY = math.Pi / 3
	}
	if cfg.Aspect <= 0 {
		cfg.Aspect = 4.0 / 3.0
	}
	if cfg.Near <= 0 {
		cfg.Near = 0.5
	}
	if cfg.Far <= cfg.Near {
		cfg.Far = cfg.Near + 2000
	}
	return &System{T: t, Cfg: cfg}
}

// reader returns the handle the system's reads go through: the tree's
// accounting client when present, else the disk.
func (s *System) reader() storage.Reader {
	if s.T.IO != nil {
		return s.T.IO
	}
	return s.T.Disk
}

// stats snapshots the matching accounting counters.
func (s *System) stats() storage.Stats {
	if s.T.IO != nil {
		return s.T.IO.Stats()
	}
	return s.T.Disk.Stats()
}

// Frustum builds the viewing frustum for a pose.
func (s *System) Frustum(eye, look geom.Vec3) geom.Frustum {
	return geom.NewFrustum(eye, look, geom.V(0, 0, 1), s.Cfg.FovY, s.Cfg.Aspect, s.Cfg.Near, s.Cfg.Far)
}

// Query performs the REVIEW window queries for a pose: the frustum is
// converted to Bands distance-banded boxes truncated at QueryBoxDepth, and
// each box is run as an R-tree window query over the on-disk node records
// (light I/O). Objects get a static distance-based LoD: the k coefficient
// falls linearly from 1 at the viewpoint to 0 at QueryBoxDepth — the
// "ad-hoc and static" LoD policy the introduction criticizes.
func (s *System) Query(eye, look geom.Vec3) (*core.QueryResult, error) {
	before := s.stats()
	f := s.Frustum(eye, look)
	boxes := f.QueryBoxes(s.Cfg.Bands, s.Cfg.QueryBoxDepth)
	res := &core.QueryResult{Cell: -1}

	seen := make(map[int64]bool)
	if err := s.window(0, boxes, eye, seen, res); err != nil {
		return nil, err
	}
	d := s.stats().Sub(before)
	res.Stats.LightIO = d.LightReads
	res.Stats.HeavyIO = d.HeavyReads
	res.Stats.SimTime = d.SimTime
	for _, it := range res.Items {
		res.Stats.TotalPolygons += it.Polygons
		res.Stats.TotalBytes += it.Extent.NominalBytes
	}
	return res, nil
}

// window recursively runs the multi-box window query from node id.
func (s *System) window(id core.NodeID, boxes []geom.AABB, eye geom.Vec3, seen map[int64]bool, res *core.QueryResult) error {
	rec, err := s.T.ReadNodeRecord(id)
	if err != nil {
		return err
	}
	res.Stats.NodesVisited++
	for i := 0; i < rec.NumEntries(); i++ {
		mbr := rec.EntryMBR(i)
		hit := false
		for _, b := range boxes {
			if mbr.Intersects(b) {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		if !rec.Leaf() {
			if err := s.window(rec.EntryChild(i), boxes, eye, seen, res); err != nil {
				return err
			}
			continue
		}
		objID := rec.EntryObject(i)
		if seen[objID] {
			continue // object straddles several bands; emit once
		}
		seen[objID] = true
		dist := mbr.DistToPoint(eye)
		k := 1 - dist/s.Cfg.QueryBoxDepth
		if k < 0 {
			k = 0
		}
		if k > 1 {
			k = 1
		}
		obj := s.T.Scene.Object(objID)
		exts := s.T.ObjExtents[objID]
		lvl := levelFor(k, len(exts))
		res.Items = append(res.Items, core.ResultItem{
			ObjectID: objID,
			NodeID:   core.NilNode,
			DoV:      0, // REVIEW has no visibility data
			Detail:   k,
			Level:    lvl,
			Polygons: obj.LoDs.PolygonsFor(k),
			Extent:   exts[lvl],
		})
	}
	return nil
}

// levelFor mirrors core's continuous-to-discrete LoD mapping.
func levelFor(k float64, n int) int {
	if n <= 1 || k >= 1 {
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

// FetchPayloads charges heavy I/O for the items, honoring the complement
// search: items for which skip returns true (already retrieved in earlier
// queries) cost nothing.
func (s *System) FetchPayloads(res *core.QueryResult, skip func(core.ResultItem) bool) (int, error) {
	fetched := 0
	for _, it := range res.Items {
		if skip != nil && skip(it) {
			continue
		}
		if err := s.reader().ReadExtent(it.Extent.Start, it.Extent.Pages(s.T.Disk), storage.ClassHeavy); err != nil {
			return fetched, err
		}
		fetched++
	}
	return fetched, nil
}
