package core

import (
	"fmt"

	"repro/internal/cells"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/scene"
	"repro/internal/storage"
)

// TreeManifest is the view-invariant metadata needed to reopen a built
// HDoV-tree over its saved disk image: the node-record layout, the object
// payload directory, and the measured traversal constants. Node structure
// itself is reread from the on-disk records. All fields are exported for
// JSON serialization (package dbfile).
type TreeManifest struct {
	NumNodes     int
	NodePageBase storage.PageID
	NodeStride   int
	SMeasured    float64
	RhoMeasured  float64
	Params       BuildManifest
	Grid         GridManifest
	ObjExtents   [][]Extent
}

// BuildManifest is the JSON-able subset of BuildParams.
type BuildManifest struct {
	FanoutMin, FanoutMax int
	InternalLoDLevels    int
	S                    float64
	InternalLoDRatio     float64
	DirsPerViewpoint     int
	SamplesPerCell       int
	// VPageBytes is always 0: the V-page size is recorded in the layout
	// manifest. The key stays because a saved database's checksum covers
	// its manifest as re-marshaled on load, so dropping it would fail the
	// checksum of every database written with it.
	VPageBytes int
}

// GridManifest serializes a viewing-cell grid.
type GridManifest struct {
	MinX, MinY, MinZ float64
	MaxX, MaxY, MaxZ float64
	NX, NY           int
}

func gridManifest(g *cells.Grid) GridManifest {
	return GridManifest{
		MinX: g.Bounds.Min.X, MinY: g.Bounds.Min.Y, MinZ: g.Bounds.Min.Z,
		MaxX: g.Bounds.Max.X, MaxY: g.Bounds.Max.Y, MaxZ: g.Bounds.Max.Z,
		NX: g.NX, NY: g.NY,
	}
}

// Grid reconstructs the viewing-cell grid. Manifests are untrusted input,
// so degenerate cell counts or empty bounds are an error rather than
// silently clamped.
func (m GridManifest) Grid() (*cells.Grid, error) {
	b := geom.Box(geom.V(m.MinX, m.MinY, m.MinZ), geom.V(m.MaxX, m.MaxY, m.MaxZ))
	return cells.NewGridChecked(b, m.NX, m.NY)
}

// Manifest captures everything needed to reopen this tree.
func (t *Tree) Manifest() TreeManifest {
	return TreeManifest{
		NumNodes:     len(t.Nodes),
		NodePageBase: t.nodePageBase,
		NodeStride:   t.nodeStride,
		SMeasured:    t.SMeasured,
		RhoMeasured:  t.RhoMeasured,
		Params: BuildManifest{
			FanoutMin:         t.Params.FanoutMin,
			FanoutMax:         t.Params.FanoutMax,
			InternalLoDLevels: t.Params.InternalLoDLevels,
			S:                 t.Params.S,
			InternalLoDRatio:  t.Params.InternalLoDRatio,
			DirsPerViewpoint:  t.Params.DirsPerViewpoint,
			SamplesPerCell:    t.Params.SamplesPerCell,
		},
		Grid:       gridManifest(t.Grid),
		ObjExtents: t.ObjExtents,
	}
}

// OpenTree reopens a tree over its saved disk image: node records are
// reread (and re-validated) from disk, the in-memory internal-LoD meshes
// are decoded from their payload extents, and the object directory comes
// from the manifest. The scene must be the same deterministic generation
// the tree was built from; Open callers regenerate it from the saved
// CityParams. No I/O is charged: opening a database is setup, not
// workload.
//
// hdov:construction-window — rehydrates nodes from the manifest; the
// tree is handed to callers only after this returns.
func OpenTree(sc *scene.Scene, d *storage.Disk, m TreeManifest) (*Tree, error) {
	if sc == nil || d == nil {
		return nil, fmt.Errorf("core: open: nil scene or disk")
	}
	if m.NumNodes < 1 || m.NodeStride < 1 {
		return nil, fmt.Errorf("core: open: bad manifest (%d nodes, stride %d)", m.NumNodes, m.NodeStride)
	}
	if len(m.ObjExtents) != len(sc.Objects) {
		return nil, fmt.Errorf("core: open: manifest has %d object directories, scene has %d objects",
			len(m.ObjExtents), len(sc.Objects))
	}
	grid, err := m.Grid.Grid()
	if err != nil {
		return nil, fmt.Errorf("core: open: %w", err)
	}
	t := &Tree{
		Scene: sc,
		Grid:  grid,
		Disk:  d,
		IO:    d.NewClient(),
		Params: BuildParams{
			FanoutMin:         m.Params.FanoutMin,
			FanoutMax:         m.Params.FanoutMax,
			InternalLoDLevels: m.Params.InternalLoDLevels,
			S:                 m.Params.S,
			InternalLoDRatio:  m.Params.InternalLoDRatio,
			DirsPerViewpoint:  m.Params.DirsPerViewpoint,
			SamplesPerCell:    m.Params.SamplesPerCell,
		},
		SMeasured:    m.SMeasured,
		RhoMeasured:  m.RhoMeasured,
		ObjExtents:   m.ObjExtents,
		nodePageBase: m.NodePageBase,
		nodeStride:   m.NodeStride,
		bb:           &backbone{},
	}
	t.Params.Grid = t.Grid

	// Reread node records via PeekBytes so opening charges no I/O.
	t.Nodes = make([]*Node, m.NumNodes)
	for id := 0; id < m.NumNodes; id++ {
		buf, err := d.PeekBytes(t.NodePage(NodeID(id)), m.NodeStride*d.PageSize())
		if err != nil {
			return nil, fmt.Errorf("core: open: node %d: %w", id, err)
		}
		n, err := DecodeNodeRecord(buf)
		if err != nil {
			return nil, fmt.Errorf("core: open: node %d: %w", id, err)
		}
		if n.ID != NodeID(id) {
			return nil, fmt.Errorf("core: open: node record %d claims ID %d", id, n.ID)
		}
		n.Page = t.NodePage(NodeID(id))
		t.Nodes[id] = n
	}

	// Decode the internal-LoD chains from their payload extents.
	for _, n := range t.Nodes {
		chain := &mesh.LoDChain{Levels: make([]*mesh.Mesh, len(n.InternalExtents))}
		for li, ex := range n.InternalExtents {
			raw, err := d.PeekBytes(ex.Start, int(ex.RealBytes))
			if err != nil {
				return nil, fmt.Errorf("core: open: node %d LoD %d: %w", n.ID, li, err)
			}
			msh, err := mesh.Decode(raw)
			if err != nil {
				return nil, fmt.Errorf("core: open: node %d LoD %d: %w", n.ID, li, err)
			}
			chain.Levels[li] = msh
		}
		n.InternalLoD = chain
	}

	if err := t.CheckStructure(); err != nil {
		return nil, fmt.Errorf("core: open: %w", err)
	}
	return t, nil
}

// CheckStructure validates the in-memory tree mirror: preorder IDs,
// balanced heights, descendant counts, and object references. Open runs
// it as a self-check; tests use it directly.
func (t *Tree) CheckStructure() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("core: empty tree")
	}
	for i, n := range t.Nodes {
		if n == nil {
			return fmt.Errorf("core: node %d missing", i)
		}
		if n.ID != NodeID(i) {
			return fmt.Errorf("core: node %d has ID %d", i, n.ID)
		}
		sumDesc := 0
		for ei, e := range n.Entries {
			if n.Leaf {
				if e.ObjectID < 0 || int(e.ObjectID) >= len(t.Scene.Objects) {
					return fmt.Errorf("core: node %d entry %d: object %d out of range", i, ei, e.ObjectID)
				}
				sumDesc++
				continue
			}
			if int(e.ChildID) <= i || int(e.ChildID) >= len(t.Nodes) {
				return fmt.Errorf("core: node %d entry %d: child %d not in preorder", i, ei, e.ChildID)
			}
			c := t.Nodes[e.ChildID]
			if c.SubtreeHeight != n.SubtreeHeight-1 {
				return fmt.Errorf("core: node %d child %d: unbalanced heights", i, e.ChildID)
			}
			if int(e.DescCount) != c.LeafDescendants {
				return fmt.Errorf("core: node %d entry %d: DescCount %d, child has %d",
					i, ei, e.DescCount, c.LeafDescendants)
			}
			sumDesc += c.LeafDescendants
		}
		if sumDesc != n.LeafDescendants {
			return fmt.Errorf("core: node %d: %d descendants recorded, %d reachable", i, n.LeafDescendants, sumDesc)
		}
	}
	return nil
}
