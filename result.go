package hdov

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/render"
)

// Item is one element of a visibility-query answer: either an object at a
// chosen LoD level, or an internal LoD standing in for a whole subtree.
type Item struct {
	// ObjectID is the object (>= 0), or -1 for internal-LoD items.
	ObjectID int64
	// NodeID identifies the subtree of an internal-LoD item (-1 for
	// object items).
	NodeID int32
	// DoV is the degree of visibility that selected this item.
	DoV float64
	// Detail is the continuous detail coefficient of equations 5/6.
	Detail float64
	// Level is the discrete LoD level retrieved (0 = finest).
	Level int
	// Polygons is the interpolated polygon count.
	Polygons float64
	// Bytes is the payload's nominal on-disk size.
	Bytes int64
}

// Internal reports whether the item is an internal (aggregate) LoD.
func (it Item) Internal() bool { return it.NodeID >= 0 }

// Degradation records one absorbed media fault in a fault-tolerant query:
// which branch was lost, why, and which internal LoD stood in for it.
type Degradation struct {
	// Node is the subtree whose data failed (-1 for cell-flip faults and
	// for object-payload faults).
	Node int32
	// Object is the object whose payload failed (-1 unless the failure
	// was an object payload).
	Object int64
	// Cause classifies the failed read: "node-record", "v-page",
	// "payload" or "cell-flip".
	Cause string
	// Page is the first failing disk page (-1 for decode failures on
	// readable pages).
	Page int64
	// SubstituteNode and SubstituteLevel identify the internal LoD that
	// stood in for the lost branch (-1 / -1 if nothing readable was found
	// — the branch is simply absent from the answer).
	SubstituteNode  int32
	SubstituteLevel int
}

// Result is a visibility-query answer with its cost accounting.
type Result struct {
	// Cell is the viewing cell the query ran in.
	Cell int
	// Eta is the DoV threshold used.
	Eta float64
	// Items is the answer set.
	Items []Item
	// LightIO and HeavyIO are the page reads charged to index traffic
	// (nodes, V-pages) and to model payloads, respectively.
	LightIO, HeavyIO int64
	// SimTime is the simulated disk time of the query (and of Fetch, if
	// it has run on this result).
	SimTime time.Duration
	// Polygons and Bytes total the answer set.
	Polygons float64
	Bytes    int64
	// NodesVisited and EarlyStops describe the traversal.
	NodesVisited, EarlyStops int
	// Retries counts transient read faults the disk retried away during
	// this query (nonzero only under fault injection).
	Retries int64
	// Degradations lists the media faults absorbed by degraded-mode
	// traversal (empty unless fault tolerance is on and faults fired).
	Degradations []Degradation

	inner *core.QueryResult
}

func wrapResult(r *core.QueryResult) *Result {
	out := &Result{
		Cell:         int(r.Cell),
		Eta:          r.Eta,
		LightIO:      r.Stats.LightIO,
		HeavyIO:      r.Stats.HeavyIO,
		SimTime:      r.Stats.SimTime,
		Polygons:     r.Stats.TotalPolygons,
		Bytes:        r.Stats.TotalBytes,
		NodesVisited: r.Stats.NodesVisited,
		EarlyStops:   r.Stats.EarlyStops,
		Retries:      r.Stats.Retries,
		inner:        r,
	}
	if len(r.Degradations) > 0 {
		out.Degradations = make([]Degradation, len(r.Degradations))
		for i, d := range r.Degradations {
			out.Degradations[i] = Degradation{
				Node:            int32(d.Node),
				Object:          d.Object,
				Cause:           d.Cause.String(),
				Page:            int64(d.Page),
				SubstituteNode:  int32(d.SubstituteNode),
				SubstituteLevel: d.SubstituteLevel,
			}
		}
	}
	out.Items = make([]Item, len(r.Items))
	for i, it := range r.Items {
		out.Items[i] = Item{
			ObjectID: it.ObjectID,
			NodeID:   int32(it.NodeID),
			DoV:      it.DoV,
			Detail:   it.Detail,
			Level:    it.Level,
			Polygons: it.Polygons,
			Bytes:    it.Extent.NominalBytes,
		}
	}
	return out
}

// Mesh is decoded triangle geometry.
type Mesh struct {
	Vertices  []Point
	Triangles [][3]int
}

// LoadMesh decodes the actual geometry of a result item (charging heavy
// I/O), for rendering or export. It reads through a private session of
// the current epoch.
func (db *DB) LoadMesh(it Item) (*Mesh, error) {
	t, _ := db.session()
	var inner core.ResultItem
	found := false
	// Relocate the payload extent from the item identity.
	if it.ObjectID >= 0 {
		exts := t.ObjExtents[it.ObjectID]
		if it.Level < 0 || it.Level >= len(exts) {
			return nil, fmt.Errorf("hdov: level %d out of range", it.Level)
		}
		inner = core.ResultItem{ObjectID: it.ObjectID, NodeID: core.NilNode, Level: it.Level, Extent: exts[it.Level]}
		found = true
	} else if int(it.NodeID) >= 0 && int(it.NodeID) < t.NumNodes() {
		n := t.Nodes[it.NodeID]
		if it.Level < 0 || it.Level >= len(n.InternalExtents) {
			return nil, fmt.Errorf("hdov: level %d out of range", it.Level)
		}
		inner = core.ResultItem{ObjectID: -1, NodeID: core.NodeID(it.NodeID), Level: it.Level, Extent: n.InternalExtents[it.Level]}
		found = true
	}
	if !found {
		return nil, fmt.Errorf("hdov: item identifies neither object nor node")
	}
	m, err := t.LoadMesh(inner)
	if err != nil {
		return nil, err
	}
	out := &Mesh{
		Vertices:  make([]Point, m.NumVerts()),
		Triangles: make([][3]int, m.NumTriangles()),
	}
	for i, v := range m.Verts {
		out.Vertices[i] = fromVec(v)
	}
	for i := 0; i < m.NumTriangles(); i++ {
		out.Triangles[i] = [3]int{int(m.Tris[3*i]), int(m.Tris[3*i+1]), int(m.Tris[3*i+2])}
	}
	return out, nil
}

// Fidelity scores an answer set against ground-truth visibility at a
// viewpoint (the quantitative form of the paper's Figure 11).
type Fidelity struct {
	// VisibleObjects is the ground-truth count of visible objects.
	VisibleObjects int
	// CoveredObjects is how many the answer represents (directly or via
	// internal LoDs); MissedObjects is the remainder.
	CoveredObjects, MissedObjects int
	// Coverage is covered DoV mass / total DoV mass, in [0, 1].
	Coverage float64
	// DetailFidelity weights covered DoV mass by effective rendered
	// detail (polygon budget relative to full detail), in [0, 1].
	DetailFidelity float64
}

// Fidelity evaluates how faithfully r reproduces the truly visible scene
// at viewpoint p. Computing ground truth casts DoVRays rays, so this is an
// analysis call, not a per-frame one.
func (db *DB) Fidelity(p Point, r *Result) Fidelity {
	// The tree and the ground-truth engine come from one epoch.
	db.mu.RLock()
	t, eng := db.tree, db.engine
	db.mu.RUnlock()
	f := render.Evaluate(t, r.inner.Items, eng.PointDoV(p.vec()))
	return Fidelity{
		VisibleObjects: f.VisibleObjects,
		CoveredObjects: f.CoveredObjects,
		MissedObjects:  f.MissedObjects,
		Coverage:       f.Coverage,
		DetailFidelity: f.DetailFidelity,
	}
}

// DiskStats is the I/O accounting snapshot of the database's disk.
type DiskStats struct {
	Reads, Seeks, LightReads, HeavyReads int64
	// Retries counts transient read faults absorbed by the disk's bounded
	// retry loop (nonzero only under fault injection).
	Retries int64
	SimTime time.Duration
	// MeasuredTime is wall-clock time spent in real media I/O. It is zero
	// on the simulated backend and positive on BackendFile, where it sits
	// alongside the simulated SimTime so the two models can be compared on
	// the same workload.
	MeasuredTime time.Duration
	// PoolHits and PoolMisses count buffer-pool lookups (zero unless
	// SetCacheSize installed a pool). Hits charge no seek or transfer.
	PoolHits, PoolMisses int64
	// CoalescedReads counts buffer-pool misses that piggybacked on
	// another session's in-flight read of the same page instead of
	// performing a second physical read (zero without a pool).
	CoalescedReads int64
}

// DiskStats returns the cumulative disk accounting, summed over every
// session (Session.Stats reports one session's own share). On a sharded
// database the sum spans the single-store disk plus every shard primary
// and replica, so no store's traffic is dropped from the aggregate;
// ShardDiskStats gives the per-shard breakdown.
func (db *DB) DiskStats() DiskStats {
	sum := db.disk.Stats()
	if r := db.currentRouter(); r != nil {
		for _, s := range r.ShardStats() {
			sum = sum.Add(s)
		}
		for _, s := range r.ReplicaStats() {
			sum = sum.Add(s)
		}
	}
	return diskStatsFrom(sum)
}

// ResetDiskStats zeroes the cumulative counters, including every shard
// store's when sharding is enabled.
func (db *DB) ResetDiskStats() {
	db.disk.ResetStats()
	if r := db.currentRouter(); r != nil {
		r.ResetStats()
	}
}
