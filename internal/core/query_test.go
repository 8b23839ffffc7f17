package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/cells"
	"repro/internal/geom"
)

// memVStore serves VD straight from a VisData field with no I/O — it
// isolates traversal semantics from storage-scheme behavior (the schemes
// have their own equivalence tests in package vstore).
type memVStore struct {
	vis *VisData
	cur cells.CellID
}

func (m *memVStore) Name() string     { return "mem" }
func (m *memVStore) SizeBytes() int64 { return 0 }
func (m *memVStore) SetCell(c cells.CellID) error {
	m.cur = c
	return nil
}
func (m *memVStore) NodeVD(id NodeID, dst []VD) ([]VD, bool, error) {
	vd := m.vis.PerCell[m.cur][id]
	if vd == nil {
		return dst, false, nil
	}
	return append(dst, vd...), true, nil
}

// visibleObjectSet returns the ground-truth visible objects of a cell.
func visibleObjectSet(tr *Tree, vis *VisData, cell cells.CellID) map[int64]float64 {
	out := make(map[int64]float64)
	perNode := vis.PerCell[cell]
	for id, vd := range perNode {
		if vd == nil || !tr.Nodes[id].Leaf {
			continue
		}
		for ei, v := range vd {
			if v.DoV > 0 {
				out[tr.Nodes[id].Entries[ei].ObjectID] = v.DoV
			}
		}
	}
	return out
}

// coveredSet expands a result into the set of represented objects.
func coveredSet(tr *Tree, items []ResultItem) map[int64]bool {
	out := make(map[int64]bool)
	for _, it := range items {
		if it.ObjectID >= 0 {
			out[it.ObjectID] = true
			continue
		}
		tr.DescendantObjects(it.NodeID, func(id int64) { out[id] = true })
	}
	return out
}

func withMemStore(t *testing.T) (*Tree, *VisData) {
	tr, vis := fixture(t)
	tr.SetVStore(&memVStore{vis: vis})
	return tr, vis
}

func TestQueryEtaZeroIsNaive(t *testing.T) {
	tr, vis := withMemStore(t)
	for c := 0; c < tr.Grid.NumCells(); c++ {
		cell := cells.CellID(c)
		res, err := tr.Query(cell, 0)
		if err != nil {
			t.Fatal(err)
		}
		// At eta = 0 the tree degenerates to the (cell, list-of-objects)
		// method: every item is an object, none internal.
		truth := visibleObjectSet(tr, vis, cell)
		if len(res.Items) != len(truth) {
			t.Fatalf("cell %d: %d items, want %d", cell, len(res.Items), len(truth))
		}
		for _, it := range res.Items {
			if it.IsInternal() {
				t.Fatalf("cell %d: internal item at eta=0", cell)
			}
			dov, ok := truth[it.ObjectID]
			if !ok {
				t.Fatalf("cell %d: object %d not in truth", cell, it.ObjectID)
			}
			if math.Abs(it.DoV-dov) > 1e-12 {
				t.Fatalf("cell %d object %d: DoV %v, want %v", cell, it.ObjectID, it.DoV, dov)
			}
			if want := LeafDetail(dov); math.Abs(it.Detail-want) > 1e-12 {
				t.Fatalf("cell %d object %d: detail %v, want %v", cell, it.ObjectID, it.Detail, want)
			}
		}
		if res.Stats.EarlyStops != 0 {
			t.Fatalf("cell %d: %d early stops at eta=0", cell, res.Stats.EarlyStops)
		}
	}
}

func TestQueryCoversAllVisibleObjects(t *testing.T) {
	tr, vis := withMemStore(t)
	for _, eta := range []float64{0.0001, 0.001, 0.008, 0.05} {
		for c := 0; c < tr.Grid.NumCells(); c++ {
			cell := cells.CellID(c)
			res, err := tr.Query(cell, eta)
			if err != nil {
				t.Fatal(err)
			}
			truth := visibleObjectSet(tr, vis, cell)
			covered := coveredSet(tr, res.Items)
			for objID := range truth {
				if !covered[objID] {
					t.Fatalf("eta=%v cell %d: visible object %d not covered", eta, cell, objID)
				}
			}
		}
	}
}

func TestQueryMonotoneInEta(t *testing.T) {
	tr, _ := withMemStore(t)
	etas := []float64{0, 0.0002, 0.001, 0.004, 0.02}
	// The trend must be monotone, but small local bumps are intrinsic to
	// the averaged s/rho in the equation-3 guard — the paper's own
	// Table 3 rises at eta=0.0001 before falling. Allow a bounded local
	// rise and require an aggregate decrease.
	var firstPolys, lastPolys float64
	var firstNodes, lastNodes int
	for c := 0; c < tr.Grid.NumCells(); c += 3 {
		cell := cells.CellID(c)
		prevPolys := math.Inf(1)
		prevStops := -1
		prevNodes := 1 << 30
		for i, eta := range etas {
			res, err := tr.Query(cell, eta)
			if err != nil {
				t.Fatal(err)
			}
			// Early terminations can only increase with eta; nodes
			// visited can only decrease.
			if res.Stats.EarlyStops < prevStops {
				t.Fatalf("cell %d: early stops fell from %d to %d at eta=%v",
					cell, prevStops, res.Stats.EarlyStops, eta)
			}
			if res.Stats.NodesVisited > prevNodes {
				t.Fatalf("cell %d: nodes visited rose from %d to %d at eta=%v",
					cell, prevNodes, res.Stats.NodesVisited, eta)
			}
			if res.Stats.TotalPolygons > prevPolys*1.10 {
				t.Fatalf("cell %d: polygons rose >10%% from %v to %v at eta=%v",
					cell, prevPolys, res.Stats.TotalPolygons, eta)
			}
			prevStops = res.Stats.EarlyStops
			prevNodes = res.Stats.NodesVisited
			prevPolys = res.Stats.TotalPolygons
			if i == 0 {
				firstPolys += res.Stats.TotalPolygons
				firstNodes += res.Stats.NodesVisited
			}
			if i == len(etas)-1 {
				lastPolys += res.Stats.TotalPolygons
				lastNodes += res.Stats.NodesVisited
			}
		}
	}
	// The VD = (DoV, NVO) design cannot see which descendants are the
	// heavy ones, so polygons may drift a few percent (the paper's
	// Table 3 bumps too); nodes visited must strictly fall.
	if lastPolys > firstPolys*1.05 {
		t.Fatalf("aggregate polygons rose >5%%: %v at eta=0 vs %v at eta=%v",
			firstPolys, lastPolys, etas[len(etas)-1])
	}
	if lastNodes >= firstNodes {
		t.Fatalf("aggregate nodes visited did not fall: %d vs %d", firstNodes, lastNodes)
	}
}

func TestQueryEarlyStopsAppear(t *testing.T) {
	tr, _ := withMemStore(t)
	// Across all cells, a generous threshold must produce at least one
	// internal-LoD answer somewhere (otherwise the HDoV machinery is
	// inert and the experiments are vacuous).
	total := 0
	for c := 0; c < tr.Grid.NumCells(); c++ {
		res, err := tr.Query(cells.CellID(c), 0.05)
		if err != nil {
			t.Fatal(err)
		}
		total += res.Stats.EarlyStops
	}
	if total == 0 {
		t.Fatal("no early terminations at eta=0.05")
	}
}

func TestQueryStatsConsistency(t *testing.T) {
	tr, _ := withMemStore(t)
	res, err := tr.Query(5, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	var polys float64
	var bytes int64
	for _, it := range res.Items {
		polys += it.Polygons
		bytes += it.Extent.NominalBytes
		if it.DoV <= 0 {
			t.Fatal("emitted item with zero DoV")
		}
		if it.Detail < 0 || it.Detail > 1 {
			t.Fatalf("detail %v out of range", it.Detail)
		}
	}
	if math.Abs(polys-res.Stats.TotalPolygons) > 1e-9 {
		t.Fatal("TotalPolygons inconsistent")
	}
	if bytes != res.Stats.TotalBytes {
		t.Fatal("TotalBytes inconsistent")
	}
	if res.Stats.NodesVisited < 1 {
		t.Fatal("no nodes visited")
	}
}

func TestFetchPayloads(t *testing.T) {
	tr, _ := withMemStore(t)
	res, err := tr.Query(2, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) == 0 {
		t.Skip("cell empty")
	}
	before := tr.Disk.Stats()
	n, err := tr.FetchPayloads(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(res.Items) {
		t.Fatalf("fetched %d of %d", n, len(res.Items))
	}
	d := tr.Disk.Stats().Sub(before)
	var wantPages int64
	for _, it := range res.Items {
		wantPages += int64(it.Extent.Pages(tr.Disk))
	}
	if d.HeavyReads != wantPages {
		t.Fatalf("heavy reads %d, want %d", d.HeavyReads, wantPages)
	}
	if d.LightReads != 0 {
		t.Fatal("payload fetch charged light I/O")
	}
	// Skip-all fetches nothing.
	before = tr.Disk.Stats()
	n, err = tr.FetchPayloads(res, func(ResultItem) bool { return true })
	if err != nil || n != 0 {
		t.Fatalf("skip-all fetched %d, err %v", n, err)
	}
	if tr.Disk.Stats().Sub(before).HeavyReads != 0 {
		t.Fatal("skip-all charged I/O")
	}
}

func TestLoadMesh(t *testing.T) {
	tr, _ := withMemStore(t)
	res, err := tr.Query(2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res.Items {
		m, err := tr.LoadMesh(it)
		if err != nil {
			t.Fatalf("item %+v: %v", it, err)
		}
		if m.NumTriangles() == 0 {
			t.Fatalf("item %+v: empty mesh", it)
		}
		// The loaded mesh must be the chosen LoD level.
		if it.ObjectID >= 0 {
			want := tr.Scene.Object(it.ObjectID).LoDs.Levels[it.Level].NumTriangles()
			if m.NumTriangles() != want {
				t.Fatalf("object %d level %d: %d tris, want %d", it.ObjectID, it.Level, m.NumTriangles(), want)
			}
		} else {
			want := tr.Nodes[it.NodeID].InternalPolys[it.Level]
			if m.NumTriangles() != want {
				t.Fatalf("node %d level %d: %d tris, want %d", it.NodeID, it.Level, m.NumTriangles(), want)
			}
		}
	}
}

func TestQueryPrioritizedSameAnswerSet(t *testing.T) {
	tr, _ := withMemStore(t)
	eye := tr.Grid.Center(5)
	f := geom.NewFrustum(eye, geom.V(1, 0.3, 0), geom.V(0, 0, 1), math.Pi/3, 4.0/3, 0.5, 1000)
	for _, eta := range []float64{0, 0.001, 0.01} {
		plain, err := tr.Query(5, eta)
		if err != nil {
			t.Fatal(err)
		}
		prio, err := tr.QueryPrioritized(5, eta, f)
		if err != nil {
			t.Fatal(err)
		}
		if len(plain.Items) != len(prio.Items) {
			t.Fatalf("eta=%v: %d vs %d items", eta, len(plain.Items), len(prio.Items))
		}
		key := func(it ResultItem) [2]int64 { return [2]int64{it.ObjectID, int64(it.NodeID)} }
		a := make([][2]int64, len(plain.Items))
		b := make([][2]int64, len(prio.Items))
		for i := range plain.Items {
			a[i] = key(plain.Items[i])
			b[i] = key(prio.Items[i])
		}
		less := func(s [][2]int64) func(i, j int) bool {
			return func(i, j int) bool {
				if s[i][0] != s[j][0] {
					return s[i][0] < s[j][0]
				}
				return s[i][1] < s[j][1]
			}
		}
		sort.Slice(a, less(a))
		sort.Slice(b, less(b))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("eta=%v: answer sets differ", eta)
			}
		}
	}
}

func TestQueryPrioritizedFrontLoadsInView(t *testing.T) {
	tr, _ := withMemStore(t)
	eye := tr.Grid.Center(5)
	look := geom.V(1, 0, 0)
	f := geom.NewFrustum(eye, look, geom.V(0, 0, 1), math.Pi/3, 4.0/3, 0.5, 1000)
	prio, err := tr.QueryPrioritized(5, 0.0005, f)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := tr.Query(5, 0.0005)
	if err != nil {
		t.Fatal(err)
	}
	if len(prio.Items) < 4 {
		t.Skip("too few items to measure ordering")
	}
	inView := func(it ResultItem) bool {
		var b geom.AABB
		if it.ObjectID >= 0 {
			b = tr.Scene.Object(it.ObjectID).MBR
		} else {
			b = geom.EmptyAABB()
			for _, e := range tr.Nodes[it.NodeID].Entries {
				b = b.Union(e.MBR)
			}
		}
		return f.IntersectsAABB(b)
	}
	// The extension's claim is earlier delivery of in-view geometry, not a
	// total ordering: subtrees mix in- and out-of-view objects, so the
	// right metric is that in-view items accumulate at least as fast as in
	// the unprioritized depth-first order (prefix-mass dominance).
	mass := func(items []ResultItem) float64 {
		var auc float64
		n := len(items)
		for i, it := range items {
			if inView(it) {
				auc += float64(n - i)
			}
		}
		return auc
	}
	if mass(prio.Items) < mass(plain.Items) {
		t.Fatalf("prioritized in-view prefix mass %v < plain %v",
			mass(prio.Items), mass(plain.Items))
	}
}

// TestSessionTraversalBuffersArePrivate: Session copies the tree struct,
// so it must replace the traversal buffers rather than share them. A
// session derived from one that has run queries starts with empty
// buffers of its own, and queries on the base tree leave it none.
func TestSessionTraversalBuffersArePrivate(t *testing.T) {
	tr, _ := withMemStore(t)
	if _, err := tr.Query(0, 0); err != nil {
		t.Fatal(err)
	}
	if tr.scr != nil {
		t.Fatal("a base-tree query kept traversal buffers on the shared tree")
	}
	s1 := tr.Session()
	if _, err := s1.QueryCoherent(0, 0); err != nil {
		t.Fatal(err)
	}
	if len(s1.scr.vd) == 0 || len(s1.scr.keep) == 0 {
		t.Fatal("a session query left no buffers to reuse")
	}
	s2 := s1.Session()
	if s2.scr == s1.scr || len(s2.scr.vd) != 0 || len(s2.scr.keep) != 0 || len(s2.scr.anc) != 0 {
		t.Fatal("a derived session shares or inherits its parent's traversal buffers")
	}
}
