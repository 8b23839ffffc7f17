package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/cells"
	"repro/internal/scene"
	"repro/internal/storage"
)

var (
	fixOnce sync.Once
	fixTree *Tree
	fixVis  *VisData
)

// fixture builds one small city HDoV-tree shared by the package's tests.
func fixture(t *testing.T) (*Tree, *VisData) {
	t.Helper()
	fixOnce.Do(func() {
		p := scene.DefaultCityParams()
		p.BlocksX, p.BlocksY = 2, 2
		p.BuildingsPerBlock = 4
		p.BlobsPerBlock = 2
		p.BlobDetail = 8
		p.NominalBytes = 32 << 20
		sc := scene.Generate(p)
		d := storage.NewDisk(0, storage.DefaultCostModel())
		bp := DefaultBuildParams()
		bp.Grid = cells.NewGrid(sc.ViewRegion, 4, 4)
		bp.DirsPerViewpoint = 512
		bp.SamplesPerCell = 1
		tr, vis, err := Build(sc, d, bp)
		if err != nil {
			panic(err)
		}
		fixTree, fixVis = tr, vis
	})
	if fixTree == nil {
		t.Fatal("fixture failed")
	}
	return fixTree, fixVis
}

func TestBuildStructure(t *testing.T) {
	tr, _ := fixture(t)
	if tr.NumNodes() < 3 {
		t.Fatalf("only %d nodes", tr.NumNodes())
	}
	root := tr.Root()
	if root.ID != 0 || root.Leaf {
		t.Fatal("root malformed")
	}
	if root.LeafDescendants != len(tr.Scene.Objects) {
		t.Fatalf("root leaf descendants %d, want %d", root.LeafDescendants, len(tr.Scene.Objects))
	}
	// DFS preorder: children have higher IDs than parents; heights
	// decrease down the tree; balanced leaves.
	for _, n := range tr.Nodes {
		if n.Leaf {
			if n.SubtreeHeight != 0 {
				t.Fatalf("leaf %d has height %d", n.ID, n.SubtreeHeight)
			}
			if len(n.Entries) != n.LeafDescendants {
				t.Fatalf("leaf %d entries %d != descendants %d", n.ID, len(n.Entries), n.LeafDescendants)
			}
			continue
		}
		sum := 0
		for _, e := range n.Entries {
			if e.ChildID <= n.ID {
				t.Fatalf("node %d has child %d not in preorder", n.ID, e.ChildID)
			}
			c := tr.Nodes[e.ChildID]
			if c.SubtreeHeight != n.SubtreeHeight-1 {
				t.Fatalf("node %d height %d, child %d height %d (unbalanced)",
					n.ID, n.SubtreeHeight, c.ID, c.SubtreeHeight)
			}
			sum += c.LeafDescendants
		}
		if sum != n.LeafDescendants {
			t.Fatalf("node %d descendants %d != children sum %d", n.ID, n.LeafDescendants, sum)
		}
	}
}

func TestBuildInternalLoDs(t *testing.T) {
	tr, _ := fixture(t)
	if tr.SMeasured <= 0 || tr.SMeasured >= 1 {
		t.Fatalf("measured s = %v, want (0,1)", tr.SMeasured)
	}
	for _, n := range tr.Nodes {
		if n.InternalLoD == nil {
			t.Fatalf("node %d has no internal LoD", n.ID)
		}
		if err := n.InternalLoD.Validate(); err != nil {
			t.Fatalf("node %d: %v", n.ID, err)
		}
		if len(n.InternalExtents) != n.InternalLoD.NumLevels() {
			t.Fatalf("node %d extents/levels mismatch", n.ID)
		}
		for li, ex := range n.InternalExtents {
			if ex.NominalBytes < ex.RealBytes || ex.RealBytes <= 0 {
				t.Fatalf("node %d level %d extent %+v malformed", n.ID, li, ex)
			}
			if n.InternalPolys[li] != n.InternalLoD.Levels[li].NumTriangles() {
				t.Fatalf("node %d level %d poly count mismatch", n.ID, li)
			}
		}
	}
	// The root's internal LoD must be far coarser than the scene.
	rootPolys := tr.Root().InternalPolys[0]
	if rootPolys >= tr.Scene.TotalTriangles()/2 {
		t.Fatalf("root internal LoD has %d polys of %d total", rootPolys, tr.Scene.TotalTriangles())
	}
}

func TestNodeRecordRoundTrip(t *testing.T) {
	tr, _ := fixture(t)
	for _, n := range tr.Nodes {
		got, err := DecodeNodeRecord(n.EncodeRecord())
		if err != nil {
			t.Fatalf("node %d: %v", n.ID, err)
		}
		if got.ID != n.ID || got.Leaf != n.Leaf ||
			got.SubtreeHeight != n.SubtreeHeight ||
			got.LeafDescendants != n.LeafDescendants ||
			len(got.Entries) != len(n.Entries) {
			t.Fatalf("node %d header mismatch", n.ID)
		}
		for i := range n.Entries {
			a, b := got.Entries[i], n.Entries[i]
			if a.MBR != b.MBR || a.ChildID != b.ChildID || a.ObjectID != b.ObjectID {
				t.Fatalf("node %d entry %d mismatch", n.ID, i)
			}
			if len(a.LoDRefs) != len(b.LoDRefs) {
				t.Fatalf("node %d entry %d LoD ref count mismatch", n.ID, i)
			}
			for j := range b.LoDRefs {
				if a.LoDRefs[j] != b.LoDRefs[j] || a.LoDPolys[j] != b.LoDPolys[j] {
					t.Fatalf("node %d entry %d LoD ref %d mismatch", n.ID, i, j)
				}
			}
		}
		for i := range n.InternalExtents {
			if got.InternalExtents[i] != n.InternalExtents[i] ||
				got.InternalPolys[i] != n.InternalPolys[i] {
				t.Fatalf("node %d LoD ref %d mismatch", n.ID, i)
			}
		}
	}
}

func TestNodeRecordDecodeErrors(t *testing.T) {
	tr, _ := fixture(t)
	buf := tr.Root().EncodeRecord()
	if _, err := DecodeNodeRecord(buf[:4]); err == nil {
		t.Fatal("short record accepted")
	}
	if _, err := DecodeNodeRecord(buf[:len(buf)-4]); err == nil {
		t.Fatal("truncated record accepted")
	}
	bad := append([]byte(nil), buf...)
	bad[0] ^= 0xff
	if _, err := DecodeNodeRecord(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReadNodeRecordFromDisk(t *testing.T) {
	tr, _ := fixture(t)
	before := tr.Disk.Stats()
	n, err := tr.ReadNodeRecord(0)
	if err != nil {
		t.Fatal(err)
	}
	if n.ID() != 0 || n.NumEntries() != len(tr.Root().Entries) {
		t.Fatal("disk root mismatch")
	}
	d := tr.Disk.Stats().Sub(before)
	if d.LightReads != int64(tr.NodeStride()) {
		t.Fatalf("node read charged %d light pages, want %d", d.LightReads, tr.NodeStride())
	}
	if d.HeavyReads != 0 {
		t.Fatal("node read charged heavy I/O")
	}
	if _, err := tr.ReadNodeRecord(NodeID(tr.NumNodes())); err == nil {
		t.Fatal("out-of-range node read accepted")
	}
}

func TestVisDataInvariants(t *testing.T) {
	tr, vis := fixture(t)
	if len(vis.PerCell) != tr.Grid.NumCells() {
		t.Fatalf("vis has %d cells, want %d", len(vis.PerCell), tr.Grid.NumCells())
	}
	if err := tr.CheckVisDataInvariants(vis); err != nil {
		t.Fatal(err)
	}
	// The eye is inside the city: something must be visible everywhere.
	for cell, perNode := range vis.PerCell {
		if perNode[0] == nil {
			t.Fatalf("cell %d: root invisible", cell)
		}
	}
	// N_vnode bound of equation 7: N_vnode <= N_vobj * levels.
	for cell, perNode := range vis.PerCell {
		var nvobj int32
		for _, v := range perNode[0] {
			nvobj += v.NVO
		}
		levels := tr.Root().SubtreeHeight + 1
		if got := vis.VisibleNodes(cell); got > int(nvobj)*levels {
			t.Fatalf("cell %d: N_vnode %d > N_vobj %d * levels %d", cell, got, nvobj, levels)
		}
	}
	if vis.AvgVisibleNodes() <= 0 {
		t.Fatal("average visible nodes zero")
	}
}

func TestLeafAndInternalDetail(t *testing.T) {
	if LeafDetail(0.5) != 1 || LeafDetail(1) != 1 {
		t.Fatal("LeafDetail cap broken")
	}
	if got := LeafDetail(0.25); got != 0.5 {
		t.Fatalf("LeafDetail(0.25) = %v", got)
	}
	if InternalDetail(0.001, 0.002) != 0.5 {
		t.Fatal("InternalDetail ratio broken")
	}
	if InternalDetail(0.01, 0.002) != 1 {
		t.Fatal("InternalDetail cap broken")
	}
	if InternalDetail(0.5, 0) != 1 {
		t.Fatal("InternalDetail zero-eta guard broken")
	}
}

func TestTerminateHeuristic(t *testing.T) {
	// Measured equation-3 guard: terminate iff internalPolys < nvo*rho*f.
	if !TerminateHeuristic(100, 50, 1, 3) { // 100 < 150
		t.Fatal("cheap internal LoD should terminate")
	}
	if TerminateHeuristic(100, 50, 1, 2) { // 100 !< 100
		t.Fatal("equal cost should not terminate")
	}
	// rho scales the visible side down (coarse retrieval).
	if TerminateHeuristic(100, 50, 0.25, 3) { // 100 !< 37.5
		t.Fatal("rho should make termination harder")
	}
	if !TerminateHeuristic(100, 50, 0.25, 9) { // 100 < 112.5
		t.Fatal("many visible objects should overcome rho")
	}
	// Degenerate inputs never terminate.
	if TerminateHeuristic(100, 50, 1, 0) || TerminateHeuristic(0, 50, 1, 5) ||
		TerminateHeuristic(100, 0, 1, 5) {
		t.Fatal("degenerate inputs should not terminate")
	}
	// Out-of-range rho falls back to 1.
	if TerminateHeuristic(100, 50, -3, 3) != TerminateHeuristic(100, 50, 1, 3) {
		t.Fatal("invalid rho fallback broken")
	}
}

func TestHeuristicMatchesEquation4(t *testing.T) {
	// When the internal LoD obeys the paper's m*f*s^h model exactly and
	// rho = 1, the measured guard reproduces equation 4's decision:
	// h(1 + log_M s) < log_M n  <=>  m*f*s^h < f*n with m = M^h.
	M := 8
	s := 0.4
	f := 100.0
	for h := 1; h <= 3; h++ {
		m := 1
		for i := 0; i < h; i++ {
			m *= M
		}
		internal := EstimatedInternalPolys(m, f, s, h)
		for _, nvo := range []int32{1, 2, 5, 10, 11, 50, 100, 500} {
			lhs := float64(h) * (1 + math.Log(s)/math.Log(float64(M)))
			rhs := math.Log(float64(nvo)) / math.Log(float64(M))
			want := lhs < rhs
			got := TerminateHeuristic(internal, f, 1, nvo)
			if got != want {
				t.Fatalf("h=%d nvo=%d: measured %v, equation 4 %v", h, nvo, got, want)
			}
		}
	}
	if EstimatedInternalPolys(8, 100, 0.5, 0) != EstimatedInternalPolys(8, 100, 0.5, 1) {
		t.Fatal("h clamp broken")
	}
}

func TestChooseLevel(t *testing.T) {
	if chooseLevel(1, 4) != 0 || chooseLevel(0.99, 4) != 0 {
		t.Fatal("high detail should pick level 0")
	}
	if chooseLevel(0, 4) != 3 || chooseLevel(-1, 4) != 3 {
		t.Fatal("low detail should pick last level")
	}
	if chooseLevel(0.5, 1) != 0 {
		t.Fatal("single level must be 0")
	}
	prev := 4
	for k := 0.0; k <= 1.0; k += 0.01 {
		l := chooseLevel(k, 4)
		if l > prev {
			t.Fatalf("chooseLevel not monotone at k=%v", k)
		}
		prev = l
	}
}

func TestInterpolatePolys(t *testing.T) {
	if got := interpolatePolys(1000, 100, 1); got != 1000 {
		t.Fatalf("k=1: %v", got)
	}
	if got := interpolatePolys(1000, 100, 0); got != 100 {
		t.Fatalf("k=0: %v", got)
	}
	if got := interpolatePolys(1000, 100, 0.5); got != 550 {
		t.Fatalf("k=0.5: %v", got)
	}
}

func TestQueryWithoutVStore(t *testing.T) {
	tr, _ := fixture(t)
	saved := tr.vstore
	tr.SetVStore(nil)
	defer tr.SetVStore(saved)
	if _, err := tr.Query(0, 0.001); err != ErrNoVStore {
		t.Fatalf("err = %v", err)
	}
}

func TestBuildWithItemBufferBackend(t *testing.T) {
	// Building with the rasterizing DoV backend must produce a visibility
	// field close to the ray-cast one: identical structure, DoV values
	// within discretization error, and the same §3.2 invariants.
	p := scene.DefaultCityParams()
	p.BlocksX, p.BlocksY = 2, 2
	p.BuildingsPerBlock = 3
	p.BlobsPerBlock = 1
	p.BlobDetail = 8
	p.NominalBytes = 0
	sc := scene.Generate(p)

	build := func(itemBuffer bool) (*Tree, *VisData) {
		d := storage.NewDisk(0, storage.DefaultCostModel())
		bp := DefaultBuildParams()
		bp.Grid = cells.NewGrid(sc.ViewRegion, 3, 3)
		bp.DirsPerViewpoint = 4096
		bp.SamplesPerCell = 1
		bp.UseItemBuffer = itemBuffer
		bp.ItemBufferRes = 96
		tr, vis, err := Build(sc, d, bp)
		if err != nil {
			t.Fatal(err)
		}
		return tr, vis
	}
	trRays, visRays := build(false)
	trIB, visIB := build(true)

	if err := trIB.CheckVisDataInvariants(visIB); err != nil {
		t.Fatal(err)
	}
	if trRays.NumNodes() != trIB.NumNodes() {
		t.Fatal("backends changed the tree")
	}
	// Compare root-entry DoV sums per cell (total visible mass).
	for c := 0; c < trRays.Grid.NumCells(); c++ {
		var a, b float64
		for _, v := range visRays.PerCell[cells.CellID(c)][0] {
			a += v.DoV
		}
		for _, v := range visIB.PerCell[cells.CellID(c)][0] {
			b += v.DoV
		}
		if diff := a - b; diff > 0.05 || diff < -0.05 {
			t.Fatalf("cell %d: ray mass %v vs item-buffer mass %v", c, a, b)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	d := storage.NewDisk(0, storage.DefaultCostModel())
	if _, _, err := Build(nil, d, DefaultBuildParams()); err == nil {
		t.Fatal("nil scene accepted")
	}
	if _, _, err := Build(&scene.Scene{}, d, DefaultBuildParams()); err == nil {
		t.Fatal("empty scene accepted")
	}
	sc := scene.Generate(func() scene.CityParams {
		p := scene.DefaultCityParams()
		p.BlocksX, p.BlocksY = 1, 1
		p.BuildingsPerBlock = 2
		p.BlobsPerBlock = 0
		p.NominalBytes = 0
		return p
	}())
	if _, _, err := Build(sc, nil, DefaultBuildParams()); err == nil {
		t.Fatal("nil disk accepted")
	}
}
