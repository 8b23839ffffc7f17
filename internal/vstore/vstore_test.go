package vstore

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/scene"
	"repro/internal/storage"
)

var (
	fixOnce sync.Once
	fixTree *core.Tree
	fixVis  *core.VisData
	fixH    *Horizontal
	fixV    *Vertical
	fixIV   *IndexedVertical
)

func fixture(t testing.TB) (*core.Tree, *core.VisData) {
	t.Helper()
	fixOnce.Do(func() {
		p := scene.DefaultCityParams()
		p.BlocksX, p.BlocksY = 2, 2
		p.BuildingsPerBlock = 4
		p.BlobsPerBlock = 2
		p.BlobDetail = 8
		p.NominalBytes = 16 << 20
		sc := scene.Generate(p)
		d := storage.NewDisk(0, storage.DefaultCostModel())
		bp := core.DefaultBuildParams()
		// A 16x16 grid gives enough cells that horizontal V-page arrays
		// span many pages per node, exposing the locality differences the
		// schemes are about.
		bp.Grid = cells.NewGrid(sc.ViewRegion, 16, 16)
		bp.DirsPerViewpoint = 256
		bp.SamplesPerCell = 1
		tr, vis, err := core.Build(sc, d, bp)
		if err != nil {
			panic(err)
		}
		fixTree, fixVis = tr, vis
		if fixH, err = BuildHorizontal(d, vis, 0); err != nil {
			panic(err)
		}
		if fixV, err = BuildVertical(d, vis, 0); err != nil {
			panic(err)
		}
		if fixIV, err = BuildIndexedVertical(d, vis, 0); err != nil {
			panic(err)
		}
	})
	if fixTree == nil {
		t.Fatal("fixture failed")
	}
	return fixTree, fixVis
}

func TestVPageCodecRoundTrip(t *testing.T) {
	vd := []core.VD{{DoV: 0.123, NVO: 4}, {DoV: 0, NVO: 0}, {DoV: 1e-6, NVO: 1}}
	buf, err := encodeVPage(vd, 4096)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeVPage(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vd) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range vd {
		if got[i] != vd[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], vd[i])
		}
	}
}

func TestPropVPageCodecRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw) % 30
		vd := make([]core.VD, n)
		for i := range vd {
			vd[i] = core.VD{DoV: r.Float64(), NVO: int32(r.Intn(1000))}
		}
		buf, err := encodeVPage(vd, 4096)
		if err != nil {
			return false
		}
		got, err := decodeVPage(nil, buf)
		if err != nil {
			return false
		}
		if n == 0 {
			return got == nil
		}
		if len(got) != n {
			return false
		}
		for i := range vd {
			if got[i] != vd[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSlotTable(t *testing.T) {
	d := storage.NewDisk(256, storage.DefaultCostModel())
	tbl := newSlotTable(d, 64, 10) // 4 slots per 256-byte page
	if tbl.perPage != 4 {
		t.Fatalf("perPage = %d", tbl.perPage)
	}
	// Writes to different slots of the same page must not clobber.
	for i := int64(0); i < 10; i++ {
		buf := []byte{byte(i), byte(i + 1)}
		if err := tbl.write(d, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 10; i++ {
		got, err := tbl.read(d, i, storage.ClassLight)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) || got[1] != byte(i+1) {
			t.Fatalf("slot %d corrupted: % x", i, got[:2])
		}
		if len(got) != 64 {
			t.Fatalf("slot %d length %d", i, len(got))
		}
	}
	// Bounds and size checks.
	if err := tbl.write(d, 10, []byte{1}); err == nil {
		t.Fatal("out-of-range write accepted")
	}
	if err := tbl.write(d, -1, []byte{1}); err == nil {
		t.Fatal("negative slot accepted")
	}
	if err := tbl.write(d, 0, make([]byte, 65)); err == nil {
		t.Fatal("oversized slot write accepted")
	}
	if _, err := tbl.read(d, 10, storage.ClassLight); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	// Oversized slot requests degrade to one slot per page; the schemes
	// never build such tables because resolveVPageBytes clamps V-page
	// sizes to the disk page first — assert that invariant too.
	big := newSlotTable(d, 300, 3)
	if big.perPage != 1 {
		t.Fatalf("big perPage = %d", big.perPage)
	}
	if got := resolveVPageBytes(d, 300); got != 256 {
		t.Fatalf("resolveVPageBytes(300) = %d, want clamp to page size", got)
	}
	if got := resolveVPageBytes(d, 0); got != DefaultVPageBytes {
		t.Fatalf("resolveVPageBytes(0) = %d", got)
	}
}

func TestVPageCodecErrors(t *testing.T) {
	// Too many entries for the page.
	many := make([]core.VD, 400)
	if _, err := encodeVPage(many, 64); err == nil {
		t.Fatal("overflow accepted")
	}
	if _, err := decodeVPage(nil, []byte{1}); err == nil {
		t.Fatal("short buffer accepted")
	}
	// Count says 3 entries but buffer is short.
	buf, _ := encodeVPage([]core.VD{{DoV: 1, NVO: 1}}, 4096)
	buf[0] = 3
	if _, err := decodeVPage(nil, buf); err == nil {
		t.Fatal("truncated entries accepted")
	}
	// Zero page decodes to nil (invisible).
	got, err := decodeVPage(nil, make([]byte, 64))
	if err != nil || got != nil {
		t.Fatalf("zero page: %v %v", got, err)
	}
}

func TestSchemesReturnIdenticalVD(t *testing.T) {
	tr, vis := fixture(t)
	schemes := []core.VStore{fixH, fixV, fixIV}
	for c := 0; c < tr.Grid.NumCells(); c++ {
		cell := cells.CellID(c)
		for _, s := range schemes {
			if err := s.SetCell(cell); err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
		}
		for id := 0; id < tr.NumNodes(); id++ {
			want := vis.PerCell[cell][id]
			for _, s := range schemes {
				vd, ok, err := s.NodeVD(core.NodeID(id), nil)
				if err != nil {
					t.Fatalf("%s cell %d node %d: %v", s.Name(), cell, id, err)
				}
				if ok != (want != nil) {
					t.Fatalf("%s cell %d node %d: ok=%v, want %v", s.Name(), cell, id, ok, want != nil)
				}
				if !ok {
					continue
				}
				if len(vd) != len(want) {
					t.Fatalf("%s cell %d node %d: %d entries, want %d", s.Name(), cell, id, len(vd), len(want))
				}
				for ei := range want {
					if vd[ei] != want[ei] {
						t.Fatalf("%s cell %d node %d entry %d: %+v != %+v",
							s.Name(), cell, id, ei, vd[ei], want[ei])
					}
				}
			}
		}
	}
}

// sparseVisData fabricates a visibility field with the paper's sparsity
// regime: many nodes, few visible per cell (N_vnode << N_node).
func sparseVisData(t *testing.T, numNodes, nx, ny int, visibleFrac float64, seed int64) *core.VisData {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	grid := cells.NewGrid(geom.Box(geom.V(0, 0, 0), geom.V(100, 100, 1)), nx, ny)
	vis := &core.VisData{
		NumNodes: numNodes,
		Grid:     grid,
		PerCell:  make(map[cells.CellID][][]core.VD, grid.NumCells()),
	}
	for c := 0; c < grid.NumCells(); c++ {
		perNode := make([][]core.VD, numNodes)
		for id := 0; id < numNodes; id++ {
			if r.Float64() >= visibleFrac {
				continue
			}
			n := 2 + r.Intn(7)
			vd := make([]core.VD, n)
			for i := range vd {
				vd[i] = core.VD{DoV: r.Float64() * 0.01, NVO: int32(1 + r.Intn(5))}
			}
			perNode[id] = vd
		}
		// Keep node 0 visible so traversals have a root to start from.
		if perNode[0] == nil {
			perNode[0] = []core.VD{{DoV: 0.001, NVO: 1}}
		}
		vis.PerCell[cells.CellID(c)] = perNode
	}
	return vis
}

func TestStorageCostOrdering(t *testing.T) {
	// Table 2 regime: N_vnode is a small fraction of N_node.
	vis := sparseVisData(t, 500, 10, 10, 0.1, 42)
	d := storage.NewDisk(0, storage.DefaultCostModel())
	h, err := BuildHorizontal(d, vis, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := BuildVertical(d, vis, 0)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := BuildIndexedVertical(d, vis, 0)
	if err != nil {
		t.Fatal(err)
	}
	hs, vs, ivs := h.SizeBytes(), v.SizeBytes(), iv.SizeBytes()
	// Table 2 ordering: horizontal >> vertical > indexed-vertical.
	if hs <= vs {
		t.Fatalf("horizontal %d not larger than vertical %d", hs, vs)
	}
	if vs <= ivs {
		t.Fatalf("vertical %d not larger than indexed %d", vs, ivs)
	}
	if hs < 3*ivs {
		t.Fatalf("horizontal %d should dwarf indexed %d (paper: ~20x)", hs, ivs)
	}
	// Sizes follow the paper's closed forms.
	wantH := int64(DefaultVPageBytes) * int64(vis.Grid.NumCells()) * int64(vis.NumNodes)
	if hs != wantH {
		t.Fatalf("horizontal size %d, want %d", hs, wantH)
	}
	totalVis := 0
	for c := 0; c < vis.Grid.NumCells(); c++ {
		totalVis += vis.VisibleNodes(cells.CellID(c))
	}
	wantV := int64(8)*int64(vis.NumNodes)*int64(vis.Grid.NumCells()) + int64(DefaultVPageBytes)*int64(totalVis)
	if vs != wantV {
		t.Fatalf("vertical size %d, want %d", vs, wantV)
	}
	wantIV := int64(12)*int64(totalVis) + int64(DefaultVPageBytes)*int64(totalVis) + int64(12*vis.Grid.NumCells())
	if ivs != wantIV {
		t.Fatalf("indexed size %d, want %d", ivs, wantIV)
	}
}

func TestSparseSchemesAgree(t *testing.T) {
	vis := sparseVisData(t, 200, 6, 6, 0.15, 7)
	d := storage.NewDisk(0, storage.DefaultCostModel())
	h, err := BuildHorizontal(d, vis, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := BuildVertical(d, vis, 0)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := BuildIndexedVertical(d, vis, 0)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < vis.Grid.NumCells(); c++ {
		cell := cells.CellID(c)
		for _, s := range []core.VStore{h, v, iv} {
			if err := s.SetCell(cell); err != nil {
				t.Fatal(err)
			}
		}
		for id := 0; id < vis.NumNodes; id++ {
			want := vis.PerCell[cell][id]
			for _, s := range []core.VStore{h, v, iv} {
				vd, ok, err := s.NodeVD(core.NodeID(id), nil)
				if err != nil {
					t.Fatalf("%s: %v", s.Name(), err)
				}
				if ok != (want != nil) {
					t.Fatalf("%s cell %d node %d visibility mismatch", s.Name(), cell, id)
				}
				for i := range want {
					if vd[i] != want[i] {
						t.Fatalf("%s cell %d node %d entry %d mismatch", s.Name(), cell, id, i)
					}
				}
			}
		}
	}
}

func TestHorizontalNodeVDCost(t *testing.T) {
	tr, _ := fixture(t)
	if err := fixH.SetCell(0); err != nil {
		t.Fatal(err)
	}
	before := tr.Disk.Stats()
	_, _, err := fixH.NodeVD(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := tr.Disk.Stats().Sub(before)
	if d.LightReads != 1 {
		t.Fatalf("horizontal NodeVD cost %d pages, want 1", d.LightReads)
	}
	// Invisible node still costs a read in the horizontal scheme.
	invisible := core.NodeID(-1)
	for c := 0; c < tr.Grid.NumCells() && invisible < 0; c++ {
		_ = fixH.SetCell(cells.CellID(c))
		for id := 0; id < tr.NumNodes(); id++ {
			if fixTree != nil && fixVis.PerCell[cells.CellID(c)][id] == nil {
				invisible = core.NodeID(id)
				break
			}
		}
	}
	if invisible >= 0 {
		before = tr.Disk.Stats()
		_, ok, err := fixH.NodeVD(invisible, nil)
		if err != nil || ok {
			t.Fatalf("invisible node: ok=%v err=%v", ok, err)
		}
		if got := tr.Disk.Stats().Sub(before).LightReads; got != 1 {
			t.Fatalf("invisible NodeVD cost %d, want 1 (horizontal pays for invisibility)", got)
		}
	}
}

func TestVerticalFlipCostAndPruning(t *testing.T) {
	tr, vis := fixture(t)
	// Flip cost: vertical reads PagesFor(8*N_node) pages; indexed reads
	// PagesFor(12*N_vnode) pages.
	if err := fixV.SetCell(0); err != nil {
		t.Fatal(err)
	}
	if err := fixIV.SetCell(0); err != nil {
		t.Fatal(err)
	}
	before := tr.Disk.Stats()
	if err := fixV.SetCell(1); err != nil {
		t.Fatal(err)
	}
	vertFlip := tr.Disk.Stats().Sub(before).LightReads
	wantVert := int64(tr.Disk.PagesFor(int64(8 * tr.NumNodes())))
	if vertFlip != wantVert {
		t.Fatalf("vertical flip cost %d, want %d", vertFlip, wantVert)
	}
	before = tr.Disk.Stats()
	if err := fixIV.SetCell(1); err != nil {
		t.Fatal(err)
	}
	ivFlip := tr.Disk.Stats().Sub(before).LightReads
	wantIV := int64(tr.Disk.PagesFor(int64(12 * vis.VisibleNodes(1))))
	if ivFlip != wantIV {
		t.Fatalf("indexed flip cost %d, want %d", ivFlip, wantIV)
	}
	// Re-setting the same cell is free.
	before = tr.Disk.Stats()
	_ = fixV.SetCell(1)
	_ = fixIV.SetCell(1)
	if got := tr.Disk.Stats().Sub(before).Reads; got != 0 {
		t.Fatalf("same-cell flip cost %d reads", got)
	}
	// Invisible nodes answered from memory with zero I/O.
	var invisID core.NodeID = -1
	for id := 0; id < tr.NumNodes(); id++ {
		if vis.PerCell[1][id] == nil {
			invisID = core.NodeID(id)
			break
		}
	}
	if invisID >= 0 {
		before = tr.Disk.Stats()
		_, ok, err := fixV.NodeVD(invisID, nil)
		if err != nil || ok {
			t.Fatalf("vertical invisible: %v %v", ok, err)
		}
		_, ok, err = fixIV.NodeVD(invisID, nil)
		if err != nil || ok {
			t.Fatalf("indexed invisible: %v %v", ok, err)
		}
		if got := tr.Disk.Stats().Sub(before).Reads; got != 0 {
			t.Fatalf("invisible NodeVD cost %d reads in vertical schemes", got)
		}
	}
}

func TestSchemeErrorPaths(t *testing.T) {
	tr, _ := fixture(t)
	n := tr.Grid.NumCells()
	if err := fixH.SetCell(cells.CellID(n)); err == nil {
		t.Fatal("horizontal out-of-range cell accepted")
	}
	if err := fixV.SetCell(cells.CellID(-1)); err == nil {
		t.Fatal("vertical negative cell accepted")
	}
	if err := fixIV.SetCell(cells.CellID(n + 5)); err == nil {
		t.Fatal("indexed out-of-range cell accepted")
	}
	_ = fixH.SetCell(0)
	_ = fixV.SetCell(0)
	_ = fixIV.SetCell(0)
	bad := core.NodeID(tr.NumNodes() + 3)
	if _, _, err := fixH.NodeVD(bad, nil); err == nil {
		t.Fatal("horizontal bad node accepted")
	}
	if _, _, err := fixV.NodeVD(bad, nil); err == nil {
		t.Fatal("vertical bad node accepted")
	}
	if _, _, err := fixIV.NodeVD(bad, nil); err == nil {
		t.Fatal("indexed bad node accepted")
	}
	// Fresh schemes require SetCell before NodeVD.
	freshDisk := storage.NewDisk(0, storage.DefaultCostModel())
	vis2 := sparseVisData(t, 4, 2, 2, 0.5, 3)
	h2, err := BuildHorizontal(freshDisk, vis2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h2.NodeVD(0, nil); err == nil {
		t.Fatal("NodeVD before SetCell accepted")
	}
	v2, err := BuildVertical(freshDisk, vis2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v2.NodeVD(0, nil); err == nil {
		t.Fatal("vertical NodeVD before SetCell accepted")
	}
	iv2, err := BuildIndexedVertical(freshDisk, vis2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := iv2.NodeVD(0, nil); err == nil {
		t.Fatal("indexed NodeVD before SetCell accepted")
	}
}

func TestQueryEquivalenceAcrossSchemes(t *testing.T) {
	tr, _ := fixture(t)
	etas := []float64{0, 0.0005, 0.002, 0.008}
	for _, eta := range etas {
		var ref *core.QueryResult
		for _, s := range []core.VStore{fixH, fixV, fixIV} {
			tr.SetVStore(s)
			res, err := tr.Query(3, eta)
			if err != nil {
				t.Fatalf("%s eta=%v: %v", s.Name(), eta, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if len(res.Items) != len(ref.Items) {
				t.Fatalf("%s eta=%v: %d items, ref %d", s.Name(), eta, len(res.Items), len(ref.Items))
			}
			for i := range res.Items {
				a, b := res.Items[i], ref.Items[i]
				if a.ObjectID != b.ObjectID || a.NodeID != b.NodeID ||
					a.Level != b.Level || math.Abs(a.DoV-b.DoV) > 1e-12 {
					t.Fatalf("%s eta=%v item %d: %+v != %+v", s.Name(), eta, i, a, b)
				}
			}
		}
	}
}

func TestQuerySearchCostOrdering(t *testing.T) {
	tr, _ := fixture(t)
	// For a fresh cell the horizontal scheme's V-page reads are scattered
	// (one seek per node), while the vertical schemes scan nearly
	// sequentially; simulated search time must reflect that (Figure 7).
	eta := 0.0
	var times []float64
	for _, s := range []core.VStore{fixH, fixV, fixIV} {
		tr.SetVStore(s)
		// Average over all cells for stability; alternate cells to defeat
		// the same-cell flip optimization.
		var total float64
		for c := 0; c < tr.Grid.NumCells(); c++ {
			res, err := tr.Query(cells.CellID(c), eta)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Stats.SimTime.Seconds()
		}
		times = append(times, total)
	}
	if !(times[0] > times[1] && times[0] > times[2]) {
		t.Fatalf("horizontal %v should be slowest (vertical %v, indexed %v)",
			times[0], times[1], times[2])
	}
}
