package hdov

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

var (
	dbOnce sync.Once
	dbFix  *DB
)

// testConfig is the shared fixture's configuration.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Scene.Blocks = 2
	cfg.GridCells = 6
	cfg.DoVRays = 256
	cfg.Scene.NominalBytes = 16 << 20
	return cfg
}

func testDB(t *testing.T) *DB {
	t.Helper()
	dbOnce.Do(func() {
		db, err := Build(testConfig())
		if err != nil {
			panic(err)
		}
		dbFix = db
	})
	if dbFix == nil {
		t.Fatal("fixture failed")
	}
	return dbFix
}

// allSchemes lists the three V-page layouts.
var allSchemes = []Scheme{SchemeIndexedVertical, SchemeVertical, SchemeHorizontal}

// buildSchemes builds one DB per scheme from cfg, in allSchemes order. A
// DB lays out only its own scheme, so comparing layouts takes one DB
// each.
func buildSchemes(cfg Config) ([]*DB, error) {
	dbs := make([]*DB, 0, len(allSchemes))
	for _, s := range allSchemes {
		cfg.Scheme = s
		db, err := Build(cfg)
		if err != nil {
			for _, d := range dbs {
				d.Close()
			}
			return nil, fmt.Errorf("%v: %w", s, err)
		}
		dbs = append(dbs, db)
	}
	return dbs, nil
}

var (
	schemesOnce sync.Once
	schemesFix  []*DB
)

// testSchemeDBs returns the shared fixture built once per scheme, in
// allSchemes order.
func testSchemeDBs(t *testing.T) []*DB {
	t.Helper()
	schemesOnce.Do(func() {
		dbs, err := buildSchemes(testConfig())
		if err != nil {
			panic(err)
		}
		schemesFix = dbs
	})
	if schemesFix == nil {
		t.Fatal("fixture failed")
	}
	return schemesFix
}

func centerPoint(db *DB) Point {
	min, max := db.ViewRegion()
	return Pt((min.X+max.X)/2, (min.Y+max.Y)/2, (min.Z+max.Z)/2)
}

func TestBuildShape(t *testing.T) {
	db := testDB(t)
	if db.NumObjects() == 0 || db.NumNodes() == 0 || db.NumCells() != 36 {
		t.Fatalf("shape: %d objects %d nodes %d cells", db.NumObjects(), db.NumNodes(), db.NumCells())
	}
	if db.NominalBytes() < 15<<20 {
		t.Fatalf("nominal = %d", db.NominalBytes())
	}
	min, max := db.Bounds()
	if !(max.X > min.X && max.Y > min.Y && max.Z > min.Z) {
		t.Fatal("degenerate bounds")
	}
	// Each DB reports only its own layout's footprint.
	var sz StorageSizes
	for _, db := range testSchemeDBs(t) {
		own := db.StorageSizes()
		sz.Horizontal += own.Horizontal
		sz.Vertical += own.Vertical
		sz.IndexedVertical += own.IndexedVertical
		if own.Horizontal+own.Vertical+own.IndexedVertical != db.vs.SizeBytes() {
			t.Fatalf("%v: sizes %+v besides its own layout's", db.Scheme(), own)
		}
	}
	if !(sz.Horizontal > sz.Vertical && sz.Vertical > 0 && sz.IndexedVertical > 0) {
		t.Fatalf("sizes: %+v", sz)
	}
}

func TestQueryAndFetch(t *testing.T) {
	db := testDB(t)
	p := centerPoint(db)
	s := db.NewSession()
	res, err := s.QueryCell(db.CellOf(p), 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) == 0 {
		t.Fatal("no items at city center")
	}
	if res.LightIO == 0 || res.SimTime == 0 {
		t.Fatal("no light I/O charged")
	}
	if res.HeavyIO != 0 {
		t.Fatal("heavy I/O before Fetch")
	}
	if err := s.Fetch(res); err != nil {
		t.Fatal(err)
	}
	if res.HeavyIO == 0 {
		t.Fatal("no heavy I/O after Fetch")
	}
	// Outside the grid.
	if _, err := s.QueryCell(db.CellOf(Pt(-1000, 0, 0)), 0.001); !errors.Is(err, ErrOutsideCells) {
		t.Fatalf("outside error = %v", err)
	}
	if _, err := s.QueryCell(-1, 0.001); err == nil {
		t.Fatal("negative cell accepted")
	}
	if _, err := s.QueryCell(db.NumCells(), 0.001); err == nil {
		t.Fatal("out-of-range cell accepted")
	}
	if got := db.CellOf(p); got != res.Cell {
		t.Fatalf("CellOf = %d, result cell %d", got, res.Cell)
	}
}

func TestSchemesAgreeThroughAPI(t *testing.T) {
	p := centerPoint(testDB(t))
	var counts [3]int
	for i, db := range testSchemeDBs(t) {
		s := allSchemes[i]
		if db.Scheme() != s {
			t.Fatalf("scheme not set: %v", db.Scheme())
		}
		res, err := db.NewSession().QueryCell(db.CellOf(p), 0.002)
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = len(res.Items)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Fatalf("schemes disagree: %v", counts)
	}
}

func TestLoadMeshAPI(t *testing.T) {
	db := testDB(t)
	res, err := db.NewSession().QueryCell(db.CellOf(centerPoint(db)), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res.Items[:minInt(len(res.Items), 5)] {
		m, err := db.LoadMesh(it)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Vertices) == 0 || len(m.Triangles) == 0 {
			t.Fatal("empty mesh")
		}
		for _, tri := range m.Triangles {
			for _, idx := range tri {
				if idx < 0 || idx >= len(m.Vertices) {
					t.Fatal("index out of range")
				}
			}
		}
	}
	if _, err := db.LoadMesh(Item{ObjectID: -1, NodeID: -1}); err == nil {
		t.Fatal("invalid item accepted")
	}
	if _, err := db.LoadMesh(Item{ObjectID: 0, Level: 99}); err == nil {
		t.Fatal("bad level accepted")
	}
}

func TestFidelityAPI(t *testing.T) {
	db := testDB(t)
	p := centerPoint(db)
	res, err := db.NewSession().QueryCell(db.CellOf(p), 0.001)
	if err != nil {
		t.Fatal(err)
	}
	f := db.Fidelity(p, res)
	if f.VisibleObjects == 0 {
		t.Fatal("nothing visible at center")
	}
	if f.Coverage < 0 || f.Coverage > 1 || f.DetailFidelity < 0 || f.DetailFidelity > 1 {
		t.Fatalf("fidelity out of range: %+v", f)
	}
	if f.CoveredObjects+f.MissedObjects != f.VisibleObjects {
		t.Fatalf("counts inconsistent: %+v", f)
	}
}

func TestWalkthroughAPI(t *testing.T) {
	db := testDB(t)
	for _, kind := range []SessionKind{SessionNormal, SessionTurning, SessionBackForward} {
		ws, err := db.Walkthrough(WalkOptions{Session: kind, Frames: 120, Eta: 0.001, Delta: true})
		if err != nil {
			t.Fatal(err)
		}
		if ws.Frames != 120 || len(ws.FrameTimesMS) != 120 {
			t.Fatalf("%v: frames %d", kind, ws.Frames)
		}
		if ws.AvgFrameMS <= 0 {
			t.Fatalf("%v: avg frame %v", kind, ws.AvgFrameMS)
		}
	}
	// REVIEW playback via the API.
	rs, err := db.Walkthrough(WalkOptions{Session: SessionNormal, Frames: 120, UseREVIEW: true, Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	vs, err := db.Walkthrough(WalkOptions{Session: SessionNormal, Frames: 120, Eta: 0.001, Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	if vs.AvgFrameMS >= rs.AvgFrameMS {
		t.Fatalf("VISUAL %v not faster than REVIEW %v", vs.AvgFrameMS, rs.AvgFrameMS)
	}
}

func TestDiskStatsAPI(t *testing.T) {
	db := testDB(t)
	db.ResetDiskStats()
	if s := db.DiskStats(); s.Reads != 0 {
		t.Fatal("reset failed")
	}
	if _, err := db.NewSession().QueryCell(db.CellOf(centerPoint(db)), 0.001); err != nil {
		t.Fatal(err)
	}
	s := db.DiskStats()
	if s.Reads == 0 || s.LightReads == 0 || s.SimTime == 0 {
		t.Fatalf("stats empty: %+v", s)
	}
}

func TestStringers(t *testing.T) {
	if SchemeHorizontal.String() != "horizontal" || Scheme(99).String() == "" {
		t.Fatal("scheme stringer")
	}
	if SessionNormal.String() != "normal" || SessionKind(99).String() == "" {
		t.Fatal("session stringer")
	}
	if Pt(1, 2, 3).String() == "" {
		t.Fatal("point stringer")
	}
	if Pt(1, 2, 3).Dist(Pt(1, 2, 8)) != 5 {
		t.Fatal("point dist")
	}
	if Pt(3, 2, 1).Sub(Pt(1, 1, 1)) != Pt(2, 1, 0) {
		t.Fatal("point sub")
	}
}

func TestBuildVariantsAPI(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scene.Blocks = 2
	cfg.GridCells = 4
	cfg.DoVRays = 256
	cfg.ItemBufferRes = 48
	cfg.Scene.NominalBytes = 8 << 20

	cfg.UseItemBuffer = true
	cfg.BulkLoad = true
	db, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.NewSession().QueryCell(db.CellOf(db.DefaultViewpoint()), 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) == 0 {
		t.Fatal("item-buffer + bulk-load build returned nothing")
	}
	// Bulk-loaded tree is typically smaller than an inserted one.
	cfg2 := cfg
	cfg2.UseItemBuffer = false
	cfg2.BulkLoad = false
	db2, err := Build(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumNodes() > db2.NumNodes() {
		t.Fatalf("bulk-load produced more nodes: %d vs %d", db.NumNodes(), db2.NumNodes())
	}
	// Both cover the same visible objects from the same viewpoint.
	f := db.Fidelity(db.CellViewpoint(db.CellOf(db.DefaultViewpoint())), mustQuery(t, db, db.CellViewpoint(db.CellOf(db.DefaultViewpoint())), 0))
	if f.MissedObjects != 0 {
		t.Fatalf("item-buffer build missed %d objects at its own sample point", f.MissedObjects)
	}
}

func mustQuery(t *testing.T, db *DB, p Point, eta float64) *Result {
	t.Helper()
	res, err := db.NewSession().QueryCell(db.CellOf(p), eta)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSaveOpenAPI(t *testing.T) {
	db := testDB(t)
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumObjects() != db.NumObjects() || got.NumNodes() != db.NumNodes() ||
		got.NumCells() != db.NumCells() {
		t.Fatal("reopened shape differs")
	}
	p := centerPoint(db)
	want, err := db.NewSession().QueryCell(db.CellOf(p), 0.002)
	if err != nil {
		t.Fatal(err)
	}
	gs := got.NewSession()
	have, err := gs.QueryCell(got.CellOf(p), 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Items) != len(have.Items) {
		t.Fatalf("reopened query: %d vs %d items", len(have.Items), len(want.Items))
	}
	for i := range want.Items {
		if want.Items[i] != have.Items[i] {
			t.Fatalf("item %d differs after reopen", i)
		}
	}
	if err := gs.Fetch(have); err != nil {
		t.Fatal(err)
	}
	// Walkthrough works on a reopened database.
	ws, err := got.Walkthrough(WalkOptions{Session: SessionNormal, Frames: 60, Eta: 0.001, Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	if ws.Frames != 60 {
		t.Fatal("reopened walkthrough truncated")
	}
	// Opening garbage fails cleanly.
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("empty dir opened")
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
