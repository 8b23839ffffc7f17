package cells

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func testGrid() *Grid {
	return NewGrid(geom.Box(geom.V(0, 0, 1.5), geom.V(100, 80, 2.0)), 10, 8)
}

func TestGridBasics(t *testing.T) {
	g := testGrid()
	if g.NumCells() != 80 {
		t.Fatalf("cells = %d", g.NumCells())
	}
	cs := g.CellSize()
	if cs != geom.V(10, 10, 0.5) {
		t.Fatalf("cell size = %v", cs)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGridClampsDegenerate(t *testing.T) {
	g := NewGrid(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)), 0, -5)
	if g.NX != 1 || g.NY != 1 {
		t.Fatalf("grid %dx%d", g.NX, g.NY)
	}
	if (&Grid{NX: 0, NY: 1}).Validate() == nil {
		t.Fatal("invalid grid accepted")
	}
	if NewGrid(geom.EmptyAABB(), 2, 2).Validate() == nil {
		t.Fatal("empty bounds accepted")
	}
}

func TestNewGridChecked(t *testing.T) {
	b := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	g, err := NewGridChecked(b, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NX != 4 || g.NY != 3 {
		t.Fatalf("grid %dx%d", g.NX, g.NY)
	}
	bad := []struct {
		name   string
		bounds geom.AABB
		nx, ny int
	}{
		{"zero nx", b, 0, 3},
		{"zero ny", b, 4, 0},
		{"negative nx", b, -2, 3},
		{"negative ny", b, 4, -7},
		{"empty bounds", geom.EmptyAABB(), 4, 3},
	}
	for _, tc := range bad {
		if g, err := NewGridChecked(tc.bounds, tc.nx, tc.ny); err == nil {
			t.Fatalf("%s: accepted as %dx%d", tc.name, g.NX, g.NY)
		}
	}
}

func TestLocate(t *testing.T) {
	g := testGrid()
	if id := g.Locate(geom.V(5, 5, 1.7)); id != 0 {
		t.Fatalf("corner cell = %d", id)
	}
	if id := g.Locate(geom.V(95, 75, 1.7)); id != CellID(7*10+9) {
		t.Fatalf("far cell = %d", id)
	}
	if id := g.Locate(geom.V(-1, 5, 1.7)); id != NoCell {
		t.Fatalf("outside = %d", id)
	}
	if id := g.Locate(geom.V(5, 5, 5)); id != NoCell {
		t.Fatalf("above slab = %d", id)
	}
	// Max boundary belongs to the last cell.
	if id := g.Locate(geom.V(100, 80, 2.0)); id != CellID(79) {
		t.Fatalf("max corner = %d", id)
	}
}

func TestLocateCellBoundsRoundTrip(t *testing.T) {
	g := testGrid()
	for id := CellID(0); int(id) < g.NumCells(); id++ {
		b := g.CellBounds(id)
		if got := g.Locate(b.Center()); got != id {
			t.Fatalf("cell %d center locates to %d", id, got)
		}
		if got := g.Locate(g.Center(id)); got != id {
			t.Fatalf("cell %d Center() locates to %d", id, got)
		}
	}
}

func TestCellsDisjointAndCovering(t *testing.T) {
	g := testGrid()
	// Total cell volume equals grid volume (covering, disjoint).
	var vol float64
	for id := CellID(0); int(id) < g.NumCells(); id++ {
		vol += g.CellBounds(id).Volume()
	}
	if diff := vol - g.Bounds.Volume(); diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("cell volumes sum to %v, grid volume %v", vol, g.Bounds.Volume())
	}
	// Interior cells only overlap neighbors on boundaries.
	a := g.CellBounds(0)
	b := g.CellBounds(1)
	inter := a.Intersect(b)
	if !inter.IsEmpty() && inter.Volume() > 0 {
		t.Fatalf("adjacent cells overlap with volume %v", inter.Volume())
	}
}

func TestSamplePoints(t *testing.T) {
	g := testGrid()
	pts := g.SamplePoints(3, 2)
	if len(pts) != 5 {
		t.Fatalf("n=2 gives %d points, want 5", len(pts))
	}
	b := g.CellBounds(3)
	for i, p := range pts {
		if !b.ContainsPoint(p) {
			t.Fatalf("sample %d at %v outside cell %v", i, p, b)
		}
	}
	one := g.SamplePoints(3, 1)
	if len(one) != 1 || one[0] != b.Center() {
		t.Fatalf("n=1 = %v", one)
	}
	if got := g.SamplePoints(3, 0); len(got) != 1 {
		t.Fatalf("n=0 clamps to 1, got %d", len(got))
	}
}

func TestPropLocateConsistent(t *testing.T) {
	g := testGrid()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := geom.V(r.Float64()*100, r.Float64()*80, 1.5+r.Float64()*0.5)
		id := g.Locate(p)
		if id == NoCell {
			return false // in-bounds point must locate
		}
		return g.CellBounds(id).ContainsPoint(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
