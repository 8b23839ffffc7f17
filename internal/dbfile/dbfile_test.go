package dbfile_test

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cells"
	"repro/internal/dbfile"
	"repro/internal/testenv"
	"repro/internal/vstore"
)

// saveFixture saves the small test environment with its indexed-vertical
// layout.
func saveFixture(t *testing.T) (string, *testenv.Env) {
	t.Helper()
	return saveLayoutFixture(t, testenv.Small(), vstore.SchemeIndexedVertical)
}

// saveLayoutFixture saves the test environment built from cfg with the
// layout of the given scheme.
func saveLayoutFixture(t *testing.T, cfg testenv.Config, s vstore.Scheme) (string, *testenv.Env) {
	t.Helper()
	env := testenv.Get(cfg)
	dir := t.TempDir()
	db := &dbfile.Database{
		Scene:  env.Scene,
		Disk:   env.Disk,
		Tree:   env.Tree,
		Layout: envLayouts(env)[s],
	}
	if err := dbfile.Save(dir, db); err != nil {
		t.Fatal(err)
	}
	return dir, env
}

// envLayouts indexes the environment's three layouts by scheme.
func envLayouts(env *testenv.Env) map[vstore.Scheme]vstore.Layout {
	return map[vstore.Scheme]vstore.Layout{
		vstore.SchemeIndexedVertical: env.IV,
		vstore.SchemeVertical:        env.V,
		vstore.SchemeHorizontal:      env.H,
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	dir, env := saveFixture(t)
	got, err := dbfile.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tree.NumNodes() != env.Tree.NumNodes() {
		t.Fatalf("nodes %d vs %d", got.Tree.NumNodes(), env.Tree.NumNodes())
	}
	if len(got.Scene.Objects) != len(env.Scene.Objects) {
		t.Fatal("scene size changed")
	}
	if got.Tree.SMeasured != env.Tree.SMeasured || got.Tree.RhoMeasured != env.Tree.RhoMeasured {
		t.Fatal("measured constants changed")
	}
	// Node structure identical.
	for i, want := range env.Tree.Nodes {
		n := got.Tree.Nodes[i]
		if n.Leaf != want.Leaf || n.SubtreeHeight != want.SubtreeHeight ||
			n.LeafDescendants != want.LeafDescendants || len(n.Entries) != len(want.Entries) {
			t.Fatalf("node %d structure changed", i)
		}
		for ei := range want.Entries {
			a, b := n.Entries[ei], want.Entries[ei]
			if a.MBR != b.MBR || a.ChildID != b.ChildID || a.ObjectID != b.ObjectID ||
				a.DescCount != b.DescCount || a.DescPolys != b.DescPolys {
				t.Fatalf("node %d entry %d changed", i, ei)
			}
		}
		// Internal LoD meshes reloaded with identical polygon counts.
		if n.InternalLoD.NumLevels() != want.InternalLoD.NumLevels() {
			t.Fatalf("node %d LoD levels changed", i)
		}
		for li := range want.InternalPolys {
			if n.InternalLoD.Levels[li].NumTriangles() != want.InternalPolys[li] {
				t.Fatalf("node %d LoD %d polys changed", i, li)
			}
		}
	}
	// The saved layout is restored with its scheme and size.
	if got.Layout.Scheme() != vstore.SchemeIndexedVertical || got.Layout.SizeBytes() != env.IV.SizeBytes() {
		t.Fatalf("layout changed: %v, %d bytes", got.Layout.Scheme(), got.Layout.SizeBytes())
	}
}

func TestReopenedQueriesIdentical(t *testing.T) {
	dir, env := saveFixture(t)
	got, err := dbfile.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < env.Tree.Grid.NumCells(); c += 5 {
		for _, eta := range []float64{0, 0.002, 0.01} {
			env.Tree.SetVStore(env.IV)
			want, err := env.Tree.Query(cells.CellID(c), eta)
			if err != nil {
				t.Fatal(err)
			}
			have, err := got.Tree.Query(cells.CellID(c), eta)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Items) != len(have.Items) {
				t.Fatalf("cell %d eta %v: %d vs %d items", c, eta, len(want.Items), len(have.Items))
			}
			for i := range want.Items {
				a, b := want.Items[i], have.Items[i]
				if a.ObjectID != b.ObjectID || a.NodeID != b.NodeID || a.Level != b.Level ||
					math.Abs(a.DoV-b.DoV) > 1e-12 || a.Extent != b.Extent {
					t.Fatalf("cell %d eta %v item %d: %+v vs %+v", c, eta, i, a, b)
				}
			}
		}
	}
	// Payload fetch works on the reopened database.
	res, err := got.Tree.Query(0, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.Tree.FetchPayloads(res, nil); err != nil {
		t.Fatal(err)
	}
	for _, it := range res.Items {
		if _, err := got.Tree.LoadMesh(it); err != nil {
			t.Fatalf("reopened LoadMesh: %v", err)
		}
	}
}

func TestOpenErrors(t *testing.T) {
	dir, _ := saveFixture(t)

	// Missing directory.
	if _, err := dbfile.Open(filepath.Join(dir, "nope")); !errors.Is(err, dbfile.ErrBadDatabase) {
		t.Fatalf("missing dir: %v", err)
	}
	// Corrupt manifest.
	badDir := t.TempDir()
	copyFile(t, filepath.Join(dir, "disk.img"), filepath.Join(badDir, "disk.img"))
	if err := os.WriteFile(filepath.Join(badDir, "manifest.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dbfile.Open(badDir); !errors.Is(err, dbfile.ErrBadDatabase) {
		t.Fatalf("corrupt manifest: %v", err)
	}
	// Corrupt image.
	badDir2 := t.TempDir()
	copyFile(t, filepath.Join(dir, "manifest.json"), filepath.Join(badDir2, "manifest.json"))
	img, err := os.ReadFile(filepath.Join(dir, "disk.img"))
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0xff
	if err := os.WriteFile(filepath.Join(badDir2, "disk.img"), img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dbfile.Open(badDir2); !errors.Is(err, dbfile.ErrBadDatabase) {
		t.Fatalf("corrupt image: %v", err)
	}
	// Wrong format version.
	badDir3 := t.TempDir()
	copyFile(t, filepath.Join(dir, "disk.img"), filepath.Join(badDir3, "disk.img"))
	man, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	man2 := []byte(`{"FormatVersion": 999}`)
	_ = man
	if err := os.WriteFile(filepath.Join(badDir3, "manifest.json"), man2, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dbfile.Open(badDir3); !errors.Is(err, dbfile.ErrBadDatabase) {
		t.Fatalf("bad version: %v", err)
	}
}

func TestSaveValidation(t *testing.T) {
	if err := dbfile.Save(t.TempDir(), nil); err == nil {
		t.Fatal("nil database accepted")
	}
	if err := dbfile.Save(t.TempDir(), &dbfile.Database{}); err == nil {
		t.Fatal("empty database accepted")
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
