package hdov

// Backend differential suite: the same saved database, reopened on the
// simulated in-memory disk and on the real file backend, must answer
// every query mode identically — one database per V-page scheme, raw and
// codec layouts, serial, parallel and coherent traversal. The file
// backend may only differ in wall-clock accounting (MeasuredTime).

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// sameItems fails the test unless both results carry identical item
// lists.
func sameItems(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(want.Items) != len(got.Items) {
		t.Fatalf("%s: %d vs %d items", label, len(want.Items), len(got.Items))
	}
	for i := range want.Items {
		a, b := want.Items[i], got.Items[i]
		if a.ObjectID != b.ObjectID || a.NodeID != b.NodeID || a.Level != b.Level ||
			math.Abs(a.DoV-b.DoV) > 1e-12 {
			t.Fatalf("%s item %d: %+v vs %+v", label, i, a, b)
		}
	}
}

// runDifferential drives one saved database through every traversal mode
// on both backends.
func runDifferential(t *testing.T, dir string) {
	sim, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	fb, err := OpenWith(dir, StorageConfig{Backend: BackendFile})
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()

	cells := []int{0, sim.NumCells() / 3, sim.NumCells() - 1}
	scheme := sim.Scheme()

	// Serial.
	for _, c := range cells {
		a, err := sim.QueryCell(c, 0.002)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fb.QueryCell(c, 0.002)
		if err != nil {
			t.Fatal(err)
		}
		sameItems(t, scheme.String()+"/serial", a, b)
	}

	// Parallel traversal fan-out.
	sim.SetParallel(4)
	fb.SetParallel(4)
	for _, c := range cells {
		a, err := sim.QueryCell(c, 0.002)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fb.QueryCell(c, 0.002)
		if err != nil {
			t.Fatal(err)
		}
		sameItems(t, scheme.String()+"/parallel", a, b)
	}
	sim.SetParallel(1)
	fb.SetParallel(1)

	// Coherent session walk (delta/complement against the previous
	// cell's cut).
	ss, fs := sim.NewSession(), fb.NewSession()
	for _, c := range cells {
		a, err := ss.QueryCellCoherent(c, 0.002)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fs.QueryCellCoherent(c, 0.002)
		if err != nil {
			t.Fatal(err)
		}
		sameItems(t, scheme.String()+"/coherent", a, b)
	}

	// Only the measured wall-clock diverges between the backends.
	if ms := sim.DiskStats().MeasuredTime; ms != 0 {
		t.Fatalf("simulated backend charged MeasuredTime %v", ms)
	}
	if fb.DiskStats().MeasuredTime <= 0 {
		t.Fatal("file backend charged no MeasuredTime")
	}
}

// saveAndDiff saves each database and runs the differential on it.
func saveAndDiff(t *testing.T, dbs []*DB) {
	for _, db := range dbs {
		dir := t.TempDir()
		if err := db.Save(dir); err != nil {
			t.Fatal(err)
		}
		runDifferential(t, dir)
	}
}

func TestBackendDifferentialRaw(t *testing.T) {
	saveAndDiff(t, testSchemeDBs(t))
}

func TestBackendDifferentialCodec(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scene.Blocks = 2
	cfg.GridCells = 4
	cfg.DoVRays = 128
	cfg.Scene.NominalBytes = 4 << 20
	cfg.Codec = true
	dbs, err := buildSchemes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range dbs {
		defer db.Close()
	}
	saveAndDiff(t, dbs)
}

// TestShardingFileBacked shards a file-backed database: every shard arm
// clones the media into its own sibling page file, answers must match
// the unsharded ones, and Close must remove the ephemeral clone files.
func TestShardingFileBacked(t *testing.T) {
	db := testDB(t)
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	fb, err := OpenWith(dir, StorageConfig{Backend: BackendFile})
	if err != nil {
		t.Fatal(err)
	}
	base := make([]string, fb.NumCells())
	s := fb.NewSession()
	for c := range base {
		res, err := s.QueryCell(c, 0.003)
		if err != nil {
			t.Fatal(err)
		}
		base[c] = publicFingerprint(res)
	}
	if err := fb.EnableSharding(ShardConfig{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	clones, err := filepath.Glob(filepath.Join(dir, "pages.dat.clone*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(clones) != 2 {
		t.Fatalf("sharding created %d clone page files, want 2: %v", len(clones), clones)
	}
	ss := fb.NewSession()
	for c := range base {
		res, err := ss.QueryCell(c, 0.003)
		if err != nil {
			t.Fatal(err)
		}
		if publicFingerprint(res) != base[c] {
			t.Fatalf("cell %d: sharded file-backed answer diverged", c)
		}
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range clones {
		if _, err := os.Stat(c); !os.IsNotExist(err) {
			t.Fatalf("clone page file %s survived Close: %v", c, err)
		}
	}
}

// TestBuildFileBacked exercises the other entry point: Build directly
// onto the file backend, with the page file in a caller-named directory,
// then Save and a file-backed reopen.
func TestBuildFileBacked(t *testing.T) {
	pagesDir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Scene.Blocks = 2
	cfg.GridCells = 4
	cfg.DoVRays = 128
	cfg.Scene.NominalBytes = 4 << 20
	cfg.Storage = StorageConfig{Backend: BackendFile, Dir: pagesDir}
	db, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := os.Stat(filepath.Join(pagesDir, "pages.dat")); err != nil {
		t.Fatalf("page file not created: %v", err)
	}
	res, err := db.QueryCell(0, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Fetch(res); err != nil {
		t.Fatal(err)
	}
	if db.DiskStats().MeasuredTime <= 0 {
		t.Fatal("file-backed build charged no MeasuredTime")
	}
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	re, err := OpenWith(dir, StorageConfig{Backend: BackendFile})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	a, err := db.QueryCell(1, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	b, err := re.QueryCell(1, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	sameItems(t, "file-backed save/reopen", a, b)
}
