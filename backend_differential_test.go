package hdov

// Backend differential suite: the same saved database, reopened on the
// simulated in-memory disk and on the real file backend, must answer
// every query mode identically — one database per V-page scheme, raw and
// codec layouts, serial and coherent traversal. The file
// backend may only differ in wall-clock accounting (MeasuredTime).

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
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
		a, err := sim.NewSession().QueryCell(c, 0.002)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fb.NewSession().QueryCell(c, 0.002)
		if err != nil {
			t.Fatal(err)
		}
		sameItems(t, scheme.String()+"/serial", a, b)
	}

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
// is a view of the one page file, so sharding writes no page file of its
// own, and answers must match the unsharded ones.
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
	pageFiles, err := filepath.Glob(filepath.Join(dir, "pages.dat*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pageFiles) != 1 {
		t.Fatalf("sharding left page files %v, want only pages.dat", pageFiles)
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
}

// TestShardedUpdateFileBacked combines sharding, Update and the file
// backend. A file-backed database is sharded, updated twice, re-sharded
// and unsharded; at every epoch each cell answers (Items and
// Degradations) exactly as an unsharded serial twin on the simulated
// disk, sessions pinned before an Update keep their answers, the page
// directory never holds more than pages.dat, and Close releases every
// descriptor the database opened.
func TestShardedUpdateFileBacked(t *testing.T) {
	fdsBefore, countFDs := openFDs()
	cfg := DefaultConfig()
	cfg.Scene.Blocks = 2
	cfg.GridCells = 4
	cfg.DoVRays = 128
	cfg.Scene.NominalBytes = 4 << 20
	ref, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pages := t.TempDir()
	cfg.Storage = StorageConfig{Backend: BackendFile, Dir: pages}
	db, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	answers := func(s *Session) ([]string, error) {
		out := make([]string, db.NumCells())
		for c := range out {
			res, err := s.QueryCell(c, 0.003)
			if err != nil {
				return nil, fmt.Errorf("cell %d: %w", c, err)
			}
			out[c] = publicFingerprint(res)
		}
		return out, nil
	}
	// pinned holds sessions opened at earlier steps with the answers they
	// gave then.
	type pinnedSession struct {
		s    *Session
		want []string
	}
	var pinned []pinnedSession
	step := func(name string) {
		t.Helper()
		want, err := answers(ref.NewSession())
		if err != nil {
			t.Fatal(err)
		}
		s := db.NewSession()
		got, err := answers(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("%s: cell %d diverged from the unsharded serial reference:\n got %s\nwant %s",
					name, c, got[c], want[c])
			}
		}
		for i, p := range pinned {
			if got, err := answers(p.s); err != nil || !slices.Equal(got, p.want) {
				t.Fatalf("%s: session pinned at step %d changed its answers (err %v)", name, i, err)
			}
		}
		pinned = append(pinned, pinnedSession{s, got})
		ents, err := os.ReadDir(pages)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 || ents[0].Name() != "pages.dat" {
			var names []string
			for _, e := range ents {
				names = append(names, e.Name())
			}
			t.Fatalf("%s: page directory holds %v, want only pages.dat", name, names)
		}
	}
	// update moves one object in both databases while a reader keeps
	// querying the newest pinned session, so the shared page file grows
	// under concurrent reads through the shard views.
	update := func(id int64, dx float64) {
		t.Helper()
		p := pinned[len(pinned)-1]
		stop := make(chan struct{})
		readErr := make(chan error, 1)
		go func() {
			for {
				got, err := answers(p.s)
				if err == nil && !slices.Equal(got, p.want) {
					err = errors.New("pinned session changed its answers during an update")
				}
				select {
				case <-stop:
					readErr <- err
					return
				default:
				}
				if err != nil {
					readErr <- err
					return
				}
			}
		}()
		var moveErr error
		for _, d := range []*DB{ref, db} {
			if _, moveErr = d.Update(func(u *Updater) { u.Move(id, dx, 1, 0) }); moveErr != nil {
				break
			}
		}
		close(stop)
		if err := <-readErr; err != nil {
			t.Fatal(err)
		}
		if moveErr != nil {
			t.Fatal(moveErr)
		}
	}

	if err := db.EnableSharding(ShardConfig{Shards: 2, CachePagesPerShard: 16}); err != nil {
		t.Fatal(err)
	}
	step("shards=2")
	update(0, 2)
	step("shards=2, epoch 1")
	update(3, -2)
	step("shards=2, epoch 2")
	if err := db.EnableSharding(ShardConfig{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	step("shards=4, epoch 2")
	db.DisableSharding()
	step("unsharded, epoch 2")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(pages)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("page directory holds %d entries after Close, want only pages.dat", len(ents))
	}
	if fdsAfter, _ := openFDs(); countFDs && fdsAfter != fdsBefore {
		t.Fatalf("%d descriptors open after Close, %d before Build", fdsAfter, fdsBefore)
	}
}

// openFDs counts the process's open file descriptors; ok is false where
// /proc/self/fd is absent.
func openFDs() (n int, ok bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	return len(ents), err == nil
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
	s := db.NewSession()
	res, err := s.QueryCell(0, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Fetch(res); err != nil {
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
	a, err := db.NewSession().QueryCell(1, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	b, err := re.NewSession().QueryCell(1, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	sameItems(t, "file-backed save/reopen", a, b)
}
