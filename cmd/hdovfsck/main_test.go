package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	hdov "repro"
)

// update regenerates golden files: go test ./cmd/hdovfsck -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

var (
	dbOnce sync.Once
	dbDir  string
	dbErr  error
)

// TestMain removes the shared savedDB fixture once every test is done.
func TestMain(m *testing.M) {
	code := m.Run()
	if dbDir != "" {
		_ = os.RemoveAll(filepath.Dir(dbDir))
	}
	os.Exit(code)
}

// savedDB builds one tiny database and saves it once; tests copy it into
// their own scratch directories to damage at will.
func savedDB(t *testing.T) string {
	t.Helper()
	dbOnce.Do(func() {
		cfg := hdov.DefaultConfig()
		cfg.Scene.Blocks = 2
		cfg.GridCells = 4
		cfg.DoVRays = 256
		cfg.Scene.NominalBytes = 8 << 20
		db, err := hdov.Build(cfg)
		if err != nil {
			dbErr = err
			return
		}
		dir, err := os.MkdirTemp("", "hdovfsck-golden-*")
		if err != nil {
			dbErr = err
			return
		}
		dbDir = filepath.Join(dir, "db")
		dbErr = db.Save(dbDir)
	})
	if dbErr != nil {
		t.Fatal(dbErr)
	}
	return dbDir
}

func copyDB(t *testing.T, name string) string {
	t.Helper()
	src := savedDB(t)
	dst := filepath.Join(t.TempDir(), name)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

var (
	hexRe   = regexp.MustCompile(`[0-9a-f]{8}`)
	sizeRe  = regexp.MustCompile(`\d+ bytes, manifest committed \d+`)
	crcRe   = regexp.MustCompile(`CRC [0-9A-Fa-f]+, manifest committed [0-9A-Fa-f]+`)
	errPath = regexp.MustCompile(`open [^:\n]+:`)
)

// normalize strips run-dependent detail — scratch paths, byte counts,
// checksums — so the remaining structure golden-compares exactly.
func normalize(out string, dirs map[string]string) string {
	for path, name := range dirs {
		out = strings.ReplaceAll(out, path, name)
	}
	out = crcRe.ReplaceAllString(out, "CRC XXXXXXXX, manifest committed YYYYYYYY")
	out = sizeRe.ReplaceAllString(out, "N bytes, manifest committed M")
	out = errPath.ReplaceAllString(out, "open FILE:")
	out = hexRe.ReplaceAllString(out, "XXXXXXXX")
	return out
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestFsckGolden(t *testing.T) {
	good := copyDB(t, "good")

	missing := copyDB(t, "bad-missing")
	if err := os.Remove(filepath.Join(missing, "disk.img")); err != nil {
		t.Fatal(err)
	}

	corrupt := copyDB(t, "bad-crc")
	img := filepath.Join(corrupt, "disk.img")
	raw, err := os.ReadFile(img)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(img, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	stray := copyDB(t, "stray")
	if err := os.WriteFile(filepath.Join(stray, "disk.img.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A dynamic directory: two committed update epochs on top of the base
	// image, so the dynamicscene line reports a live op log and delta
	// chain.
	dyn := copyDB(t, "dyn")
	dynDB, err := hdov.Open(dyn)
	if err != nil {
		t.Fatal(err)
	}
	for i, pos := range [][2]float64{{30, 30}, {95, 60}} {
		if _, err := dynDB.Update(func(u *hdov.Updater) {
			u.Insert(hdov.InsertSpec{Seed: int64(i + 1), X: pos[0], Y: pos[1], Radius: 1.5})
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := dynDB.CommitEpoch(dyn); err != nil {
			t.Fatal(err)
		}
	}

	dirs := map[string]string{
		good: "GOOD", missing: "BAD-MISSING", corrupt: "BAD-CRC", stray: "STRAY", dyn: "DYN",
	}

	var out, errB bytes.Buffer
	code := run([]string{"-deep", good, missing, corrupt, stray, dyn}, &out, &errB)
	if code != 1 {
		t.Fatalf("code = %d, want 1 (stderr=%q)", code, errB.String())
	}
	if errB.Len() != 0 {
		t.Fatalf("stderr: %q", errB.String())
	}
	checkGolden(t, "fsck.golden", normalize(out.String(), dirs))
}

// TestFsckSharded round-trips SaveSharded through the checker: an intact
// topology passes with every shard verified, a broken map and a damaged
// shard image are both flagged.
func TestFsckSharded(t *testing.T) {
	cfg := hdov.DefaultConfig()
	cfg.Scene.Blocks = 2
	cfg.GridCells = 4
	cfg.DoVRays = 256
	cfg.Scene.NominalBytes = 8 << 20
	db, err := hdov.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnableSharding(hdov.ShardConfig{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "sharded")
	if err := db.SaveSharded(dir); err != nil {
		t.Fatal(err)
	}

	var out, errB bytes.Buffer
	if code := run([]string{"-deep", dir}, &out, &errB); code != 0 {
		t.Fatalf("intact sharded dir: code = %d\nstdout: %s\nstderr: %s", code, out.String(), errB.String())
	}
	if !strings.Contains(out.String(), "sharded, 2 shards") {
		t.Fatalf("missing shard map line:\n%s", out.String())
	}
	if got := strings.Count(out.String(), "deep: open ok"); got != 2 {
		t.Fatalf("deep-opened %d shards, want 2:\n%s", got, out.String())
	}

	// Damage one shard's image: the topology must report damaged.
	img := filepath.Join(dir, "shard-001", "disk.img")
	raw, err := os.ReadFile(img)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(img, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errB.Reset()
	if code := run([]string{dir}, &out, &errB); code != 1 {
		t.Fatalf("damaged shard: code = %d\n%s", code, out.String())
	}

	// Break the map itself: overlapping starts fail validation.
	if err := os.WriteFile(filepath.Join(dir, "shardmap.json"),
		[]byte(`{"num_cells":16,"starts":[0,0],"dirs":["shard-000","shard-001"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errB.Reset()
	if code := run([]string{dir}, &out, &errB); code != 1 {
		t.Fatalf("broken map: code = %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "shard map") {
		t.Fatalf("broken map not reported:\n%s", out.String())
	}
}

func TestFsckRepairGolden(t *testing.T) {
	corrupt := copyDB(t, "bad-crc")
	img := filepath.Join(corrupt, "disk.img")
	raw, err := os.ReadFile(img)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(img, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(corrupt, "manifest.json.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	dirs := map[string]string{corrupt: "BAD-CRC"}
	var out, errB bytes.Buffer
	code := run([]string{"-repair", corrupt}, &out, &errB)
	if code != 1 {
		t.Fatalf("code = %d, want 1 (stderr=%q)", code, errB.String())
	}
	checkGolden(t, "fsck-repair.golden", normalize(out.String(), dirs))

	// The damaged image and the stray temp file must now be quarantined.
	for _, name := range []string{"disk.img", "manifest.json.tmp"} {
		if _, err := os.Stat(filepath.Join(corrupt, "quarantine", name)); err != nil {
			t.Fatalf("%s not quarantined: %v", name, err)
		}
	}
}

func TestFsckUsage(t *testing.T) {
	var out, errB bytes.Buffer
	if code := run(nil, &out, &errB); code != 2 {
		t.Fatalf("code = %d, want 2", code)
	}
	if !strings.Contains(errB.String(), "usage: hdovfsck") {
		t.Fatalf("stderr: %q", errB.String())
	}
}
