package hdov

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestReopenKeepsSchemeAndCodec: Save + Open (simulated and file-backed)
// restores the layout the DB was built with, and every cell answers
// byte-identically — items, degradations and the light I/O the layout
// charges — before and after the round trip.
func TestReopenKeepsSchemeAndCodec(t *testing.T) {
	for _, codec := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Scene.Blocks = 2
		cfg.GridCells = 4
		cfg.DoVRays = 128
		cfg.Scene.NominalBytes = 4 << 20
		cfg.Codec = codec
		dbs, err := buildSchemes(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, db := range dbs {
			defer db.Close()
			want := reopenAnswers(t, db)
			dir := t.TempDir()
			if err := db.Save(dir); err != nil {
				t.Fatal(err)
			}
			for _, backend := range []BackendKind{BackendSim, BackendFile} {
				name := fmt.Sprintf("%v/codec=%v/%v", db.Scheme(), codec, backend)
				re, err := OpenWith(dir, StorageConfig{Backend: backend})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if re.Scheme() != db.Scheme() || re.cfg.Codec != codec {
					re.Close()
					t.Fatalf("%s: reopened as %v codec=%v", name, re.Scheme(), re.cfg.Codec)
				}
				got := reopenAnswers(t, re)
				re.Close()
				for c := range want {
					if got[c] != want[c] {
						t.Fatalf("%s: cell %d answer changed through save/open:\n got %s\nwant %s",
							name, c, got[c], want[c])
					}
				}
			}
		}
	}
}

// reopenAnswers renders every cell's answer from a fresh session.
func reopenAnswers(t *testing.T, db *DB) []string {
	t.Helper()
	s := db.NewSession()
	out := make([]string, db.NumCells())
	for c := range out {
		r, err := s.QueryCell(c, 0.002)
		if err != nil {
			t.Fatal(err)
		}
		out[c] = fmt.Sprintf("%slight=%d\n", publicFingerprint(r), r.LightIO)
		for _, dg := range r.Degradations {
			out[c] += fmt.Sprintf("%+v\n", dg)
		}
	}
	return out
}

// dirFiles reads every regular file of dir, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = raw
	}
	return out
}

// TestCommitEpochRefusesForeignHistory: CommitEpoch refuses a database
// that does not extend the committed one — another build, or a session
// whose op log diverged from the committed log — without touching the
// directory, which keeps opening to its own answers.
func TestCommitEpochRefusesForeignHistory(t *testing.T) {
	a, err := Build(func() Config { cfg := testConfig(); cfg.Scene.Seed = 2; return cfg }())
	if err != nil {
		t.Fatal(err)
	}
	b := testDB(t) // the same configuration at seed 1
	dir := t.TempDir()
	if err := a.Save(dir); err != nil {
		t.Fatal(err)
	}
	// refused commits db to dir, expects a refusal that leaves every file
	// as it was, and checks dir still answers like want.
	refused := func(name string, db *DB, want []string) {
		t.Helper()
		before := dirFiles(t, dir)
		if epoch, err := db.CommitEpoch(dir); err == nil {
			t.Fatalf("%s: CommitEpoch accepted it as epoch %d", name, epoch)
		}
		if !reflect.DeepEqual(dirFiles(t, dir), before) {
			t.Fatalf("%s: the refused commit changed the directory", name)
		}
		re, err := Open(dir)
		if err != nil {
			t.Fatalf("%s: the directory no longer opens: %v", name, err)
		}
		if got := reopenAnswers(t, re); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the directory no longer answers like its committed database", name)
		}
	}
	refused("another build", b, reopenAnswers(t, a))

	// Two sessions of the saved database diverge by one op each; the
	// first to commit wins, the second is refused.
	x, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	y, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Update(func(u *Updater) { u.Move(0, 1, 0, 0) }); err != nil {
		t.Fatal(err)
	}
	if _, err := y.Update(func(u *Updater) { u.Move(0, -1, 0, 0) }); err != nil {
		t.Fatal(err)
	}
	if epoch, err := x.CommitEpoch(dir); err != nil || epoch != 1 {
		t.Fatalf("first session's commit: epoch %d, err %v", epoch, err)
	}
	refused("diverged session", y, reopenAnswers(t, x))
}
