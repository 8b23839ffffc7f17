package dbfile

// File-backend integration: OpenWith(FileBacked) materializes the
// committed page runs into a real page file and must agree
// byte-for-byte with the simulated open. The crash-point harness is
// replayed against it — the fsync-at-commit protocol makes the manifest
// rename the durable commit point on real media too — and the derived
// page file must never pollute fsck.

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cells"
)

func openFileBacked(t *testing.T, dir string, opts OpenOptions) *Database {
	t.Helper()
	opts.FileBacked = true
	db, err := OpenWith(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	return db
}

// sameImage serializes both disks and compares the bytes: the strongest
// equality the two media can offer.
func sameImage(t *testing.T, a, b *Database) bool {
	t.Helper()
	var ia, ib bytes.Buffer
	if _, err := a.Disk.WriteRunTo(&ia, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Disk.WriteRunTo(&ib, 0); err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ia.Bytes(), ib.Bytes())
}

func TestOpenWithFileBackedMatchesSimulated(t *testing.T) {
	db := crashFixtureDB(t)
	dir := t.TempDir()
	if err := Save(dir, db); err != nil {
		t.Fatal(err)
	}
	sim, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []OpenOptions{{}, {NoMmap: true}} {
		fb := openFileBacked(t, dir, opts)
		if !fb.Disk.Timed() {
			t.Fatal("file-backed disk does not report Timed")
		}
		if sim.Disk.Timed() {
			t.Fatal("simulated disk reports Timed")
		}
		if _, err := os.Stat(filepath.Join(dir, PagesFileName)); err != nil {
			t.Fatalf("page file not materialized: %v", err)
		}
		if !sameImage(t, sim, fb) {
			t.Fatal("file-backed image differs from simulated")
		}
		// Queries answer identically off the real file.
		for c := 0; c < fb.Tree.Grid.NumCells(); c += 3 {
			want, err := sim.Tree.Query(cells.CellID(c), 0.002)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fb.Tree.Query(cells.CellID(c), 0.002)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Items) != len(got.Items) {
				t.Fatalf("cell %d: %d vs %d items", c, len(want.Items), len(got.Items))
			}
			for i := range want.Items {
				a, b := want.Items[i], got.Items[i]
				if a.ObjectID != b.ObjectID || a.NodeID != b.NodeID || a.Level != b.Level ||
					math.Abs(a.DoV-b.DoV) > 1e-12 {
					t.Fatalf("cell %d item %d: %+v vs %+v", c, i, a, b)
				}
			}
		}
		if fb.Disk.Stats().MeasuredTime <= 0 {
			t.Fatal("file-backed queries charged no MeasuredTime")
		}
		if sim.Disk.Stats().MeasuredTime != 0 {
			t.Fatal("simulated queries charged MeasuredTime")
		}
		// The page file is derived, not damage and not a stray.
		rep, err := Fsck(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Intact() {
			t.Fatalf("fsck calls the directory damaged: %v", rep.Problems)
		}
		if len(rep.Stray) != 0 {
			t.Fatalf("derived page file reported stray: %v", rep.Stray)
		}
		found := false
		for _, d := range rep.Derived {
			if d == PagesFileName {
				found = true
			}
		}
		if !found {
			t.Fatalf("Derived = %v, want %s listed", rep.Derived, PagesFileName)
		}
		// A page file beside pages.dat is a leftover per-shard copy, not
		// derived state.
		leftover := PagesFileName + ".clone1"
		if err := os.WriteFile(filepath.Join(dir, leftover), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err = Fsck(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Stray) != 1 || rep.Stray[0] != leftover {
			t.Fatalf("Stray = %v, want [%s]", rep.Stray, leftover)
		}
		if err := os.Remove(filepath.Join(dir, leftover)); err != nil {
			t.Fatal(err)
		}
		// Close before the next iteration reopens (and truncates) the
		// same page file.
		if err := fb.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSaveCrashFileBackedKeepsOldVersion replays the Save crash table
// against the file backend: after a crash at any write boundary over an
// existing database, a file-backed open still recovers the committed
// version, byte-identical to the simulated recovery.
func TestSaveCrashFileBackedKeepsOldVersion(t *testing.T) {
	db := crashFixtureDB(t)
	for _, stage := range crashStages {
		dir := t.TempDir()
		if err := Save(dir, db); err != nil {
			t.Fatal(err)
		}
		saveWithCrash(t, dir, stage, db)
		sim, err := Open(dir)
		if err != nil {
			t.Fatalf("stage %s: simulated recovery lost: %v", stage, err)
		}
		fb, err := OpenWith(dir, OpenOptions{FileBacked: true})
		if err != nil {
			t.Fatalf("stage %s: file-backed recovery lost: %v", stage, err)
		}
		if !sameImage(t, sim, fb) {
			t.Fatalf("stage %s: file-backed recovery diverged from simulated", stage)
		}
		if err := fb.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCommitEpochCrashFileBacked replays the epoch-commit crash table on
// the file backend: recovery lands on exactly the old or the new epoch,
// and the derived page file stays out of the stray list.
func TestCommitEpochCrashFileBacked(t *testing.T) {
	for _, tc := range epochCrashStages {
		t.Run(tc.stage, func(t *testing.T) {
			f := buildDynFixture(t)
			dir := t.TempDir()
			if err := Save(dir, f.db); err != nil {
				t.Fatal(err)
			}
			baseObjects := len(f.db.Scene.Objects)

			f.evolve(t, dynOps())
			crashPoint = tc.stage
			_, err := CommitEpoch(dir, f.db)
			crashPoint = ""
			if !errors.Is(err, errCrash) {
				t.Fatalf("CommitEpoch err = %v, want injected crash", err)
			}

			got := openFileBacked(t, dir, OpenOptions{})
			wantEpoch, wantObjects := 0, baseObjects
			if tc.committed {
				wantEpoch, wantObjects = 1, baseObjects+1
			}
			if got.Epoch != wantEpoch || len(got.Scene.Objects) != wantObjects {
				t.Fatalf("file-backed recovery: epoch %d with %d objects, want %d/%d",
					got.Epoch, len(got.Scene.Objects), wantEpoch, wantObjects)
			}
			rep, err := Fsck(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Intact() {
				t.Fatalf("fsck calls the recovered directory damaged: %v", rep.Problems)
			}
			for _, s := range rep.Stray {
				if s == PagesFileName {
					t.Fatal("derived page file swept as stray")
				}
			}
		})
	}
}
