package dbfile

// White-box crash-injection tests: the crashPoint hook aborts Save at a
// named write boundary, and Open/Fsck must treat whatever is left behind
// as either the previous intact version or a cleanly rejected torn save.

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/testenv"
)

func crashFixtureDB(t *testing.T) *Database {
	t.Helper()
	env := testenv.Get(testenv.Small())
	return &Database{Scene: env.Scene, Disk: env.Disk, Tree: env.Tree, Layout: env.IV}
}

func saveWithCrash(t *testing.T, dir, stage string, db *Database) {
	t.Helper()
	crashPoint = stage
	defer func() { crashPoint = "" }()
	if err := Save(dir, db); !errors.Is(err, errCrash) {
		t.Fatalf("stage %s: Save err = %v, want injected crash", stage, err)
	}
}

var crashStages = []string{"image-tmp", "image-rename", "manifest-tmp"}

// TestSaveCrashFreshDirRejected: killing Save at any write boundary in a
// fresh directory leaves something Open cleanly rejects — never a panic,
// never a half-open database.
func TestSaveCrashFreshDirRejected(t *testing.T) {
	db := crashFixtureDB(t)
	for _, stage := range crashStages {
		dir := t.TempDir()
		saveWithCrash(t, dir, stage, db)
		if _, err := Open(dir); !errors.Is(err, ErrBadDatabase) {
			t.Fatalf("stage %s: Open err = %v, want ErrBadDatabase", stage, err)
		}
		rep, err := Fsck(dir)
		if err != nil {
			t.Fatalf("stage %s: fsck: %v", stage, err)
		}
		if rep.Intact() {
			t.Fatalf("stage %s: fsck calls the torn directory intact", stage)
		}
	}
}

// TestSaveCrashOverwriteKeepsOldVersion: a save interrupted while
// overwriting an existing database never destroys the committed version —
// every pre-commit crash leaves a directory that still opens.
func TestSaveCrashOverwriteKeepsOldVersion(t *testing.T) {
	db := crashFixtureDB(t)
	for _, stage := range crashStages {
		dir := t.TempDir()
		if err := Save(dir, db); err != nil {
			t.Fatal(err)
		}
		saveWithCrash(t, dir, stage, db)
		if _, err := Open(dir); err != nil {
			t.Fatalf("stage %s: committed version lost: %v", stage, err)
		}
	}
}

// TestFsckRepairSweepsCrashDebris: Repair quarantines both the damaged
// artifacts and the stray temporaries a crash leaves behind, and a fresh
// Save then succeeds and reopens.
func TestFsckRepairSweepsCrashDebris(t *testing.T) {
	db := crashFixtureDB(t)
	dir := t.TempDir()
	saveWithCrash(t, dir, "manifest-tmp", db)
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Intact() {
		t.Fatal("torn directory called intact")
	}
	if len(rep.Stray) == 0 {
		t.Fatal("stray manifest.json.tmp not found")
	}
	moved, err := Repair(dir, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) == 0 {
		t.Fatal("repair moved nothing")
	}
	for _, name := range moved {
		if _, err := os.Stat(filepath.Join(dir, QuarantineDirName, name)); err != nil {
			t.Fatalf("%s not in quarantine: %v", name, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("stray %s survived repair", e.Name())
		}
	}
	if err := Save(dir, db); err != nil {
		t.Fatalf("save after repair: %v", err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatalf("open after repair+save: %v", err)
	}
}
