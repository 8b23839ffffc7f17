package dbfile

// Crash-point table tests for the incremental commit protocol: CommitEpoch
// is killed at every write boundary in turn, and the directory must always
// recover to exactly the old epoch or the new one — never a torn state.
// The table mirrors the crashAt stages CommitEpoch passes; a new stage
// added to the protocol without a row here fails TestEpochCrashStagesCovered.

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/scene"
	"repro/internal/storage"
	"repro/internal/vstore"
)

// dynFixture is a private (uncached, mutable) tiny database: epoch-commit
// tests evolve its disk in place, so it must not come from testenv.
type dynFixture struct {
	db  *Database
	vis *core.VisData
}

func buildDynFixture(t *testing.T) *dynFixture {
	t.Helper()
	p := scene.DefaultCityParams()
	p.BlocksX, p.BlocksY = 1, 1
	p.BuildingsPerBlock = 3
	p.BlobsPerBlock = 2
	p.BlobDetail = 6
	p.NominalBytes = 4 << 20
	p.Seed = 7
	sc := scene.Generate(p)
	bp := core.DefaultBuildParams()
	bp.Grid = cells.NewGrid(sc.ViewRegion, 2, 2)
	bp.DirsPerViewpoint = 128
	bp.SamplesPerCell = 1
	d := storage.NewDisk(0, storage.DefaultCostModel())
	tr, vis, err := core.Build(sc, d, bp)
	if err != nil {
		t.Fatal(err)
	}
	f := &dynFixture{vis: vis}
	f.db = &Database{Scene: sc, Disk: d, Tree: tr}
	f.relay(t)
	return f
}

// relay lays out the fixture's indexed-vertical layout over its current
// visibility data and serves it.
func (f *dynFixture) relay(t *testing.T) {
	t.Helper()
	var err error
	if f.db.Layout, err = vstore.Build(f.db.Disk, f.vis, vstore.SchemeIndexedVertical, vstore.Options{}); err != nil {
		t.Fatal(err)
	}
	f.db.Tree.SetVStore(f.db.Layout)
}

// evolve applies one update batch and rebuilds the derived stores, leaving
// f.db in the exact state DB.Update hands to CommitEpoch.
func (f *dynFixture) evolve(t *testing.T, ops []scene.Op) {
	t.Helper()
	t2, vis2, _, _, err := core.ApplyOps(f.db.Tree, f.vis, ops)
	if err != nil {
		t.Fatal(err)
	}
	f.db.Tree, f.vis = t2, vis2
	f.db.Scene = t2.Scene
	f.db.Epoch++
	f.db.Ops = append(f.db.Ops, ops...)
	f.relay(t)
}

// dynOps is the batch every crash-stage run commits: one insert (visible
// as an object-count change after recovery) and one move.
func dynOps() []scene.Op {
	return []scene.Op{
		{Kind: scene.OpInsert, Insert: &scene.InsertSpec{Seed: 3, X: 30, Y: 30, Radius: 1.5}},
		{Kind: scene.OpMove, ID: 0, DX: 2, DY: 1},
	}
}

// epochCrashStages enumerates every write boundary in CommitEpoch, in
// protocol order, with what the directory must recover to when the
// process dies there.
var epochCrashStages = []struct {
	stage string
	// committed: the manifest rename already happened, so recovery must
	// land on the NEW epoch; otherwise it must land on the old one.
	committed bool
	// strays the crash leaves for fsck to sweep (each matched as a
	// substring of the reported stray list).
	strays []string
}{
	{"epoch-tmp", false, []string{"epoch-1.img.tmp"}},
	{"epoch-rename", false, []string{"epoch-1.img"}},
	{"epoch-manifest-tmp", false, []string{"manifest.json.tmp", "epoch-1.img"}},
	{"epoch-manifest-rename", true, nil},
}

// TestEpochCrashStagesCovered pins the crash tables to the protocol: a
// clean Save and a clean CommitEpoch record every crashAt stage they pass,
// and each commit's stages must be exactly its table's rows, so adding a
// write boundary without deciding its recovery semantics fails loudly.
func TestEpochCrashStagesCovered(t *testing.T) {
	f := buildDynFixture(t)
	dir := t.TempDir()
	defer func() { crashSeen = nil }()
	check := func(what string, table []string, run func() error) {
		t.Helper()
		crashSeen = map[string]bool{}
		if err := run(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for _, stage := range table {
			if !crashSeen[stage] {
				t.Errorf("%s: stage %q in the table but never reached", what, stage)
			}
			delete(crashSeen, stage)
		}
		for stage := range crashSeen {
			t.Errorf("%s: crashAt stage %q has no row in the table", what, stage)
		}
	}
	check("Save", crashStages, func() error { return Save(dir, f.db) })
	var epochTable []string
	for _, s := range epochCrashStages {
		epochTable = append(epochTable, s.stage)
	}
	f.evolve(t, dynOps())
	check("CommitEpoch", epochTable, func() error {
		_, err := CommitEpoch(dir, f.db)
		return err
	})
}

// TestCommitEpochCrashTable kills CommitEpoch at each write boundary and
// asserts old-or-new recovery: Open always succeeds, the epoch is exactly
// the pre- or post-commit one, fsck calls the directory intact (listing
// the crash debris as strays), and after sweeping the debris the commit
// can be retried (or, past the commit point, the next epoch committed).
func TestCommitEpochCrashTable(t *testing.T) {
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

			// The directory must open — to the old epoch before the
			// manifest rename, to the new one after it.
			got, err := Open(dir)
			if err != nil {
				t.Fatalf("Open after crash: %v", err)
			}
			wantEpoch, wantObjects, wantOps := 0, baseObjects, 0
			if tc.committed {
				wantEpoch, wantObjects, wantOps = 1, baseObjects+1, len(dynOps())
			}
			if got.Epoch != wantEpoch || len(got.Scene.Objects) != wantObjects || len(got.Ops) != wantOps {
				t.Fatalf("recovered to epoch %d with %d objects, %d ops; want %d/%d/%d",
					got.Epoch, len(got.Scene.Objects), len(got.Ops), wantEpoch, wantObjects, wantOps)
			}

			// Fsck: intact either way (a pre-commit crash leaves a good old
			// version plus debris), with the expected strays reported.
			rep, err := Fsck(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Intact() {
				t.Fatalf("fsck calls the recovered directory damaged: %v", rep.Problems)
			}
			if rep.Epoch != wantEpoch || rep.OpsLogged != wantOps || rep.DeltasApplied != wantEpoch {
				t.Fatalf("fsck dynamic state: epoch %d, ops %d, deltas %d; want %d/%d/%d",
					rep.Epoch, rep.OpsLogged, rep.DeltasApplied, wantEpoch, wantOps, wantEpoch)
			}
			for _, want := range tc.strays {
				found := false
				for _, s := range rep.Stray {
					if s == want {
						found = true
					}
				}
				if !found {
					t.Fatalf("stray %q not reported (got %v)", want, rep.Stray)
				}
			}
			if tc.committed && len(rep.Stray) != 0 {
				t.Fatalf("clean commit left strays: %v", rep.Stray)
			}

			// Sweep the debris, then move forward: retry the interrupted
			// commit, or commit the next epoch on top of the landed one.
			if _, err := Repair(dir, rep); err != nil {
				t.Fatal(err)
			}
			if tc.committed {
				f.evolve(t, []scene.Op{{Kind: scene.OpMove, ID: 1, DX: -1, DY: 2}})
			}
			epoch, err := CommitEpoch(dir, f.db)
			if err != nil {
				t.Fatalf("commit after recovery: %v", err)
			}
			wantNext := 1
			if tc.committed {
				wantNext = 2
			}
			if epoch != wantNext {
				t.Fatalf("post-recovery commit produced epoch %d, want %d", epoch, wantNext)
			}
			reopened, err := Open(dir)
			if err != nil {
				t.Fatalf("open after post-recovery commit: %v", err)
			}
			if reopened.Epoch != wantNext || len(reopened.Ops) != len(f.db.Ops) {
				t.Fatalf("post-recovery state: epoch %d, %d ops; want %d, %d",
					reopened.Epoch, len(reopened.Ops), wantNext, len(f.db.Ops))
			}
		})
	}
}

// TestCommitEpochDeltaDamageRepair: a committed delta that is later
// damaged fails fsck (BadDeltas), Open rejects the chain, and Repair
// quarantines the pinning manifest together with the bad delta so a fresh
// Save restores the directory.
func TestCommitEpochDeltaDamageRepair(t *testing.T) {
	f := buildDynFixture(t)
	dir := t.TempDir()
	if err := Save(dir, f.db); err != nil {
		t.Fatal(err)
	}
	f.evolve(t, dynOps())
	if _, err := CommitEpoch(dir, f.db); err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the committed delta.
	name := DeltaFileName(1)
	path := filepath.Join(dir, name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir); !errors.Is(err, ErrBadDatabase) {
		t.Fatalf("Open err = %v, want ErrBadDatabase", err)
	}
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Intact() || rep.ImageOK {
		t.Fatal("fsck calls the damaged delta chain intact")
	}
	if len(rep.BadDeltas) != 1 || rep.BadDeltas[0] != name {
		t.Fatalf("BadDeltas = %v, want [%s]", rep.BadDeltas, name)
	}

	moved, err := Repair(dir, rep)
	if err != nil {
		t.Fatal(err)
	}
	movedSet := map[string]bool{}
	for _, m := range moved {
		movedSet[m] = true
	}
	if !movedSet[manifestName] || !movedSet[name] {
		t.Fatalf("repair moved %v, want the manifest and %s", moved, name)
	}
	// The directory is now manifest-less; a fresh Save of the live state
	// restores it, answers included.
	if err := Save(dir, f.db); err != nil {
		t.Fatalf("save after repair: %v", err)
	}
	got, err := Open(dir)
	if err != nil {
		t.Fatalf("open after repair+save: %v", err)
	}
	if got.Epoch != f.db.Epoch || len(got.Scene.Objects) != len(f.db.Scene.Objects) {
		t.Fatalf("restored epoch %d with %d objects, want %d/%d",
			got.Epoch, len(got.Scene.Objects), f.db.Epoch, len(f.db.Scene.Objects))
	}
}
