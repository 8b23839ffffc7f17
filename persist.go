package hdov

import (
	"repro/internal/dbfile"
	"repro/internal/visibility"
)

// Save persists the database to a directory (manifest.json + disk.img).
// The expensive precomputation — R-tree construction, internal-LoD
// generation, per-cell DoV evaluation, V-page layout — is all captured, so
// Open is fast. The write is crash-safe: the page run is committed (fsync
// + atomic rename) before the checksummed manifest, whose rename is the
// commit point — a Save killed at any boundary leaves either the previous
// committed version or a directory Open cleanly rejects.
//
// Save compacts: the full disk (base pages plus every epoch's appends) is
// rewritten as one page run, disk.img, and the epoch runs in the
// directory are superseded. The op log still rides along in the
// manifest, because the scene is always reconstructed as generate +
// replay.
func (db *DB) Save(dir string) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	return dbfile.Save(dir, db.database())
}

// CommitEpoch durably commits the database's current epoch into a
// directory previously written by Save (or by an earlier CommitEpoch):
// only the pages appended since the directory's committed allocation
// watermark are written, as the epoch's page run, and the manifest —
// carrying the full op log and run list — is atomically replaced. The
// manifest rename is the commit point: a crash at any step leaves the
// directory opening as either the previous epoch or the new one, never a
// torn mix (hdovfsck verifies this, and quarantines leftovers).
//
// It returns the committed epoch number. Committing a database that is
// not the directory's extended — another city or build parameters, or an
// op log that does not start with the committed one — fails without
// touching anything: CommitEpoch appends history, Save rewrites it.
func (db *DB) CommitEpoch(dir string) (int, error) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	return dbfile.CommitEpoch(dir, db.database())
}

// database assembles the dbfile view of the current epoch. Callers hold
// writeMu, so the field reads are stable.
func (db *DB) database() *dbfile.Database {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return &dbfile.Database{
		Scene:  db.scene,
		Disk:   db.disk,
		Tree:   db.tree,
		Layout: db.vs,
		Epoch:  db.epoch,
		Ops:    db.ops,
	}
}

// Open reopens a database saved with Save (plus any epochs committed with
// CommitEpoch — the page runs are applied in order and the op log
// replayed). Every run is checksum-verified and the tree structure
// revalidated; queries on the reopened database return byte-identical
// answers.
func Open(dir string) (*DB, error) {
	d, err := dbfile.Open(dir)
	if err != nil {
		return nil, err
	}
	return fromDatabase(d), nil
}

// fromDatabase wraps a reopened dbfile database into a DB handle,
// reconstructing the build configuration — the layout's scheme and codec
// included — from the manifest-backed state.
func fromDatabase(d *dbfile.Database) *DB {
	cfg := Config{
		Scene: SceneConfig{
			Blocks:            d.Scene.Params.BlocksX,
			BuildingsPerBlock: d.Scene.Params.BuildingsPerBlock,
			BlobsPerBlock:     d.Scene.Params.BlobsPerBlock,
			NominalBytes:      d.Scene.Params.NominalBytes,
			Seed:              d.Scene.Params.Seed,
		},
		GridCells:      d.Tree.Grid.NX,
		DoVRays:        d.Tree.Params.DirsPerViewpoint,
		SamplesPerCell: d.Tree.Params.SamplesPerCell,
		Scheme:         Scheme(d.Layout.Scheme()),
		Codec:          d.Layout.Codec(),
	}
	return &DB{
		cfg:    cfg,
		scene:  d.Scene,
		disk:   d.Disk,
		tree:   d.Tree,
		vs:     d.Layout,
		engine: visibility.NewEngine(d.Scene, d.Tree.Params.DirsPerViewpoint),
		epoch:  d.Epoch,
		ops:    d.Ops,
	}
}
