package hdov

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/scene"
	"repro/internal/visibility"
)

// Dynamic scenes: a built database can evolve through inserts, deletes
// and moves without rebuilding from scratch. Update applies a batch of
// operations as one atomic epoch: the R-tree backbone is updated in
// place, internal LoDs are rebuilt only where the topology changed,
// per-cell DoV fields are re-cast only for cells that can see a changed
// object, and the DB's V-page layout is re-laid over the new visibility
// data. Every page written is freshly allocated, so Sessions
// created before the update keep answering from their pinned epoch.
//
// The differential guarantee (enforced by TestUpdateDifferential): after
// any op sequence, queries answer byte-identically to a database rebuilt
// from scratch over the replayed scene.

// InsertSpec deterministically describes a new object: a procedural blob
// (the paper's bunny stand-in) dropped at an explicit position. All
// geometry derives from the spec, so the op log replays identically.
type InsertSpec struct {
	// Seed shapes the blob.
	Seed int64
	// X, Y is the footprint center; the blob sits on the ground plane.
	X, Y float64
	// Radius is the blob radius in meters (clamped to a sane minimum).
	Radius float64
	// Detail is the tessellation parameter (<= 0: the scene default).
	Detail int
}

// Updater collects the operations of one Update batch.
type Updater struct {
	ops []scene.Op
}

// Insert schedules a new object. Its ID is assigned when the batch
// applies (dense, in batch order); read it from UpdateStats.InsertedIDs.
func (u *Updater) Insert(spec InsertSpec) {
	u.ops = append(u.ops, scene.Op{Kind: scene.OpInsert, Insert: &scene.InsertSpec{
		Seed: spec.Seed, X: spec.X, Y: spec.Y, Radius: spec.Radius, Detail: spec.Detail,
	}})
}

// Delete schedules the removal of an object. The ID is tombstoned, never
// reused; deleting an already-dead or unknown ID fails the whole batch.
func (u *Updater) Delete(id int64) {
	u.ops = append(u.ops, scene.Op{Kind: scene.OpDelete, ID: id})
}

// Move schedules a translation of an object by (dx, dy, dz).
func (u *Updater) Move(id int64, dx, dy, dz float64) {
	u.ops = append(u.ops, scene.Op{Kind: scene.OpMove, ID: id, DX: dx, DY: dy, DZ: dz})
}

// UpdateStats reports what an Update did.
type UpdateStats struct {
	// Epoch is the database epoch after the batch installed.
	Epoch int
	// Ops is the number of operations applied.
	Ops int
	// TouchedCells is how many viewing cells had their DoV field re-cast;
	// TotalCells is the grid size. The difference is the cells served
	// from the previous epoch's retained raw field.
	TouchedCells int
	TotalCells   int
	// LoDReused / LoDRebuilt count tree nodes whose internal-LoD chain
	// was adopted from the previous epoch vs. re-simplified.
	LoDReused  int
	LoDRebuilt int
	// PagesAppended is the number of disk pages the batch allocated
	// (tree records, fresh payloads, the re-laid V-page layout): the
	// disk's page count after the batch minus before it.
	PagesAppended int64
	// InsertedIDs are the object IDs assigned to this batch's inserts, in
	// batch order.
	InsertedIDs []int64
}

// Update applies one batch of scene operations as the next epoch. fn
// stages the operations on the Updater; they apply in order, atomically —
// on error the database is unchanged. Update serializes with other
// writers (Update, CommitEpoch, Save) but never blocks readers: Sessions
// pinned to earlier epochs stay valid, and NewSession during an Update
// returns whichever epoch is current when it runs.
func (db *DB) Update(fn func(*Updater)) (*UpdateStats, error) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()

	u := &Updater{}
	fn(u)
	if len(u.ops) == 0 {
		return nil, fmt.Errorf("hdov: update: empty batch")
	}

	pagesBefore := db.disk.NumPages()
	t2, vis2, effects, cs, err := core.ApplyOps(db.tree, db.vis, u.ops)
	if err != nil {
		return nil, fmt.Errorf("hdov: update: %w", err)
	}
	vs, err := db.cfg.layout(db.disk, vis2)
	if err != nil {
		return nil, fmt.Errorf("hdov: update: %w", err)
	}
	t2.SetVStore(vs)
	eng := visibility.NewEngine(t2.Scene, t2.Params.DirsPerViewpoint)

	stats := &UpdateStats{
		Ops:           cs.Ops,
		TouchedCells:  cs.TouchedCells,
		TotalCells:    cs.TotalCells,
		LoDReused:     cs.LoDReused,
		LoDRebuilt:    cs.LoDRebuilt,
		PagesAppended: db.disk.NumPages() - pagesBefore,
	}
	for _, e := range effects {
		if e.Kind == scene.OpInsert {
			stats.InsertedIDs = append(stats.InsertedIDs, e.ObjectID)
		}
	}

	// Publish the new epoch. Readers that already pinned the old tree are
	// untouched (nothing above ever rewrote a committed page); new
	// Sessions pin the new one.
	db.mu.Lock()
	db.scene = t2.Scene
	db.tree = t2
	db.vis = vis2
	db.vs = vs
	db.engine = eng
	db.epoch++
	db.ops = append(db.ops, u.ops...)
	stats.Epoch = db.epoch
	sharded := db.router != nil
	db.mu.Unlock()

	// Re-shard over the new epoch so routed sessions created after this
	// update see it. Sessions that pinned the old topology are untouched.
	if sharded {
		db.mu.RLock()
		cfg := db.shardCfg
		db.mu.RUnlock()
		r, err := db.buildRouter(cfg)
		if err != nil {
			return stats, fmt.Errorf("hdov: update: re-shard: %w", err)
		}
		db.mu.Lock()
		db.router = r
		db.mu.Unlock()
	}
	return stats, nil
}

// Epoch returns the number of update batches installed since the
// original build (or, after Open, since the base image was saved).
func (db *DB) Epoch() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.epoch
}

// NumAliveObjects returns the object count excluding tombstones. It
// equals NumObjects until the first Delete.
func (db *DB) NumAliveObjects() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.scene.NumAlive()
}
