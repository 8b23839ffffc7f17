package hdov

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cells"
	"repro/internal/dbfile"
	"repro/internal/shard"
)

// Sharded serving (DESIGN.md §16): EnableSharding partitions the
// viewing-cell grid into contiguous cell-range shards, each served by a
// private store — a view of the database disk that shares its page media
// but has its own cost model, stream heads and buffer pool, and the tree
// plus its V-page layout reopened over it. Sessions created afterwards route every
// query to its owning shard; answers are byte-identical to the
// unsharded baseline (the differential suite enforces this), but N
// shards give the workload N independent disk arms, which is where the
// shardscale experiment's near-linear throughput comes from.

// ShardConfig controls EnableSharding.
type ShardConfig struct {
	// Shards is the number of contiguous cell-range partitions (must be
	// in [1, NumCells]).
	Shards int
	// CachePagesPerShard installs a private buffer pool of that many
	// pages on every store (0 = none). SetCacheSize after enabling
	// splits its aggregate budget evenly instead.
	CachePagesPerShard int
}

// EnableSharding partitions the current epoch across cfg.Shards stores
// and routes all sessions created afterwards through the shard router.
// Existing sessions are untouched (they pinned the unsharded tree).
// Enabling again with a different count re-partitions; Update re-shards
// automatically after installing a new epoch.
func (db *DB) EnableSharding(cfg ShardConfig) error {
	if cfg.Shards < 1 {
		return fmt.Errorf("hdov: sharding needs at least 1 shard, got %d", cfg.Shards)
	}
	r, err := db.buildRouter(cfg)
	if err != nil {
		return err
	}
	db.mu.Lock()
	db.router = r
	db.shardCfg = cfg
	db.mu.Unlock()
	return nil
}

// buildRouter assembles a router over the current epoch's manifests.
func (db *DB) buildRouter(cfg ShardConfig) (*shard.Router, error) {
	db.mu.RLock()
	sc, tree := db.scene, db.tree
	man := shard.Manifests{Tree: tree.Manifest(), Layout: db.vs.LayoutManifest()}
	ft := tree.FaultTolerant
	db.mu.RUnlock()
	r, err := shard.NewRouter(sc, db.disk, man, shard.Config{
		Shards:             cfg.Shards,
		FaultTolerant:      ft,
		CachePagesPerShard: cfg.CachePagesPerShard,
	})
	if err != nil {
		return nil, fmt.Errorf("hdov: sharding: %w", err)
	}
	return r, nil
}

// DisableSharding routes future sessions back through the single store.
// Existing routed sessions keep their pinned shard topology.
func (db *DB) DisableSharding() {
	db.mu.Lock()
	db.router = nil
	db.mu.Unlock()
}

// Sharded reports whether a shard router is active, and how many shards
// it partitions the grid into (0 when unsharded).
func (db *DB) Sharded() (shards int) {
	r := db.currentRouter()
	if r == nil {
		return 0
	}
	return r.Shards()
}

// currentRouter snapshots the active router (nil when unsharded).
func (db *DB) currentRouter() *shard.Router {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.router
}

// RebalanceHotCells mirrors the k hottest shard ranges — ranked by the
// per-cell hit EMAs every routed query feeds — onto replica stores.
// Sessions created afterwards spread round-robin across a hot shard's
// primary and mirrors; existing sessions keep their pinned topology, so
// no client ever observes a half-built replica. It returns the promoted
// shard indices (empty when no shard has recorded traffic) and is a
// no-op on an unsharded database.
func (db *DB) RebalanceHotCells(k int) ([]int, error) {
	r := db.currentRouter()
	if r == nil {
		return nil, nil
	}
	return r.PromoteHot(k)
}

// DropReplicas demotes every hot-range replica (no-op when unsharded).
func (db *DB) DropReplicas() {
	if r := db.currentRouter(); r != nil {
		r.DropReplicas()
	}
}

// DecayHeat folds the per-cell hit EMAs one tick toward zero, so
// RebalanceHotCells ranks recent traffic rather than all-time totals.
func (db *DB) DecayHeat() {
	if r := db.currentRouter(); r != nil {
		r.Heat().Decay()
	}
}

// ShardStats is one shard's accounting breakdown.
type ShardStats struct {
	// Shard is the partition index; Cells its owned cell range [Lo, Hi).
	Shard  int
	Lo, Hi int
	// Disk is the primary store's I/O accounting; Replica sums the
	// shard's mirrors (zero without replicas).
	Disk    DiskStats
	Replica DiskStats
	// Replicas is the current mirror count.
	Replicas int
	// Pool is the primary store's buffer-pool accounting.
	Pool PoolStats
}

// ShardDiskStats returns the per-shard accounting breakdown, indexed by
// shard (nil when unsharded). DB.DiskStats and DB.PoolStats report the
// aggregate sum of the same counters.
func (db *DB) ShardDiskStats() []ShardStats {
	r := db.currentRouter()
	if r == nil {
		return nil
	}
	tab := r.Table()
	prim := r.ShardStats()
	reps := r.ReplicaStats()
	pools := r.ShardPoolStats()
	out := make([]ShardStats, len(prim))
	for i := range out {
		lo, hi := tab.Map.Range(i)
		out[i] = ShardStats{
			Shard: i, Lo: int(lo), Hi: int(hi),
			Disk:     diskStatsFrom(prim[i]),
			Replica:  diskStatsFrom(reps[i]),
			Replicas: len(tab.Replicas[i]),
			Pool:     poolStatsFrom(pools[i]),
		}
	}
	return out
}

// shardMapManifest is the persisted form of the shard map
// (shardmap.json in a SaveSharded directory).
type shardMapManifest struct {
	NumCells int      `json:"num_cells"`
	Starts   []int    `json:"starts"`
	Dirs     []string `json:"dirs"`
}

// SaveSharded persists the sharded database: shardmap.json plus one
// complete dbfile directory per shard (shard-000, shard-001, ...), each
// independently openable and fsck-able — hdovfsck verifies every shard
// image and that the map exactly partitions the grid. Requires an
// active shard topology.
func (db *DB) SaveSharded(dir string) error {
	r := db.currentRouter()
	if r == nil {
		return fmt.Errorf("hdov: SaveSharded: sharding is not enabled")
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	tab := r.Table()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("hdov: SaveSharded: %w", err)
	}
	man := shardMapManifest{NumCells: tab.Map.NumCells}
	for i, st := range tab.Primaries {
		sub := fmt.Sprintf("shard-%03d", i)
		man.Starts = append(man.Starts, int(tab.Map.Starts[i]))
		man.Dirs = append(man.Dirs, sub)
		sdb := db.database()
		sdb.Disk = st.Disk
		sdb.Tree = st.Tree
		sdb.Layout = st.Layout
		if err := dbfile.Save(filepath.Join(dir, sub), sdb); err != nil {
			return fmt.Errorf("hdov: SaveSharded shard %d: %w", i, err)
		}
	}
	blob, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, "shardmap.json.tmp")
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return fmt.Errorf("hdov: SaveSharded: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "shardmap.json")); err != nil {
		return fmt.Errorf("hdov: SaveSharded: %w", err)
	}
	return nil
}

// QueryMany scatter-gathers one visibility query per cell through the
// session: cells are grouped by owning shard, shards run concurrently,
// and results land in input order, byte-identical to issuing the
// queries one by one. On an unsharded session the batch runs serially.
func (s *Session) QueryMany(cellIDs []int, eta float64) ([]*Result, error) {
	if s.sh != nil {
		cs := make([]cells.CellID, len(cellIDs))
		for i, c := range cellIDs {
			if err := checkCell(c, s.sh.Grid().NumCells()); err != nil {
				return nil, err
			}
			cs[i] = cells.CellID(c)
		}
		inner, err := s.sh.QueryMany(cs, eta)
		if err != nil {
			return nil, err
		}
		out := make([]*Result, len(inner))
		for i, r := range inner {
			out[i] = wrapResult(r)
		}
		return out, nil
	}
	out := make([]*Result, len(cellIDs))
	for i, c := range cellIDs {
		r, err := s.QueryCell(c, eta)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}
