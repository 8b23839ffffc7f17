package shard

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/scene"
	"repro/internal/storage"
	"repro/internal/vstore"
)

// Manifests carries everything needed to reopen the tree and its V-page
// layout over a view of the database disk.
type Manifests struct {
	Tree   core.TreeManifest
	Layout vstore.Manifest
}

// StoreConfig shapes one shard store.
type StoreConfig struct {
	FaultTolerant bool
	// CachePages is the store's private buffer-pool capacity (0 = none).
	CachePages int
}

// Store is one shard's complete serving state: a view of the database
// disk with the tree and its V-page layout reopened over it. Queries
// against different stores never contend on a disk lock, buffer pool, or
// stream head — that is the whole point of sharding.
type Store struct {
	Disk   *storage.Disk
	Tree   *core.Tree
	Layout vstore.Layout
	// Shard is the owning shard index; Replica marks a hot-range mirror.
	Shard   int
	Replica bool
}

// OpenStore builds shard idx's store: take a view of the source disk,
// reopen the tree and its layout over it, and install the private buffer
// pool. The view shares the source's media, so opening a store copies no
// pages on either backend and owns nothing that needs closing. No
// simulated I/O is charged (opening is setup, not workload).
func OpenStore(sc *scene.Scene, src *storage.Disk, man Manifests, idx int, cfg StoreConfig) (*Store, error) {
	d := src.View()
	t, err := core.OpenTree(sc, d, man.Tree)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", idx, err)
	}
	l, err := vstore.Open(d, t.Grid, man.Layout)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", idx, err)
	}
	t.SetVStore(l)
	t.FaultTolerant = cfg.FaultTolerant
	// Allocate the shared shed-policy slot now, while the store is
	// private: concurrent serve runs then only store into it atomically.
	t.SetShed(nil)
	if cfg.CachePages > 0 {
		d.SetCacheSize(cfg.CachePages)
	}
	// Reopening may have charged reads; a store starts with clean
	// accounting.
	d.ResetStats()
	t.IO.ResetStats()
	return &Store{Disk: d, Tree: t, Layout: l, Shard: idx}, nil
}
