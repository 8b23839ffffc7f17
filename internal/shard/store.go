package shard

import (
	"fmt"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/scene"
	"repro/internal/storage"
	"repro/internal/vstore"
)

// Manifests carries everything needed to reopen the tree and its V-page
// layout over a cloned disk.
type Manifests struct {
	Tree   core.TreeManifest
	Layout vstore.Manifest
}

// StoreConfig shapes one shard store.
type StoreConfig struct {
	Parallel      int
	FaultTolerant bool
	// CachePages is the store's private buffer-pool capacity (0 = none).
	CachePages int
	// Trim releases the V-pages of cells the shard does not own,
	// shrinking the store's resident footprint to roughly its own range.
	// Trimmed pages read back zero-filled, so a trimmed store must only
	// ever be asked about owned cells — which is what the router
	// guarantees.
	Trim bool
}

// Store is one shard's complete serving state: a private disk clone with
// the tree and its V-page layout reopened over it. Queries against
// different stores never contend on a disk lock, buffer pool, or stream
// head — that is the whole point of sharding.
type Store struct {
	Disk   *storage.Disk
	Tree   *core.Tree
	Layout vstore.Layout
	// Shard is the owning shard index; Replica marks a hot-range mirror.
	Shard   int
	Replica bool
}

// OpenStore builds shard idx's store: clone the source disk, reopen the
// tree and its layout over the clone, optionally trim foreign V-pages,
// and install the private buffer pool. A clone of the simulated disk
// shares immutable page slices with the source, so opening a store is
// cheap; a file-backed clone copies its written pages into a sibling
// file (one real file per shard arm). No simulated I/O is
// charged either way (opening is setup, not workload).
func OpenStore(sc *scene.Scene, src *storage.Disk, man Manifests, m Map, idx int, cfg StoreConfig) (*Store, error) {
	d, err := src.Clone()
	if err != nil {
		return nil, fmt.Errorf("shard %d: clone: %w", idx, err)
	}
	t, err := core.OpenTree(sc, d, man.Tree)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", idx, err)
	}
	l, err := vstore.Open(d, t.Grid, man.Layout)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", idx, err)
	}
	t.SetVStore(l)
	st := &Store{Disk: d, Tree: t, Layout: l, Shard: idx}
	t.FaultTolerant = cfg.FaultTolerant
	t.SetParallel(cfg.Parallel)
	if cfg.Trim {
		if err := st.trimForeign(m); err != nil {
			return nil, fmt.Errorf("shard %d: trim: %w", idx, err)
		}
	}
	if cfg.CachePages > 0 {
		d.SetCacheSize(cfg.CachePages)
	}
	// Enumeration during trim charged reads; a store starts with clean
	// accounting.
	d.ResetStats()
	t.IO.ResetStats()
	return st, nil
}

// trimForeign releases V-pages that belong exclusively to cells outside
// the store's owned range. Pages shared with an owned cell (horizontal
// V-pages pack several nodes; vertical segments pack neighboring cells)
// are kept.
func (s *Store) trimForeign(m Map) error {
	keep := make(map[storage.PageID]bool)
	var foreign []storage.PageID
	for c := 0; c < m.NumCells; c++ {
		ids, err := s.Layout.CellPages(s.Disk, cells.CellID(c))
		if err != nil {
			return err
		}
		if m.Owner(cells.CellID(c)) != s.Shard {
			foreign = append(foreign, ids...)
			continue
		}
		for _, id := range ids {
			keep[id] = true
		}
	}
	drop := foreign[:0]
	for _, id := range foreign {
		if !keep[id] {
			drop = append(drop, id)
		}
	}
	s.Disk.ReleasePages(drop)
	return nil
}
