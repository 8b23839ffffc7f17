// Package shard partitions the viewing-cell grid into contiguous
// cell-range shards, each served by its own store — a view of the
// database disk (shared media, private cost model, buffer pool and fault
// state), plus a tree and its V-page layout reopened over it (DESIGN.md
// §16).
//
// A Router owns the shard topology and publishes it copy-on-write: the
// current Table (shard map, primary stores, replica stores) is swapped
// atomically, so a Session pins a consistent topology for its lifetime
// the same way a core session pins a scene epoch, and a replica
// promotion never exposes a torn store set. The router maps each query
// to its owning shard; a multi-cell frame scatters only across the
// shards it actually straddles, and results are reassembled in input
// order so sharded answers stay byte-identical to the single-store
// baseline — Degradation events included, because every view carries
// the same corruption marks over the same pages.
package shard

import (
	"fmt"
	"sort"

	"repro/internal/cells"
)

// Map assigns every viewing cell to exactly one shard: shard i owns the
// contiguous cell range [Starts[i], Starts[i+1]). Contiguous ranges keep
// a walkthrough's neighboring cells on one spindle, so frames scatter
// only when they truly straddle a boundary.
type Map struct {
	// NumCells is the grid size the map partitions.
	NumCells int
	// Starts[i] is the first cell of shard i; Starts[0] is always 0 and
	// entries are strictly increasing.
	Starts []cells.CellID
}

// NewMap balances numCells over shards: every shard owns ⌊n/s⌋ cells and
// the first n mod s shards own one more.
func NewMap(numCells, shards int) (Map, error) {
	if numCells < 1 {
		return Map{}, fmt.Errorf("shard: map over %d cells", numCells)
	}
	if shards < 1 || shards > numCells {
		return Map{}, fmt.Errorf("shard: %d shards over %d cells", shards, numCells)
	}
	starts := make([]cells.CellID, shards)
	base, rem := numCells/shards, numCells%shards
	next := 0
	for i := 0; i < shards; i++ {
		starts[i] = cells.CellID(next)
		next += base
		if i < rem {
			next++
		}
	}
	return Map{NumCells: numCells, Starts: starts}, nil
}

// Shards returns the shard count.
func (m Map) Shards() int { return len(m.Starts) }

// Owner returns the shard owning cell c, or -1 for cells outside the
// grid.
func (m Map) Owner(c cells.CellID) int {
	if c < 0 || int(c) >= m.NumCells {
		return -1
	}
	// First start strictly greater than c; the owner is the shard before.
	i := sort.Search(len(m.Starts), func(i int) bool { return m.Starts[i] > c })
	return i - 1
}

// Range returns shard i's owned cell range [lo, hi).
func (m Map) Range(i int) (lo, hi cells.CellID) {
	lo = m.Starts[i]
	if i+1 < len(m.Starts) {
		return lo, m.Starts[i+1]
	}
	return lo, cells.CellID(m.NumCells)
}

// Validate checks that the map exactly partitions [0, NumCells): used by
// hdovfsck on a persisted shard layout, where the map is untrusted input.
func (m Map) Validate() error {
	if m.NumCells < 1 || len(m.Starts) < 1 {
		return fmt.Errorf("shard: empty map (%d cells, %d shards)", m.NumCells, len(m.Starts))
	}
	if m.Starts[0] != 0 {
		return fmt.Errorf("shard: map starts at cell %d, not 0", m.Starts[0])
	}
	for i := 1; i < len(m.Starts); i++ {
		if m.Starts[i] <= m.Starts[i-1] {
			return fmt.Errorf("shard: empty or out-of-order shard %d (start %d after %d)",
				i, m.Starts[i], m.Starts[i-1])
		}
	}
	if int(m.Starts[len(m.Starts)-1]) >= m.NumCells {
		return fmt.Errorf("shard: shard %d starts at %d, past the %d-cell grid",
			len(m.Starts)-1, m.Starts[len(m.Starts)-1], m.NumCells)
	}
	return nil
}
