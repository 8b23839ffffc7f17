package shard

import (
	"fmt"
	"sync"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/storage"
)

// Session is one client's routed view of the sharded database. It pins
// the topology current at creation (promotions after that are invisible,
// exactly like scene epochs) and lazily opens one core session per shard
// it actually touches — a walkthrough that stays inside one shard's
// range never pays for the others. A Session serves one logical client:
// do not share one between goroutines.
type Session struct {
	router *Router
	tab    *Table
	// picks[i] selects shard i's serving candidate (0 = primary); fixed
	// at creation so cursors and cuts stay warm on one store.
	picks []int
	trees []*core.Tree // lazy per-shard core sessions
}

// Shards returns the pinned topology's shard count.
func (s *Session) Shards() int { return s.tab.Map.Shards() }

// Grid returns the viewing-cell grid (identical across shards).
func (s *Session) Grid() *cells.Grid { return s.tab.Primaries[0].Tree.Grid }

// Owner returns the shard owning cell c (-1 outside the grid).
func (s *Session) Owner(c cells.CellID) int { return s.tab.Map.Owner(c) }

// RouteTree returns the core session serving cell c, creating it on
// first use, and records a heat hit so every routed query and fetch
// feeds hot-range promotion. Callers that hold a result from cell c must
// fetch through the same tree. Returns nil for a cell outside the grid
// (the walkthrough player then falls back to its unrouted base tree).
func (s *Session) RouteTree(c cells.CellID) *core.Tree {
	i := s.tab.Map.Owner(c)
	if i < 0 {
		return nil
	}
	s.router.heat.Hit(int(c))
	return s.shardTree(i)
}

// shardTree returns (creating if needed) the core session for shard i.
func (s *Session) shardTree(i int) *core.Tree {
	if s.trees[i] == nil {
		s.trees[i] = s.router.storeSession(s.tab.storeAt(i, s.picks[i]))
	}
	return s.trees[i]
}

// QueryCell routes the visibility query to the owning shard and records
// the hit for hot-range tracking.
func (s *Session) QueryCell(c cells.CellID, eta float64) (*core.QueryResult, error) {
	t := s.RouteTree(c)
	if t == nil {
		return nil, fmt.Errorf("shard: cell %d outside the %d-cell grid", c, s.tab.Map.NumCells)
	}
	return t.Query(c, eta)
}

// QueryMany scatter-gathers one query per cell: cells are grouped by
// owning shard, each shard's group runs concurrently (in cell order
// within the shard, preserving that store's deterministic access
// sequence), and results land at their input positions — so the output
// is byte-identical to issuing the queries one by one against a single
// store, in the same order per shard. The first error (by input
// position) aborts the whole batch.
func (s *Session) QueryMany(cs []cells.CellID, eta float64) ([]*core.QueryResult, error) {
	out := make([]*core.QueryResult, len(cs))
	errs := make([]error, len(cs))
	// Group input positions by shard; order within a group follows the
	// input, which keeps per-store access sequences deterministic.
	groups := make([][]int, s.Shards())
	for pos, c := range cs {
		i := s.tab.Map.Owner(c)
		if i < 0 {
			return nil, fmt.Errorf("shard: cell %d outside the %d-cell grid", c, s.tab.Map.NumCells)
		}
		groups[i] = append(groups[i], pos)
	}
	var wg sync.WaitGroup
	for i, group := range groups {
		if len(group) == 0 {
			continue
		}
		t := s.shardTree(i) // create before the goroutine: trees is not locked
		wg.Add(1)
		go func(t *core.Tree, group []int) {
			defer wg.Done()
			for _, pos := range group {
				c := cs[pos]
				s.router.heat.Hit(int(c))
				out[pos], errs[pos] = t.Query(c, eta)
			}
		}(t, group)
	}
	wg.Wait()
	for pos, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard: cell %d: %w", cs[pos], err)
		}
	}
	return out, nil
}

// Stats sums this session's own I/O across every shard it touched.
func (s *Session) Stats() storage.Stats {
	var out storage.Stats
	for _, t := range s.trees {
		if t != nil {
			out = out.Add(t.IO.Stats())
		}
	}
	return out
}

// ShardStatsOf returns this session's I/O against one shard (zero if the
// session never touched it).
func (s *Session) ShardStatsOf(i int) storage.Stats {
	if i < 0 || i >= len(s.trees) || s.trees[i] == nil {
		return storage.Stats{}
	}
	return s.trees[i].IO.Stats()
}

// CoherenceStats sums warm-path accounting across the session's shards.
func (s *Session) CoherenceStats() core.CoherenceStats {
	var out core.CoherenceStats
	for _, t := range s.trees {
		if t == nil {
			continue
		}
		cs := t.CoherenceStats()
		out.Incremental += cs.Incremental
		out.Full += cs.Full
		out.NodesReused += cs.NodesReused
		out.Expanded += cs.Expanded
		out.Collapsed += cs.Collapsed
	}
	return out
}

// ResetStats zeroes the session's per-shard counters.
func (s *Session) ResetStats() {
	for _, t := range s.trees {
		if t != nil {
			t.IO.ResetStats()
		}
	}
}

// OnReplica reports whether shard i's queries from this session are
// served by a replica rather than the primary (test and stats hook).
func (s *Session) OnReplica(i int) bool {
	return i >= 0 && i < len(s.picks) && s.picks[i] > 0
}
