//go:build !race

package core_test

import (
	"testing"

	"repro/internal/cells"
)

// TestWarmQueryAllocsIndependentOfNodesVisited: a pool-warm,
// non-coherent query allocates nothing per visited node. Records are
// read in place, V-data decodes into the session's buffers and cell
// flips refill the view's table, so at two η values whose traversals
// visit different numbers of nodes a query plus its Recycle allocates
// the same count, on all six layouts. (Race builds are excluded:
// instrumentation changes what allocates.)
func TestWarmQueryAllocsIndependentOfNodesVisited(t *testing.T) {
	env := diffFixture(t)
	env.disk.SetCacheSize(1 << 14)
	t.Cleanup(func() { env.disk.SetCacheSize(0) })
	n := env.tree.Grid.NumCells()
	etas := [2]float64{0, 0.1}
	for _, sch := range env.schemes {
		env.tree.SetVStore(sch.vs)
		var allocs [2]float64
		var visited [2]int
		for k, eta := range etas {
			s := env.tree.Session()
			query := func(c int) int {
				res, err := s.Query(cells.CellID(c), eta)
				if err != nil {
					t.Fatal(err)
				}
				v := res.Stats.NodesVisited
				s.Recycle(res)
				return v
			}
			// Warm the pool, the session's buffers and the recycled
			// result's capacity on every cell.
			for c := 0; c < n; c++ {
				visited[k] += query(c)
			}
			c := 0
			allocs[k] = testing.AllocsPerRun(2*n, func() {
				query(c % n)
				c++
			})
		}
		if visited[0] == visited[1] {
			t.Fatalf("%s: η %v and %v both visit %d nodes; the test needs traversals of different size",
				sch.name, etas[0], etas[1], visited[0])
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: a warm query allocates %v times at η %v (%d nodes over all cells) but %v at η %v (%d nodes)",
				sch.name, allocs[0], etas[0], visited[0], allocs[1], etas[1], visited[1])
		}
		t.Logf("%s: %v allocs/query at both η (%d vs %d nodes over all cells)", sch.name, allocs[0], visited[0], visited[1])
	}
}
