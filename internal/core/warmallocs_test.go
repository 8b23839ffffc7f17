//go:build !race

package core_test

import (
	"path/filepath"
	"testing"

	"repro/internal/cells"
	"repro/internal/storage"
	"repro/internal/storage/filestore"
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
	checkQueryAllocsFlat(t, env)
}

// TestColdQueryAllocsIndependentOfNodesVisited is the same check with no
// buffer pool, on the in-memory and the file media: every light read
// goes to the media, and it lands in a buffer the session owns — node
// records in one per traversal depth, flip segments and V-pages in the
// scheme view's read buffer — so no read allocates its page.
func TestColdQueryAllocsIndependentOfNodesVisited(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		checkQueryAllocsFlat(t, diffFixture(t))
	})
	t.Run("file", func(t *testing.T) {
		fs, err := filestore.Create(filepath.Join(t.TempDir(), "pages.dat"), storage.DefaultPageSize, filestore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		d := storage.NewDiskOn(fs, storage.DefaultCostModel())
		t.Cleanup(func() { _ = d.Close() })
		env, err := buildDiffEnv(d)
		if err != nil {
			t.Fatal(err)
		}
		checkQueryAllocsFlat(t, env)
	})
}

// checkQueryAllocsFlat asserts that, on every layout of env, a
// non-coherent session query plus its Recycle allocates the same count
// at two η values whose traversals visit different numbers of nodes.
func checkQueryAllocsFlat(t *testing.T, env *diffEnv) {
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
			// Warm the pool (if any), the session's buffers and the
			// recycled result's capacity on every cell.
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
			t.Errorf("%s: a query allocates %v times at η %v (%d nodes over all cells) but %v at η %v (%d nodes)",
				sch.name, allocs[0], etas[0], visited[0], allocs[1], etas[1], visited[1])
			continue
		}
		t.Logf("%s: %v allocs/query at both η (%d vs %d nodes over all cells)", sch.name, allocs[0], visited[0], visited[1])
	}
}
