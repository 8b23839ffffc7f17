package core_test

// Differential suite for frame-coherent incremental traversal
// (QueryCoherent): along a walkthrough path the incremental cut must
// answer byte-identically to a from-root Query — per scheme, with one or
// several concurrent walkers, degraded mode included — while actually
// reusing retained state on the warm path.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cells"
	"repro/internal/core"
)

// snakeWalk visits every cell of the grid in boustrophedon row order, so
// each step moves to an adjacent cell — the workload the cut is for.
func snakeWalk(tr *core.Tree) []cells.CellID {
	w, h := tr.Grid.NX, tr.Grid.NY
	var walk []cells.CellID
	for row := 0; row < h; row++ {
		for col := 0; col < w; col++ {
			c := col
			if row%2 == 1 {
				c = w - 1 - col
			}
			walk = append(walk, cells.CellID(row*w+c))
		}
	}
	return walk
}

// assertCoherentAgreesWithFull walks the snake path on two fresh sessions
// of the current scheme — one full, one coherent — and asserts every
// answer matches byte for byte.
func assertCoherentAgreesWithFull(t *testing.T, e *diffEnv, walk []cells.CellID, eta float64) *core.Tree {
	t.Helper()
	cohSess, err := coherentWalk(e, walk, eta)
	if err != nil {
		t.Fatal(err)
	}
	return cohSess
}

// coherentWalk is assertCoherentAgreesWithFull's walk, reporting the
// first divergence as an error so concurrent walkers can run it.
func coherentWalk(e *diffEnv, walk []cells.CellID, eta float64) (*core.Tree, error) {
	refSess := e.tree.Session()
	cohSess := e.tree.Session()
	for i, cell := range walk {
		ref, err := refSess.Query(cell, eta)
		if err != nil {
			return nil, fmt.Errorf("full query step %d cell %d: %v", i, cell, err)
		}
		got, err := cohSess.QueryCoherent(cell, eta)
		if err != nil {
			return nil, fmt.Errorf("coherent query step %d cell %d: %v", i, cell, err)
		}
		if canon(got) != canon(ref) {
			return nil, fmt.Errorf("step %d cell %d eta %g: coherent result diverged:\n%s\nvs full\n%s",
				i, cell, eta, canon(got), canon(ref))
		}
		refSess.Recycle(ref)
		cohSess.Recycle(got)
	}
	return cohSess, nil
}

// TestCutDifferential: all three schemes × all etas × one or four
// coherent/full session pairs walking concurrently (parN), so sessions
// share the disk and its pool while their cuts stay private.
// Byte-identity is the contract; on the fault-free path the warm queries
// must also actually run incrementally and reuse records.
func TestCutDifferential(t *testing.T) {
	e := diffFixture(t)
	walk := snakeWalk(e.tree)
	for _, walkers := range []int{1, 4} {
		for _, s := range e.schemes {
			e.tree.SetVStore(s.vs)
			for _, eta := range diffEtas {
				name := fmt.Sprintf("%s/par%d/eta%g", s.name, walkers, eta)
				t.Run(name, func(t *testing.T) {
					sessions := make([]*core.Tree, walkers)
					errs := make([]error, walkers)
					var wg sync.WaitGroup
					for i := range sessions {
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							sessions[i], errs[i] = coherentWalk(e, walk, eta)
						}(i)
					}
					wg.Wait()
					for i, sess := range sessions {
						if errs[i] != nil {
							t.Fatalf("walker %d: %v", i, errs[i])
						}
						cs := sess.CoherenceStats()
						if cs.Full != 0 {
							t.Fatalf("fault-free walk fell back to full traversal %d times", cs.Full)
						}
						if cs.Incremental != int64(len(walk)) {
							t.Fatalf("Incremental = %d, want %d", cs.Incremental, len(walk))
						}
						if cs.NodesReused == 0 {
							t.Fatal("warm walk reused no node records — the cut is not retaining anything")
						}
					}
				})
			}
		}
	}
}

// TestCutDifferentialDegradations: with a corrupted node record and fault
// tolerance on, the coherent path must fall back to full traversal and
// reproduce its absorbed Degradations exactly, for every scheme.
func TestCutDifferentialDegradations(t *testing.T) {
	e := diffFixture(t)
	walk := snakeWalk(e.tree)

	child := e.tree.Root().Entries[0].ChildID
	page := e.tree.NodePage(child)
	e.disk.CorruptPage(page)
	e.tree.FaultTolerant = true
	defer func() {
		e.tree.FaultTolerant = false
		e.disk.HealPage(page)
		e.disk.ClearQuarantine()
	}()

	for _, s := range e.schemes {
		e.tree.SetVStore(s.vs)
		t.Run(s.name, func(t *testing.T) {
			sess := assertCoherentAgreesWithFull(t, e, walk, 0.001)
			cs := sess.CoherenceStats()
			if cs.Full == 0 {
				t.Fatal("corrupted record never forced a full-traversal fallback")
			}
		})
	}
}

// TestCutQuarantineReexpansionFallback is the satellite scenario: a page
// quarantined *after* the cut cached its record must not be served stale.
// The next coherent query must detect the quarantine, fall back to a full
// traversal, and emit that traversal's degraded answer — byte-identical
// to a fresh session's.
func TestCutQuarantineReexpansionFallback(t *testing.T) {
	e := diffFixture(t)
	e.tree.FaultTolerant = true
	defer func() {
		e.tree.FaultTolerant = false
		e.disk.ClearQuarantine()
	}()

	// The root's record is always interior to the cut, so quarantining it
	// is guaranteed to hit the retained-record path on the next query.
	page := e.tree.NodePage(0)
	eta := 0.001

	for _, s := range e.schemes {
		e.tree.SetVStore(s.vs)
		t.Run(s.name, func(t *testing.T) {
			e.disk.ClearQuarantine()
			sess := e.tree.Session()
			// Healthy warm-up: cell 0 builds the cut, cell 1 proves it.
			for _, cell := range []cells.CellID{0, 1} {
				if _, err := sess.QueryCoherent(cell, eta); err != nil {
					t.Fatal(err)
				}
			}
			warm := sess.CoherenceStats()
			if warm.Full != 0 || warm.NodesReused == 0 {
				t.Fatalf("warm-up did not run incrementally: %+v", warm)
			}

			// The record is now cached inside the cut. Quarantine it, as
			// hdovfsck -repair would after finding damage.
			e.disk.Quarantine(page)

			got, err := sess.QueryCoherent(2, eta)
			if err != nil {
				t.Fatal(err)
			}
			cs := sess.CoherenceStats()
			if cs.Full != 1 {
				t.Fatalf("quarantined record did not force exactly one full fallback: %+v", cs)
			}
			if len(got.Degradations) == 0 {
				t.Fatal("fallback query absorbed no degradation for the quarantined record")
			}
			ref, err := e.tree.Session().Query(2, eta)
			if err != nil {
				t.Fatal(err)
			}
			if canon(got) != canon(ref) {
				t.Fatalf("fallback result differs from fresh full traversal:\n%s\nvs\n%s",
					canon(got), canon(ref))
			}
		})
	}
}

// TestCutEtaChangeRebuilds: changing η mid-session must rebuild the cut,
// not re-evaluate a frontier computed for a different threshold.
func TestCutEtaChangeRebuilds(t *testing.T) {
	e := diffFixture(t)
	e.tree.SetVStore(e.schemes[2].vs)
	sess := e.tree.Session()
	ref := e.tree.Session()
	for i, q := range []struct {
		cell cells.CellID
		eta  float64
	}{{0, 0.001}, {1, 0.001}, {2, 0.008}, {3, 0.008}, {3, 0.001}} {
		want, err := ref.Query(q.cell, q.eta)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.QueryCoherent(q.cell, q.eta)
		if err != nil {
			t.Fatal(err)
		}
		if canon(got) != canon(want) {
			t.Fatalf("step %d (cell %d eta %g): mismatch after eta change", i, q.cell, q.eta)
		}
	}
}

// TestResultRecycling: a session's free list must hand the same result
// object back after Recycle, and the base tree must not recycle at all.
func TestResultRecycling(t *testing.T) {
	e := diffFixture(t)
	e.tree.SetVStore(e.schemes[2].vs)
	sess := e.tree.Session()

	r1, err := sess.Query(0, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	sess.Recycle(r1)
	r2, err := sess.Query(1, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("session free list did not reuse the recycled QueryResult")
	}
	if r2.Cell != 1 || len(r2.Items) == 0 {
		t.Fatalf("recycled result not reset: cell=%d items=%d", r2.Cell, len(r2.Items))
	}

	b1, err := e.tree.Query(0, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	e.tree.Recycle(b1) // no-op on the base tree
	b2, err := e.tree.Query(1, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if b1 == b2 {
		t.Fatal("base tree recycled a result; pooling must be per-session")
	}
	if len(b1.Items) == 0 {
		t.Fatal("base-tree result was cleared by Recycle")
	}
}
