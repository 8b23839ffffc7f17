package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/cells"
	"repro/internal/storage"
)

// cleanFaults restores the shared fixture after a fault-injection test:
// the process-cached tree must come back pristine for later tests.
func cleanFaults(t *testing.T, tr *Tree) {
	t.Helper()
	t.Cleanup(func() {
		tr.FaultTolerant = false
		tr.Disk.ClearFaults()
		tr.Disk.ClearQuarantine()
	})
}

// TestDegradedChildNodeFault: with FaultTolerant set, a corrupt child node
// record no longer aborts the query — the child's internal LoD (resolved
// from the parent's entry) stands in, a Degradation is recorded, and the
// damaged pages are quarantined so later frames skip the seek.
func TestDegradedChildNodeFault(t *testing.T) {
	tr, _ := withMemStore(t)
	cleanFaults(t, tr)
	tr.FaultTolerant = true
	child := tr.Root().Entries[0].ChildID
	page := tr.NodePage(child)
	tr.Disk.CorruptPage(page)
	t.Cleanup(func() { tr.Disk.HealPage(page) })

	degraded := 0
	for c := 0; c < tr.Grid.NumCells(); c++ {
		res, err := tr.Query(cells.CellID(c), 0)
		if err != nil {
			t.Fatalf("cell %d: %v", c, err)
		}
		for _, d := range res.Degradations {
			degraded++
			if d.Cause != CauseNodeRecord {
				t.Fatalf("cell %d: cause = %v, want node-record", c, d.Cause)
			}
			if d.Node != child {
				t.Fatalf("cell %d: degraded node %d, want %d", c, d.Node, child)
			}
			if d.SubstituteNode == NilNode {
				t.Fatalf("cell %d: no substitute found", c)
			}
			found := false
			for _, it := range res.Items {
				if it.IsInternal() && it.NodeID == d.SubstituteNode && it.Level == d.SubstituteLevel {
					found = true
				}
			}
			if !found {
				t.Fatalf("cell %d: substitute LoD (node %d level %d) not in Items",
					c, d.SubstituteNode, d.SubstituteLevel)
			}
		}
	}
	if degraded == 0 {
		t.Skip("corrupted subtree never visited (fully hidden)")
	}
	if !tr.Disk.IsQuarantined(page) {
		t.Fatal("failed page not quarantined")
	}
}

// TestDegradedQuarantineAvoidsReseek: once quarantined, a damaged node
// record costs no further media time — the second degraded query is not
// slower than the first.
func TestDegradedQuarantineAvoidsReseek(t *testing.T) {
	tr, _ := withMemStore(t)
	cleanFaults(t, tr)
	tr.FaultTolerant = true
	child := tr.Root().Entries[0].ChildID
	page := tr.NodePage(child)
	tr.Disk.CorruptPage(page)
	t.Cleanup(func() { tr.Disk.HealPage(page) })

	var first, second *QueryResult
	for c := 0; c < tr.Grid.NumCells(); c++ {
		res, err := tr.Query(cells.CellID(c), 0)
		if err != nil {
			t.Fatalf("cell %d: %v", c, err)
		}
		if len(res.Degradations) > 0 {
			first = res
			second, err = tr.Query(cells.CellID(c), 0)
			if err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if first == nil {
		t.Skip("corrupted subtree never visited")
	}
	if len(second.Degradations) == 0 {
		t.Fatal("second query lost the degradation record")
	}
	if second.Stats.LightIO > first.Stats.LightIO {
		t.Fatalf("second query read more pages (%d) than first (%d) despite quarantine",
			second.Stats.LightIO, first.Stats.LightIO)
	}
}

// TestDegradedRootFault: even a corrupt root record answers the query with
// the root's internal LoD from the in-memory mirror.
func TestDegradedRootFault(t *testing.T) {
	tr, _ := withMemStore(t)
	cleanFaults(t, tr)
	tr.FaultTolerant = true
	page := tr.NodePage(0)
	tr.Disk.CorruptPage(page)
	t.Cleanup(func() { tr.Disk.HealPage(page) })

	res, err := tr.Query(0, 0.001)
	if err != nil {
		t.Fatalf("root fault not absorbed: %v", err)
	}
	if len(res.Degradations) != 1 {
		t.Fatalf("%d degradations, want 1", len(res.Degradations))
	}
	d := res.Degradations[0]
	if d.Cause != CauseNodeRecord || d.Node != 0 || d.SubstituteNode != 0 {
		t.Fatalf("unexpected degradation %+v", d)
	}
	if len(res.Items) != 1 || !res.Items[0].IsInternal() || res.Items[0].NodeID != 0 {
		t.Fatalf("items = %+v, want the root internal LoD", res.Items)
	}
}

// TestDegradedCellFlipFault: a media fault while flipping the viewing cell
// (no visibility data at all) still answers with the whole-scene LoD.
func TestDegradedCellFlipFault(t *testing.T) {
	tr, _ := fixture(t)
	cleanFaults(t, tr)
	saved := tr.vstore
	tr.SetVStore(&corruptFlipVStore{})
	t.Cleanup(func() { tr.SetVStore(saved) })

	if _, err := tr.Query(0, 0.001); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("strict mode: err = %v, want ErrCorrupt", err)
	}
	tr.FaultTolerant = true
	res, err := tr.Query(0, 0.001)
	if err != nil {
		t.Fatalf("cell-flip fault not absorbed: %v", err)
	}
	if len(res.Degradations) != 1 || res.Degradations[0].Cause != CauseCellFlip {
		t.Fatalf("degradations = %+v, want one cell-flip", res.Degradations)
	}
	if len(res.Items) != 1 || res.Items[0].NodeID != 0 {
		t.Fatalf("items = %+v, want the root internal LoD", res.Items)
	}
}

type corruptFlipVStore struct{}

func (corruptFlipVStore) Name() string     { return "corrupt-flip" }
func (corruptFlipVStore) SizeBytes() int64 { return 0 }
func (corruptFlipVStore) SetCell(cells.CellID) error {
	return &storage.CorruptError{Page: 3}
}
func (corruptFlipVStore) NodeVD(_ NodeID, dst []VD) ([]VD, bool, error) { return dst, false, nil }

// TestDegradedPayloadFault: a corrupt payload extent during FetchPayloads
// swaps in a sibling LoD level of the same object/node instead of failing.
func TestDegradedPayloadFault(t *testing.T) {
	tr, _ := withMemStore(t)
	cleanFaults(t, tr)
	tr.FaultTolerant = true
	res, err := tr.Query(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) == 0 {
		t.Skip("empty cell")
	}
	it := res.Items[0]
	page := it.Extent.Start
	tr.Disk.CorruptPage(page)
	t.Cleanup(func() { tr.Disk.HealPage(page) })

	n, err := tr.FetchPayloads(res, nil)
	if err != nil {
		t.Fatalf("payload fault not absorbed: %v", err)
	}
	if len(res.Degradations) == 0 {
		t.Fatal("no degradation recorded")
	}
	d := res.Degradations[0]
	if d.Cause != CausePayload {
		t.Fatalf("cause = %v, want payload", d.Cause)
	}
	if d.SubstituteLevel >= 0 {
		// A readable sibling level was swapped in and fetched.
		if res.Items[0].Level != d.SubstituteLevel {
			t.Fatalf("item level %d, degradation says %d", res.Items[0].Level, d.SubstituteLevel)
		}
		if res.Items[0].Extent.Start == page {
			t.Fatal("item still points at the corrupt extent")
		}
		if n != len(res.Items) {
			t.Fatalf("fetched %d of %d", n, len(res.Items))
		}
	} else if n != len(res.Items)-1 {
		t.Fatalf("fetched %d, want %d (item dropped)", n, len(res.Items)-1)
	}
}

// TestFaultTolerantNoFaultsIdentical: with no faults firing, fault-
// tolerant traversal returns byte-identical results — zero behavior
// change.
func TestFaultTolerantNoFaultsIdentical(t *testing.T) {
	tr, _ := withMemStore(t)
	cleanFaults(t, tr)
	pass := func() []*QueryResult {
		out := make([]*QueryResult, tr.Grid.NumCells())
		for c := 0; c < tr.Grid.NumCells(); c++ {
			res, err := tr.Query(cells.CellID(c), 0.001)
			if err != nil {
				t.Fatal(err)
			}
			// SimTime depends on disk head position carried over from
			// whatever ran before this pass; the read *sequence* is pinned
			// by the I/O counters and Items below, so drop it from the
			// comparison.
			res.Stats.SimTime = 0
			out[c] = res
		}
		return out
	}
	tr.FaultTolerant = false
	strict := pass()
	tr.FaultTolerant = true
	tolerant := pass()
	for c := range strict {
		if !reflect.DeepEqual(strict[c].Items, tolerant[c].Items) {
			t.Fatalf("cell %d: items differ with FaultTolerant set", c)
		}
		if !reflect.DeepEqual(strict[c].Stats, tolerant[c].Stats) {
			t.Fatalf("cell %d: stats differ: %+v vs %+v", c, strict[c].Stats, tolerant[c].Stats)
		}
		if len(tolerant[c].Degradations) != 0 {
			t.Fatalf("cell %d: phantom degradations %+v", c, tolerant[c].Degradations)
		}
	}
}

// TestQueryTransientFaultAbsorbed: transient faults are retried away even
// in strict mode; the only trace is Stats.Retries.
func TestQueryTransientFaultAbsorbed(t *testing.T) {
	tr, _ := withMemStore(t)
	cleanFaults(t, tr)
	ref, err := tr.Query(1, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	tr.Disk.InjectPageFault(tr.NodePage(0), storage.FaultTransient, 2)
	res, err := tr.Query(1, 0.001)
	if err != nil {
		t.Fatalf("transient fault surfaced: %v", err)
	}
	if res.Stats.Retries == 0 {
		t.Fatal("no retries counted")
	}
	if !reflect.DeepEqual(ref.Items, res.Items) {
		t.Fatal("transient fault changed the answer set")
	}
}

// TestDegradedStrictModeUnchanged: with FaultTolerant off, corrupt pages
// still abort the query exactly as before.
func TestDegradedStrictModeUnchanged(t *testing.T) {
	tr, _ := withMemStore(t)
	cleanFaults(t, tr)
	page := tr.NodePage(0)
	tr.Disk.CorruptPage(page)
	t.Cleanup(func() { tr.Disk.HealPage(page) })
	if _, err := tr.Query(0, 0.001); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}
