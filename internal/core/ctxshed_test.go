package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/cells"
)

// cleanShed uninstalls any load-shedding policy after a test: the
// process-cached fixture tree is shared, so a leaked policy would relax
// every later query in the package.
func cleanShed(t *testing.T, tr *Tree) {
	t.Helper()
	t.Cleanup(func() { tr.SetShed(nil) })
}

// stripShedMarks drops CauseShed degradations, leaving the media-fault
// stream (empty on healthy fixtures).
func stripShedMarks(ds []Degradation) []Degradation {
	var out []Degradation
	for _, d := range ds {
		if d.Cause != CauseShed {
			out = append(out, d)
		}
	}
	return out
}

// TestQueryContextBackgroundIdentical: the Context-taking entry points
// with an unbounded context are the plain forms — same items, same
// degradations, same stats, for every cell and eta. This is the PR's
// compatibility invariant: no deadline, no behavior change.
func TestQueryContextBackgroundIdentical(t *testing.T) {
	tr, _ := withMemStore(t)
	for _, eta := range []float64{0, 0.001, 0.05} {
		for c := 0; c < tr.Grid.NumCells(); c++ {
			cell := cells.CellID(c)
			plain, err := tr.Query(cell, eta)
			if err != nil {
				t.Fatal(err)
			}
			ctxed, err := tr.QueryContext(context.Background(), cell, eta)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain.Items, ctxed.Items) {
				t.Fatalf("cell %d eta %v: items differ between Query and QueryContext(Background)", cell, eta)
			}
			if !reflect.DeepEqual(plain.Degradations, ctxed.Degradations) {
				t.Fatalf("cell %d eta %v: degradations differ", cell, eta)
			}
			// SimTime depends on where the previous query parked the disk
			// head, so it legitimately differs between back-to-back runs;
			// every other counter must match exactly.
			ps, cs := plain.Stats, ctxed.Stats
			ps.SimTime, cs.SimTime = 0, 0
			if ps != cs {
				t.Fatalf("cell %d eta %v: stats differ: %+v vs %+v", cell, eta, ps, cs)
			}
		}
	}
}

// TestQueryContextCanceled: an already-canceled context aborts the
// traversal with an error that stays errors.Is-visible as
// context.Canceled — and cancellation is never degradable, even with
// FaultTolerant set.
func TestQueryContextCanceled(t *testing.T) {
	tr, _ := withMemStore(t)
	cleanFaults(t, tr)
	tr.FaultTolerant = true
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	res, err := tr.QueryContext(ctx, 0, 0.001)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("canceled query returned a result: %+v", res)
	}

	// The abort must not poison the session: the very next unbounded
	// query answers normally (the ctx binding was restored).
	if _, err := tr.Query(0, 0.001); err != nil {
		t.Fatalf("query after canceled query failed: %v", err)
	}
}

// TestQueryCoherentContextCanceled: the frame-coherent path honors the
// same contract — a canceled context is an abort, not a fall-back to the
// full traversal.
func TestQueryCoherentContextCanceled(t *testing.T) {
	tr, _ := withMemStore(t)
	s := tr.Session()
	// Prime a cut so the incremental path is actually taken.
	if _, err := s.QueryCoherent(0, 0.001); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.QueryCoherentContext(ctx, 1, 0.001); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The retained cut survives the abort and the session recovers.
	if _, err := s.QueryCoherent(1, 0.001); err != nil {
		t.Fatalf("coherent query after abort failed: %v", err)
	}
}

// TestShedEtaFactor: an EtaFactor policy answers exactly as the relaxed
// η would — same items as Query(cell, eta*factor) — and stamps the
// query-level CauseShed mark so the fidelity loss is visible.
func TestShedEtaFactor(t *testing.T) {
	tr, _ := withMemStore(t)
	cleanShed(t, tr)
	const eta, factor = 0.001, 8.0

	for c := 0; c < tr.Grid.NumCells(); c++ {
		cell := cells.CellID(c)
		tr.SetShed(nil)
		relaxed, err := tr.Query(cell, eta*factor)
		if err != nil {
			t.Fatal(err)
		}
		tr.SetShed(&ShedPolicy{EtaFactor: factor})
		shed, err := tr.Query(cell, eta)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(relaxed.Items, shed.Items) {
			t.Fatalf("cell %d: shed items differ from Query at relaxed eta", cell)
		}
		marks := 0
		for _, d := range shed.Degradations {
			if d.Cause == CauseShed && d.Node == NilNode {
				marks++
			}
		}
		if marks != 1 {
			t.Fatalf("cell %d: %d query-level shed marks, want 1", cell, marks)
		}
	}

	// Removing the policy restores the exact baseline.
	tr.SetShed(nil)
	base, err := tr.Query(0, eta)
	if err != nil {
		t.Fatal(err)
	}
	if len(stripShedMarks(base.Degradations)) != 0 || len(base.Degradations) != 0 {
		t.Fatalf("policy removed but degradations remain: %+v", base.Degradations)
	}
}

// TestShedMaxDepth: a depth limit truncates every branch at that depth,
// answering with the child's internal LoD and recording a per-node
// CauseShed Degradation that names the substitute.
func TestShedMaxDepth(t *testing.T) {
	tr, _ := withMemStore(t)
	cleanShed(t, tr)
	tr.SetShed(&ShedPolicy{MaxDepth: 1})
	res, err := tr.Query(0, 0) // eta 0 would otherwise visit every leaf
	if err != nil {
		t.Fatal(err)
	}
	rootChildren := make(map[NodeID]bool)
	for _, e := range tr.Root().Entries {
		rootChildren[e.ChildID] = true
	}
	for _, it := range res.Items {
		if !it.IsInternal() || !rootChildren[it.NodeID] {
			t.Fatalf("depth-1 item %+v is not a root child's internal LoD", it)
		}
	}
	var truncated int
	for _, d := range res.Degradations {
		if d.Cause != CauseShed {
			t.Fatalf("unexpected degradation cause %v on healthy media", d.Cause)
		}
		if d.Node == NilNode {
			continue // query-level η mark (not present here, but harmless)
		}
		truncated++
		if !rootChildren[d.Node] || d.SubstituteNode != d.Node || d.SubstituteLevel < 0 {
			t.Fatalf("truncation record malformed: %+v", d)
		}
	}
	if truncated == 0 || truncated != len(res.Items) {
		t.Fatalf("%d truncation records for %d items — shedding went silent", truncated, len(res.Items))
	}

	// Both drivers truncate identically: the coherent path (which
	// delegates to the full query while shedding) gives the serial
	// answer, Degradations included.
	coh := tr.Session()
	for _, depth := range []int{1, 2} {
		tr.SetShed(&ShedPolicy{MaxDepth: depth})
		for c := 0; c < tr.Grid.NumCells(); c++ {
			cell := cells.CellID(c)
			want, err := tr.Query(cell, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := coh.QueryCoherent(cell, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Items, want.Items) || !reflect.DeepEqual(got.Degradations, want.Degradations) {
				t.Fatalf("depth %d cell %d: coherent truncation diverged from serial", depth, c)
			}
		}
	}
}

// TestShedSharedWithSessions: the policy slot installed before sessions
// are derived is shared — flipping it on the base tree changes what live
// sessions answer, and clearing it restores full fidelity everywhere.
func TestShedSharedWithSessions(t *testing.T) {
	tr, _ := withMemStore(t)
	cleanShed(t, tr)
	tr.SetShed(nil) // create the shared slot before deriving
	s := tr.Session()

	base, err := s.Query(0, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Degradations) != 0 {
		t.Fatalf("baseline query degraded: %+v", base.Degradations)
	}

	tr.SetShed(&ShedPolicy{EtaFactor: 4})
	shed, err := s.Query(0, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(shed.Degradations) == 0 {
		t.Fatal("session did not see the policy installed on the base tree")
	}

	tr.SetShed(nil)
	after, err := s.Query(0, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Items, after.Items) || len(after.Degradations) != 0 {
		t.Fatal("clearing the policy did not restore the baseline answer")
	}
}

// TestShedZeroPolicyInert: a policy that relaxes nothing (zero value)
// neither changes the answer nor records any degradation.
func TestShedZeroPolicyInert(t *testing.T) {
	tr, _ := withMemStore(t)
	cleanShed(t, tr)
	tr.SetShed(nil)
	base, err := tr.Query(0, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetShed(&ShedPolicy{})
	got, err := tr.Query(0, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Items, got.Items) || len(got.Degradations) != 0 {
		t.Fatal("zero policy changed the answer")
	}
}
