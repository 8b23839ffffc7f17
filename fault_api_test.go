package hdov

import "testing"

// restoreFaultState puts the shared fixture back the way other tests
// expect it: no injector, no quarantine, strict mode.
func restoreFaultState(t *testing.T, db *DB) {
	t.Helper()
	t.Cleanup(func() {
		db.ClearFaults()
		db.SetFaultTolerant(false)
	})
}

func TestTransientFaultsThroughAPI(t *testing.T) {
	db := testDB(t)
	restoreFaultState(t, db)
	db.InjectFaults(FaultPlan{Seed: 11, PageProb: 1, TransientFrac: 1, MaxRetries: 4})
	res, err := db.NewSession().QueryCell(db.CellOf(centerPoint(db)), 0.001)
	if err != nil {
		t.Fatalf("transient-only faults failed a query: %v", err)
	}
	if res.Retries == 0 {
		t.Fatal("every read faulted but no retries surfaced")
	}
	if len(res.Degradations) != 0 {
		t.Fatalf("transient faults degraded the answer: %+v", res.Degradations)
	}
	if db.DiskStats().Retries == 0 {
		t.Fatal("DiskStats.Retries not wired")
	}
}

func TestDegradedModeThroughAPI(t *testing.T) {
	db := testDB(t)
	restoreFaultState(t, db)
	p := centerPoint(db)
	db.SetFaultTolerant(true)
	if !db.FaultTolerant() {
		t.Fatal("SetFaultTolerant did not stick")
	}
	db.InjectFaults(FaultPlan{Seed: 7, PageProb: 0.3, TransientFrac: 0})
	s := db.NewSession()
	res, err := s.QueryCell(db.CellOf(p), 0.001)
	if err != nil {
		t.Fatalf("degraded mode aborted: %v", err)
	}
	if err := s.Fetch(res); err != nil {
		t.Fatalf("degraded fetch aborted: %v", err)
	}
	if len(res.Degradations) == 0 {
		t.Fatal("30% permanent faults produced no degradations")
	}
	for _, d := range res.Degradations {
		switch d.Cause {
		case "node-record", "v-page", "payload", "cell-flip":
		default:
			t.Fatalf("unknown degradation cause %q", d.Cause)
		}
	}

	// Strict mode with the same faults still injected must refuse.
	db.SetFaultTolerant(false)
	sawError := false
	for cell := 0; cell < db.NumCells() && !sawError; cell++ {
		if _, err := db.NewSession().QueryCell(cell, 0.001); err != nil {
			sawError = true
		}
	}
	if !sawError {
		t.Fatal("strict mode absorbed permanent faults")
	}
}

func TestWalkthroughDegradationsThroughAPI(t *testing.T) {
	db := testDB(t)
	restoreFaultState(t, db)
	db.SetFaultTolerant(true)
	db.InjectFaults(FaultPlan{Seed: 3, PageProb: 0.01, TransientFrac: 0.5})
	ws, err := db.Walkthrough(WalkOptions{Frames: 60, Eta: 0.001, Delta: true})
	if err != nil {
		t.Fatalf("faulted walkthrough aborted: %v", err)
	}
	if ws.Frames != 60 {
		t.Fatalf("played %d frames, want 60", ws.Frames)
	}
	if ws.Degradations == 0 && ws.Retries == 0 {
		t.Fatal("1% faults over 60 frames left no trace in WalkStats")
	}
	if ws.DegradedFrames > ws.Frames {
		t.Fatalf("DegradedFrames %d > Frames %d", ws.DegradedFrames, ws.Frames)
	}
}
