package hdov

import (
	"context"
	"testing"
	"time"
)

// TestServeChaosSmoke is the CI chaos probe: one ServeContext run with
// everything hostile turned on at once — seeded media faults (transient
// and permanent), jittered retry backoff, a circuit breaker, tight
// admission, fidelity shedding, and a per-frame budget. The contract
// under fire is the PR's headline: clients shed fidelity and skip
// frames, but not one of them sees a hard error, and the database comes
// back clean for whoever runs next.
func TestServeChaosSmoke(t *testing.T) {
	db := testDB(t)
	restoreFaultState(t, db)
	t.Cleanup(func() { db.SetBreaker(BreakerConfig{}) })

	db.SetFaultTolerant(true)
	db.InjectFaults(FaultPlan{
		Seed: 13, PageProb: 0.01, TransientFrac: 0.6,
		MaxRetries: 3, RetryJitter: true,
	})
	db.SetBreaker(BreakerConfig{RegionPages: 64, Threshold: 3, Cooldown: 32})

	stats, err := db.ServeContext(context.Background(), WalkOptions{
		Frames:      150,
		Eta:         0.001,
		Delta:       true,
		FrameBudget: 250 * time.Millisecond,
		Admission:   &AdmissionConfig{MaxConcurrent: 2, MaxQueue: 2},
		Shed:        &ShedConfig{Target: 2 * time.Millisecond},
	}, 6)
	if err != nil {
		t.Fatalf("chaos serve failed to launch: %v", err)
	}
	if stats.Errors != 0 {
		for _, c := range stats.PerClient {
			if c.Err != "" {
				t.Errorf("client error: %s", c.Err)
			}
		}
		t.Fatalf("%d of %d clients aborted under chaos", stats.Errors, stats.Clients)
	}
	if stats.Queries == 0 {
		t.Fatal("no queries served")
	}
	if stats.Degradations == 0 {
		t.Fatal("seeded faults and shedding produced zero degradations")
	}

	// The run must leave no residue: clear the injected chaos and the
	// next plain query answers strictly, with no retries and no shed.
	db.ClearFaults()
	db.SetBreaker(BreakerConfig{})
	db.SetFaultTolerant(false)
	res, err := db.NewSession().QueryCell(db.CellOf(centerPoint(db)), 0.001)
	if err != nil {
		t.Fatalf("post-chaos query failed: %v", err)
	}
	if len(res.Degradations) != 0 || res.Retries != 0 {
		t.Fatalf("chaos leaked into a clean run: %d degradations, %d retries",
			len(res.Degradations), res.Retries)
	}
}
