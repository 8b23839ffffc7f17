package storage

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// --- retry accounting boundaries ---

// TestRetryAccountingPermanent: a permanent fault charges exactly
// MaxRetries retries (with non-positive values coerced to the default 3)
// before surfacing CorruptError.
func TestRetryAccountingPermanent(t *testing.T) {
	for _, tc := range []struct {
		maxRetries  int
		wantRetries int64
	}{
		{0, 3}, // coerced to the default
		{1, 1},
		{3, 3},
	} {
		d, start := faultDisk(t, 8)
		d.InjectFaults(FaultConfig{MaxRetries: tc.maxRetries})
		d.InjectPageFault(start, FaultPermanent, 0)
		before := d.Stats()
		if _, err := d.ReadBytes(start, d.PageSize(), ClassLight); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("MaxRetries=%d: err = %v, want ErrCorrupt", tc.maxRetries, err)
		}
		if got := d.Stats().Retries - before.Retries; got != tc.wantRetries {
			t.Errorf("MaxRetries=%d: retries = %d, want %d", tc.maxRetries, got, tc.wantRetries)
		}
	}
}

// TestRetryAccountingTransient: a transient fault that clears within the
// budget charges exactly as many retries as it failed attempts, and the
// read succeeds.
func TestRetryAccountingTransient(t *testing.T) {
	for _, tc := range []struct {
		maxRetries  int
		planted     int
		wantRetries int64
		wantOK      bool
	}{
		{0, 3, 3, true},  // coerced default budget of 3 just covers it
		{1, 1, 1, true},  // one failure, one retry
		{1, 2, 1, false}, // budget exhausted before the fault wears out
		{3, 2, 2, true},
	} {
		d, start := faultDisk(t, 8)
		d.InjectFaults(FaultConfig{MaxRetries: tc.maxRetries})
		d.InjectPageFault(start, FaultTransient, tc.planted)
		before := d.Stats()
		_, err := d.ReadBytes(start, d.PageSize(), ClassLight)
		if (err == nil) != tc.wantOK {
			t.Fatalf("MaxRetries=%d planted=%d: err = %v, want ok=%v",
				tc.maxRetries, tc.planted, err, tc.wantOK)
		}
		if got := d.Stats().Retries - before.Retries; got != tc.wantRetries {
			t.Errorf("MaxRetries=%d planted=%d: retries = %d, want %d",
				tc.maxRetries, tc.planted, got, tc.wantRetries)
		}
	}
}

// --- deadline-aware reads ---

// TestExpiredContextFailsFast: a read through a client whose bound
// context is already done fails with the context's error before paying
// any cost — no seek, no transfer, no retries, no fault draw.
func TestExpiredContextFailsFast(t *testing.T) {
	d, start := faultDisk(t, 8)
	// Faults armed: a fail-fast read must not even draw from the injector.
	d.InjectFaults(FaultConfig{Seed: 3, PageProb: 1, TransientFrac: 1})
	c := d.NewClient()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.BindContext(ctx)

	before := d.Stats()
	if _, err := c.ReadBytes(start, c.PageSize(), ClassLight); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReadBytes err = %v, want context.Canceled", err)
	}
	if err := c.ReadExtent(start, 4, ClassHeavy); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReadExtent err = %v, want context.Canceled", err)
	}
	if _, err := c.ReadBytes(start, 100, ClassLight); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReadBytes err = %v, want context.Canceled", err)
	}
	if got := d.Stats(); got != before {
		t.Fatalf("fail-fast reads charged cost: %+v vs %+v", got, before)
	}

	// Unbinding (nil) restores unbounded reads.
	c.BindContext(nil)
	if _, err := c.ReadBytes(start, c.PageSize(), ClassLight); err != nil {
		t.Fatalf("unbound read failed: %v", err)
	}
}

// TestDeadlineExpiresMidRetryLadder: a context that expires while a read
// is retrying aborts the ladder at the next attempt instead of burning
// the rest of the budget. An already-expired deadline (the boundary
// case) charges zero retries and zero backoff time.
func TestDeadlineExpiresMidRetryLadder(t *testing.T) {
	d, start := faultDisk(t, 8)
	d.InjectFaults(FaultConfig{MaxRetries: 3})
	d.InjectPageFault(start, FaultTransient, 3)
	c := d.NewClient()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	c.BindContext(ctx)

	before := d.Stats()
	_, err := c.ReadBytes(start, c.PageSize(), ClassLight)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	d2 := d.Stats().Sub(before)
	if d2.Retries != 0 {
		t.Fatalf("expired-deadline read charged %d retries, want 0", d2.Retries)
	}
	if d2.SimTime != 0 {
		t.Fatalf("expired-deadline read charged %v simulated backoff, want 0", d2.SimTime)
	}
	// The planted fault is untouched: a fresh unbounded client still sees
	// all three failures (and absorbs them within the default budget).
	c2 := d.NewClient()
	before = d.Stats()
	if _, err := c2.ReadBytes(start, c2.PageSize(), ClassLight); err != nil {
		t.Fatalf("follow-up read failed: %v", err)
	}
	if got := d.Stats().Retries - before.Retries; got != 3 {
		t.Fatalf("follow-up retries = %d, want 3 (fail-fast read must not consume the fault)", got)
	}
}

// --- retry jitter ---

// TestRetryJitterCostOnly: enabling Jitter never changes which reads
// draw faults or how many retries fire — only the simulated backoff
// grows. The fault stream and the jitter stream are separate rngs.
func TestRetryJitterCostOnly(t *testing.T) {
	run := func(jitter bool) ([]bool, int64, time.Duration) {
		d, start := faultDisk(t, 64)
		d.InjectFaults(FaultConfig{Seed: 11, PageProb: 0.5, TransientFrac: 1, Jitter: jitter})
		outcomes := make([]bool, 64)
		for i := range outcomes {
			_, err := d.ReadBytes(start+PageID(i), d.PageSize(), ClassLight)
			outcomes[i] = err == nil
		}
		s := d.Stats()
		return outcomes, s.Retries, s.SimTime
	}
	plain, pr, pt := run(false)
	jit, jr, jt := run(true)
	for i := range plain {
		if plain[i] != jit[i] {
			t.Fatalf("page %d: fault outcome changed by jitter", i)
		}
	}
	if pr != jr {
		t.Fatalf("retries changed by jitter: %d vs %d", pr, jr)
	}
	if pr == 0 {
		t.Fatal("workload drew no retries; jitter not exercised")
	}
	if jt <= pt {
		t.Fatalf("jittered sim time %v not greater than plain %v", jt, pt)
	}
}

// --- circuit breaker ---

// TestBreakerTripAndCooldown walks the full region state machine:
// consecutive permanent faults trip the region, tripped reads fail fast
// with zero cost, the counted cooldown admits a half-open probe, and a
// successful probe closes the region.
func TestBreakerTripAndCooldown(t *testing.T) {
	d, start := faultDisk(t, 16)
	d.SetBreaker(BreakerConfig{RegionPages: 16, Threshold: 3, Cooldown: 4})
	for i := 0; i < 3; i++ {
		d.InjectPageFault(start+PageID(i), FaultPermanent, 0)
		if _, err := d.ReadBytes(start+PageID(i), d.PageSize(), ClassLight); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("faulted read %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	if s := d.BreakerStats(); s.Trips != 1 || s.OpenRegions != 1 {
		t.Fatalf("after threshold faults: %+v, want 1 trip / 1 open region", s)
	}

	// A healthy page in the tripped region fails fast: breaker-tagged,
	// degradable, and free.
	before := d.Stats()
	var ce *CorruptError
	if _, err := d.ReadBytes(start+10, d.PageSize(), ClassLight); !errors.As(err, &ce) || !ce.Tripped {
		t.Fatalf("tripped-region read: err = %v, want breaker CorruptError", err)
	}
	if got := d.Stats(); got != before {
		t.Fatalf("tripped read charged cost: %+v vs %+v", got, before)
	}

	// Two more rejections exhaust the cooldown of 4; the next read is the
	// half-open probe, succeeds on healthy media, and closes the region.
	for i := 0; i < 2; i++ {
		if _, err := d.ReadBytes(start+10, d.PageSize(), ClassLight); !errors.As(err, &ce) || !ce.Tripped {
			t.Fatalf("cooldown read %d: err = %v, want breaker CorruptError", i, err)
		}
	}
	if _, err := d.ReadBytes(start+10, d.PageSize(), ClassLight); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	s := d.BreakerStats()
	if s.Probes != 1 || s.Rejections != 3 || s.OpenRegions != 0 {
		t.Fatalf("after probe: %+v, want 1 probe / 3 rejections / 0 open", s)
	}
	if _, err := d.ReadBytes(start+11, d.PageSize(), ClassLight); err != nil {
		t.Fatalf("closed-region read failed: %v", err)
	}
}

// TestBreakerProbeFailureReopens: a failing half-open probe re-opens the
// region and restarts the cooldown.
func TestBreakerProbeFailureReopens(t *testing.T) {
	d, start := faultDisk(t, 16)
	d.SetBreaker(BreakerConfig{RegionPages: 16, Threshold: 2, Cooldown: 2})
	for i := 0; i < 2; i++ {
		d.InjectPageFault(start+PageID(i), FaultPermanent, 0)
		if _, err := d.ReadBytes(start+PageID(i), d.PageSize(), ClassLight); err == nil {
			t.Fatal("faulted read succeeded")
		}
	}
	d.InjectPageFault(start+5, FaultPermanent, 0)
	var ce *CorruptError
	// One rejection, then the probe — which hits the faulted page 5 and
	// fails, re-opening the region.
	if _, err := d.ReadBytes(start+5, d.PageSize(), ClassLight); !errors.As(err, &ce) || !ce.Tripped {
		t.Fatalf("rejection read: err = %v, want breaker CorruptError", err)
	}
	if _, err := d.ReadBytes(start+5, d.PageSize(), ClassLight); !errors.Is(err, ErrCorrupt) {
		t.Fatal("probe read did not reach media")
	}
	s := d.BreakerStats()
	if s.Trips != 1 || s.Probes != 1 || s.OpenRegions != 1 {
		t.Fatalf("after failed probe: %+v, want region re-opened", s)
	}
}

// TestBreakerHealsOnWrite: a successful WritePage into a tripped region
// clears it outright — the rewrite remapped the damaged sectors.
func TestBreakerHealsOnWrite(t *testing.T) {
	d, start := faultDisk(t, 16)
	d.SetBreaker(BreakerConfig{RegionPages: 16, Threshold: 1, Cooldown: 100})
	d.InjectPageFault(start, FaultPermanent, 0)
	if _, err := d.ReadBytes(start, d.PageSize(), ClassLight); err == nil {
		t.Fatal("faulted read succeeded")
	}
	if s := d.BreakerStats(); s.OpenRegions != 1 {
		t.Fatalf("region not tripped: %+v", s)
	}
	if err := d.WritePage(start, make([]byte, d.PageSize())); err != nil {
		t.Fatal(err)
	}
	if s := d.BreakerStats(); s.OpenRegions != 0 {
		t.Fatalf("write did not heal the region: %+v", s)
	}
	if _, err := d.ReadBytes(start+3, d.PageSize(), ClassLight); err != nil {
		t.Fatalf("healed-region read failed: %v", err)
	}
}

// TestBreakerRemoval: the zero config removes the breaker and reads in a
// previously tripped region flow again.
func TestBreakerRemoval(t *testing.T) {
	d, start := faultDisk(t, 16)
	d.SetBreaker(BreakerConfig{RegionPages: 16, Threshold: 1, Cooldown: 100})
	d.InjectPageFault(start, FaultPermanent, 0)
	if _, err := d.ReadBytes(start, d.PageSize(), ClassLight); err == nil {
		t.Fatal("faulted read succeeded")
	}
	d.SetBreaker(BreakerConfig{})
	if _, err := d.ReadBytes(start+1, d.PageSize(), ClassLight); err != nil {
		t.Fatalf("read after breaker removal failed: %v", err)
	}
	if s := d.BreakerStats(); s != (BreakerStats{}) {
		t.Fatalf("removed breaker still reports state: %+v", s)
	}
}

// --- snapshot consistency (the PR's bugfix regression test) ---

// TestStatsSnapshotConsistency: Stats() is one critical section, so a
// snapshot taken mid-run can never show more physical or coalesced reads
// than pool misses — each light read is counted a miss before it goes to
// media or joins a flight. Before the fix, pool counters lived behind a
// separate lock and concurrent snapshots could see LightReads ahead of
// PoolLightMisses. Run with -race.
func TestStatsSnapshotConsistency(t *testing.T) {
	d, start := faultDisk(t, 256)
	d.SetCacheSize(32) // far smaller than the working set: constant misses

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := d.NewClient()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.ReadBytes(start+PageID((w*37+i)%256), c.PageSize(), ClassLight); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}(w)
	}
	// Snapshot until the workers have racked up real traffic — a fixed
	// iteration count can finish before the goroutines are even scheduled.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := d.Stats()
		if s.LightReads+s.CoalescedReads > s.PoolLightMisses {
			close(stop)
			wg.Wait()
			t.Fatalf("torn snapshot: LightReads %d + CoalescedReads %d > PoolLightMisses %d",
				s.LightReads, s.CoalescedReads, s.PoolLightMisses)
		}
		if s.PoolLightMisses >= 2000 || time.Now().After(deadline) {
			break
		}
	}
	close(stop)
	wg.Wait()
	s := d.Stats()
	if s.PoolLightMisses == 0 || s.LightReads == 0 {
		t.Fatalf("workload never missed the pool: %+v", s)
	}
}
