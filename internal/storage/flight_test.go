package storage

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightCoalescesFollowers: followers that arrive while a load is in
// flight share its result without running load again.
func TestFlightCoalescesFollowers(t *testing.T) {
	f := flight{calls: map[PageID]*flightCall{}}
	const followers = 4
	var loads atomic.Int64
	started := make([]chan struct{}, followers)
	for i := range started {
		started[i] = make(chan struct{})
	}

	release := make(chan struct{})
	leaderLoad := func() ([]byte, error) {
		loads.Add(1)
		<-release
		return []byte{0xAB}, nil
	}

	type result struct {
		data   []byte
		err    error
		leader bool
	}
	results := make(chan result, followers+1)
	go func() {
		data, err, leader := f.do(7, leaderLoad)
		results <- result{data, err, leader}
	}()
	// Wait until the leader is inside load (its call is registered).
	for {
		f.mu.Lock()
		_, inFlight := f.calls[7]
		f.mu.Unlock()
		if inFlight {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < followers; i++ {
		go func(i int) {
			close(started[i])
			data, err, leader := f.do(7, func() ([]byte, error) {
				loads.Add(1)
				return nil, errors.New("follower ran its own load")
			})
			results <- result{data, err, leader}
		}(i)
	}
	// Release the leader only after every follower has reached do (plus a
	// grace period for the last few instructions to the map lookup).
	go func() {
		for i := range started {
			<-started[i]
		}
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()

	leaders := 0
	for i := 0; i < followers+1; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("result %d: %v", i, r.err)
		}
		if len(r.data) != 1 || r.data[0] != 0xAB {
			t.Fatalf("result %d: wrong data %v", i, r.data)
		}
		if r.leader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want exactly 1", leaders)
	}
	if n := loads.Load(); n != 1 {
		t.Fatalf("load ran %d times, want 1", n)
	}
	if len(f.calls) != 0 {
		t.Fatalf("%d stale in-flight entries", len(f.calls))
	}
}

// TestFlightPropagatesError: a failed load reaches every coalesced caller.
func TestFlightPropagatesError(t *testing.T) {
	f := flight{calls: map[PageID]*flightCall{}}
	sentinel := errors.New("media gone")
	release := make(chan struct{})
	errs := make(chan error, 2)
	go func() {
		_, err, _ := f.do(3, func() ([]byte, error) {
			<-release
			return nil, sentinel
		})
		errs <- err
	}()
	for {
		f.mu.Lock()
		_, inFlight := f.calls[3]
		f.mu.Unlock()
		if inFlight {
			break
		}
		time.Sleep(time.Millisecond)
	}
	go func() {
		_, err, _ := f.do(3, func() ([]byte, error) { return nil, nil })
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, sentinel) {
			t.Fatalf("caller %d: got %v, want sentinel", i, err)
		}
	}
	// Distinct ids never coalesce: a fresh id runs its own load.
	data, err, leader := f.do(4, func() ([]byte, error) { return []byte{1}, nil })
	if err != nil || !leader || len(data) != 1 {
		t.Fatalf("fresh id: data=%v err=%v leader=%v", data, err, leader)
	}
}

// TestCoalescedReadsAccounting: under concurrent same-page reads through
// a pooled disk, every request resolves as exactly one of {pool hit,
// physical read, coalesced read} — the counter invariant the DiskStats
// surface documents.
func TestCoalescedReadsAccounting(t *testing.T) {
	d := NewDisk(256, DefaultCostModel())
	const pages = 4
	base := d.AllocPages(pages)
	for i := 0; i < pages; i++ {
		if err := d.WritePage(base+PageID(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	d.SetCacheSize(2) // smaller than the working set: misses keep happening
	defer d.SetCacheSize(0)
	d.ResetStats()

	const goroutines = 8
	const iters = 400
	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := base + PageID((g+i)%pages)
				p, err := d.ReadBytes(id, d.PageSize(), ClassLight, nil)
				if err != nil || p[0] != byte((g+i)%pages) {
					failures.Add(1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatal("concurrent reads failed or returned wrong data")
	}
	st := d.Stats()
	total := int64(goroutines * iters)
	if got := st.LightReads + st.CoalescedReads + st.PoolLightHits; got != total {
		t.Fatalf("LightReads %d + CoalescedReads %d + PoolLightHits %d = %d, want %d requests",
			st.LightReads, st.CoalescedReads, st.PoolLightHits, got, total)
	}
	if st.LightReads == 0 {
		t.Fatal("no physical reads at all")
	}
}

// TestCoalescedReadsSequentialZero: without concurrency there is nothing
// to coalesce — the counter must stay at zero, and single-threaded
// costs are unchanged by the singleflight layer.
func TestCoalescedReadsSequentialZero(t *testing.T) {
	d := newTestDisk()
	base := d.AllocPages(4)
	d.SetCacheSize(2)
	defer d.SetCacheSize(0)
	d.ResetStats()
	for i := 0; i < 40; i++ {
		if _, err := d.ReadBytes(base+PageID(i%4), d.PageSize(), ClassLight, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.CoalescedReads != 0 {
		t.Fatalf("sequential reads coalesced: %d", st.CoalescedReads)
	}
	if st.LightReads+st.PoolLightHits != 40 {
		t.Fatalf("LightReads %d + PoolLightHits %d != 40", st.LightReads, st.PoolLightHits)
	}
}

// TestCoalescedReadsClientAttribution: a follower's own client is charged
// the coalesced read, not the leader's.
func TestCoalescedReadsClientAttribution(t *testing.T) {
	d := NewDisk(256, DefaultCostModel())
	base := d.AllocPages(1)
	if err := d.WritePage(base, []byte{0x42}); err != nil {
		t.Fatal(err)
	}
	d.SetCacheSize(4)
	defer d.SetCacheSize(0)
	d.ResetStats()

	leader := d.NewClient()
	follower := d.NewClient()
	if _, err := leader.ReadBytes(base, d.PageSize(), ClassLight, nil); err != nil {
		t.Fatal(err)
	}
	if st := leader.Stats(); st.Reads != 1 || st.CoalescedReads != 0 {
		t.Fatalf("leader stats: %+v", st)
	}
	// The page is pooled now; the follower hits the pool, no coalesce.
	if _, err := follower.ReadBytes(base, d.PageSize(), ClassLight, nil); err != nil {
		t.Fatal(err)
	}
	if st := follower.Stats(); st.PoolLightHits != 1 || st.CoalescedReads != 0 {
		t.Fatalf("follower stats: %+v", st)
	}
	// The global ledger agrees with per-client attribution.
	if st := d.Stats(); st.CoalescedReads != 0 || st.LightReads != 1 || st.PoolLightHits != 1 {
		t.Fatalf("disk stats: %+v", st)
	}
}

// TestCoalescedFollowerSurvivesLeaderCancel: a flight leader whose own
// context is canceled mid-load must not fail a follower whose context is
// live — BindContext promises one session's deadline never affects
// another's reads. The leader is parked on the breaker's lock inside its
// miss read (with a fault policy installed, so the load polls the
// leader's context) while the follower coalesces onto its flight.
func TestCoalescedFollowerSurvivesLeaderCancel(t *testing.T) {
	d := NewDisk(256, DefaultCostModel())
	base := d.AllocPages(1)
	if err := d.WritePage(base, []byte{0x42}); err != nil {
		t.Fatal(err)
	}
	d.SetCacheSize(4)
	d.InjectFaults(FaultConfig{})
	d.SetBreaker(BreakerConfig{RegionPages: 1})
	d.ResetStats()

	leader, follower := d.NewClient(), d.NewClient()
	ctx, cancel := context.WithCancel(context.Background())
	leader.BindContext(ctx)

	d.breaker.mu.Lock() // park the leader's miss read on the breaker
	leaderErr := make(chan error, 1)
	go func() {
		_, err := leader.ReadBytes(base, 256, ClassLight, nil)
		leaderErr <- err
	}()
	waitFor(t, func() bool { return d.Stats().PoolLightMisses == 1 })
	cancel()
	followerErr := make(chan error, 1)
	var page []byte
	go func() {
		var err error
		page, err = follower.ReadBytes(base, 256, ClassLight, nil)
		followerErr <- err
	}()
	waitFor(t, func() bool { return d.Stats().PoolLightMisses == 2 })
	time.Sleep(20 * time.Millisecond) // let the follower reach the flight
	d.breaker.mu.Unlock()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: err = %v, want context.Canceled", err)
	}
	if err := <-followerErr; err != nil {
		t.Fatalf("follower with a live context failed: %v", err)
	}
	if page[0] != 0x42 {
		t.Fatalf("follower read %#x, want 0x42", page[0])
	}
	// Each request is exactly one of {pool hit, physical read, coalesced
	// read}: the leader's aborted read was charged, and the follower's
	// retry is either its own physical read or a coalesced one.
	st := d.Stats()
	if got := st.LightReads + st.CoalescedReads + st.PoolLightHits; got != 2 {
		t.Fatalf("LightReads %d + CoalescedReads %d + PoolLightHits %d = %d, want 2 requests",
			st.LightReads, st.CoalescedReads, st.PoolLightHits, got)
	}
	if fs := follower.Stats(); fs.LightReads+fs.CoalescedReads != 1 || fs.PoolLightMisses != 1 {
		t.Fatalf("follower stats: %+v", fs)
	}
}

// waitFor polls cond until it holds, failing the test after a few seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
	}
}
