package hdov

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentSessionsDeterministic: with the pool disabled, every
// session must see the paper's exact single-client accounting (Figure 8
// page counts) no matter how many run at once, and identical answers.
func TestConcurrentSessionsDeterministic(t *testing.T) {
	db := testDB(t)
	p := centerPoint(db)
	cell := db.CellOf(p)

	ref, err := db.NewSession().QueryCell(cell, 0.001)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	results := make([]*Result, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := db.NewSession()
			results[i], errs[i] = s.QueryCell(cell, 0.001)
			if errs[i] != nil {
				return
			}
			st := s.Stats()
			if st.LightReads != ref.LightIO {
				errs[i] = fmt.Errorf("session light reads = %d, single-client reference = %d",
					st.LightReads, ref.LightIO)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if !reflect.DeepEqual(results[i].Items, ref.Items) {
			t.Fatalf("client %d items differ from reference", i)
		}
		if results[i].LightIO != ref.LightIO {
			t.Fatalf("client %d query light IO = %d, want %d", i, results[i].LightIO, ref.LightIO)
		}
	}
}

// TestConcurrentQueriesAndSave hammers one open DB from many goroutines —
// query+fetch traffic, concurrent crash-safe Saves, and pool
// reconfiguration — while the race detector watches. The saved snapshots
// must reopen to byte-identical answers.
func TestConcurrentQueriesAndSave(t *testing.T) {
	db := testDB(t)
	p := centerPoint(db)
	cell := db.CellOf(p)
	tmp := t.TempDir()

	ref, err := db.NewSession().QueryCell(cell, 0.001)
	if err != nil {
		t.Fatal(err)
	}

	db.SetCacheSize(1 << 12)
	defer db.SetCacheSize(0)

	const clients = 6
	const perClient = 12
	var wg sync.WaitGroup
	errs := make([]error, clients+3)

	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := db.NewSession()
			for q := 0; q < perClient; q++ {
				c := (cell + i + q) % db.NumCells()
				r, err := s.QueryCell(c, 0.001)
				if err != nil {
					errs[i] = err
					return
				}
				if q == 0 {
					if err := s.Fetch(r); err != nil {
						errs[i] = err
						return
					}
				}
			}
		}(i)
	}
	// Two concurrent savers snapshotting mid-traffic.
	dirs := []string{filepath.Join(tmp, "a"), filepath.Join(tmp, "b")}
	for j, dir := range dirs {
		wg.Add(1)
		go func(j int, dir string) {
			defer wg.Done()
			errs[clients+j] = db.Save(dir)
		}(j, dir)
	}
	// One goroutine resizing the pool under load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, n := range []int{1 << 10, 0, 1 << 12} {
			db.SetCacheSize(n)
		}
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	// Snapshots taken under live read traffic must reopen cleanly and
	// answer exactly like the live database.
	for _, dir := range dirs {
		re, err := Open(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		got, err := re.QueryCell(cell, 0.001)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if !reflect.DeepEqual(got.Items, ref.Items) {
			t.Fatalf("%s: reopened answer differs from live database", dir)
		}
	}
}

// TestServeAPI plays concurrent walkthrough clients through the public
// serving entry point and sanity-checks the aggregate accounting.
func TestServeAPI(t *testing.T) {
	db := testDB(t)
	db.SetCacheSize(1 << 12)
	defer db.SetCacheSize(0)

	stats, err := db.Serve(WalkOptions{Frames: 15, Eta: 0.001, Delta: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors > 0 {
		t.Fatalf("%d clients aborted: %+v", stats.Errors, stats.PerClient)
	}
	if stats.Clients != 3 || len(stats.PerClient) != 3 {
		t.Fatalf("clients = %d, per-client = %d", stats.Clients, len(stats.PerClient))
	}
	if stats.Queries <= 0 || stats.Throughput <= 0 {
		t.Fatalf("no served throughput: %+v", stats)
	}
	sum := 0
	for i, c := range stats.PerClient {
		if c.Queries <= 0 || c.Frames != 15 {
			t.Fatalf("client %d: %+v", i, c)
		}
		if c.Reads <= 0 {
			t.Fatalf("client %d charged no reads (per-session accounting broken)", i)
		}
		sum += c.Queries
	}
	if sum != stats.Queries {
		t.Fatalf("per-client queries sum %d != aggregate %d", sum, stats.Queries)
	}

	if ps := db.PoolStats(); ps.LightHits == 0 {
		t.Fatalf("shared pool saw no hits across 3 walkthrough clients: %+v", ps)
	}

	for name, opts := range map[string]WalkOptions{
		"UseREVIEW": {UseREVIEW: true},
		"Coherent":  {Coherent: true},
	} {
		if _, err := db.Serve(opts, 2); err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("Serve with %s: err = %v, want a rejection naming the option", name, err)
		}
	}
}
