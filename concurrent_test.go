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
		got, err := re.NewSession().QueryCell(cell, 0.001)
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
	} {
		if _, err := db.Serve(opts, 2); err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("Serve with %s: err = %v, want a rejection naming the option", name, err)
		}
	}

	// Coherent serving: each client keeps its own retained cut, so with
	// no pool it reads no more pages than the same client walking the
	// same path from the root at every cell.
	db.SetCacheSize(0)
	full, err := db.Serve(WalkOptions{Frames: 60, Eta: 0.001, Delta: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := db.Serve(WalkOptions{Frames: 60, Eta: 0.001, Delta: true, Coherent: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var warmReads, fullReads int64
	for i, w := range warm.PerClient {
		f := full.PerClient[i]
		warmReads, fullReads = warmReads+w.Reads, fullReads+f.Reads
		if w.Err != "" || f.Err != "" {
			t.Fatalf("client %d: coherent err %q, full err %q", i, w.Err, f.Err)
		}
		if w.Queries != f.Queries {
			t.Fatalf("client %d: coherent walk ran %d queries, full walk %d", i, w.Queries, f.Queries)
		}
		if w.Reads > f.Reads {
			t.Fatalf("client %d: coherent walk read %d pages, full walk %d", i, w.Reads, f.Reads)
		}
	}
	if warmReads >= fullReads {
		t.Fatalf("coherent clients read %d pages in all, full-traversal clients %d: the cut saved nothing", warmReads, fullReads)
	}

	// Walkthrough is Serve with one client: client 0's path, queries and
	// page reads.
	ws, err := db.Walkthrough(WalkOptions{Frames: 60, Eta: 0.001, Delta: true, Coherent: true})
	if err != nil {
		t.Fatal(err)
	}
	c0 := warm.PerClient[0]
	if ws.Queries != c0.Queries || ws.TotalLightIO+ws.TotalHeavyIO != c0.Reads {
		t.Fatalf("Walkthrough ran %d queries reading %d pages; Serve's client 0 %d and %d",
			ws.Queries, ws.TotalLightIO+ws.TotalHeavyIO, c0.Queries, c0.Reads)
	}
	if ws.Coherence.Incremental == 0 {
		t.Fatal("coherent Walkthrough recorded no cut activity")
	}
}

// TestConcurrentWalkthroughsRace: two non-coherent VISUAL walkthroughs,
// a REVIEW walkthrough and a session's query, fetch and LoadMesh run at
// once on one DB. Each walk plays on its own session, so under -race
// this fails on any walk that moves a cell cursor another reader uses,
// and each VISUAL walk charges exactly the pages it charges alone. CI
// runs it with -count=20.
func TestConcurrentWalkthroughsRace(t *testing.T) {
	db := testDB(t)
	visual := WalkOptions{Frames: 40, Eta: 0.001, Delta: true}
	ref, err := db.Walkthrough(visual)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws, err := db.Walkthrough(visual)
			if err == nil && (ws.Queries != ref.Queries || ws.TotalLightIO != ref.TotalLightIO || ws.TotalHeavyIO != ref.TotalHeavyIO) {
				err = fmt.Errorf("%d queries, %d light and %d heavy pages; alone %d, %d and %d",
					ws.Queries, ws.TotalLightIO, ws.TotalHeavyIO, ref.Queries, ref.TotalLightIO, ref.TotalHeavyIO)
			}
			if err != nil {
				errs <- fmt.Errorf("VISUAL walk %d: %w", g, err)
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := db.Walkthrough(WalkOptions{Frames: 40, UseREVIEW: true, Delta: true}); err != nil {
			errs <- fmt.Errorf("REVIEW walk: %w", err)
		}
	}()
	go func() {
		defer wg.Done()
		s := db.NewSession()
		for c := 0; c < db.NumCells(); c += 5 {
			r, err := s.QueryCell(c, 0.001)
			if err == nil {
				err = s.Fetch(r)
			}
			if err == nil && len(r.Items) > 0 {
				_, err = db.LoadMesh(r.Items[0])
			}
			if err != nil {
				errs <- fmt.Errorf("session reader, cell %d: %w", c, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
