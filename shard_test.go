package hdov

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// shardTestDB builds a private database for the sharding tests — the
// shared fixture stays unsharded for everything else.
func shardTestDB(t *testing.T) *DB {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scene.Blocks = 2
	cfg.GridCells = 4
	cfg.DoVRays = 256
	cfg.Scene.NominalBytes = 8 << 20
	db, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// publicFingerprint renders a public Result's answer bytes.
func publicFingerprint(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cell=%d eta=%g\n", r.Cell, r.Eta)
	for _, it := range r.Items {
		fmt.Fprintf(&b, "%d %d %x %x %d %x %d\n",
			it.ObjectID, it.NodeID, it.DoV, it.Detail, it.Level, it.Polygons, it.Bytes)
	}
	for _, dg := range r.Degradations {
		fmt.Fprintf(&b, "deg %d %d %s\n", dg.Node, dg.Object, dg.Cause)
	}
	return b.String()
}

// TestSessionContextForms: every Context form of a Session answers
// byte-identically to its plain form on an unsharded and on a sharded
// database — both go through the one routed path, so a sharded session's
// Context forms never reach for the unsharded tree — and every form
// shares one cell range check.
func TestSessionContextForms(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scene.Blocks = 2
	cfg.GridCells = 6
	cfg.DoVRays = 256
	cfg.Scene.NominalBytes = 8 << 20
	db, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const eta = 0.003
	type form func(s *Session, c int) (*Result, error)
	fetched := func(q form, fetch func(*Session, *Result) error) form {
		return func(s *Session, c int) (*Result, error) {
			r, err := q(s, c)
			if err == nil {
				err = fetch(s, r)
			}
			return r, err
		}
	}
	forms := []struct {
		name           string
		plain, withCtx form
	}{
		{"QueryCell",
			func(s *Session, c int) (*Result, error) { return s.QueryCell(c, eta) },
			func(s *Session, c int) (*Result, error) { return s.QueryCellContext(ctx, c, eta) }},
		{"QueryCellCoherent",
			func(s *Session, c int) (*Result, error) { return s.QueryCellCoherent(c, eta) },
			func(s *Session, c int) (*Result, error) { return s.QueryCellCoherentContext(ctx, c, eta) }},
		{"Fetch",
			fetched(func(s *Session, c int) (*Result, error) { return s.QueryCell(c, eta) },
				func(s *Session, r *Result) error { return s.Fetch(r) }),
			fetched(func(s *Session, c int) (*Result, error) { return s.QueryCell(c, eta) },
				func(s *Session, r *Result) error { return s.FetchContext(ctx, r) })},
	}
	for _, shards := range []int{0, 2} {
		if shards > 0 {
			if err := db.EnableSharding(ShardConfig{Shards: shards}); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range forms {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, f.name), func(t *testing.T) {
				plain, withCtx := db.NewSession(), db.NewSession()
				for c := 0; c < db.NumCells(); c++ {
					want, err := f.plain(plain, c)
					if err != nil {
						t.Fatal(err)
					}
					got, err := f.withCtx(withCtx, c)
					if err != nil {
						t.Fatal(err)
					}
					if a, b := publicFingerprint(got), publicFingerprint(want); a != b {
						t.Fatalf("cell %d: Context form diverged:\n got %s\nwant %s", c, a, b)
					}
				}
			})
		}
		// One range check serves every form: an off-grid point's cell
		// and a -1 in a batch both wrap ErrOutsideCells.
		s := db.NewSession()
		if _, err := s.QueryCell(db.CellOf(Pt(-1000, 0, 0)), eta); !errors.Is(err, ErrOutsideCells) {
			t.Fatalf("shards=%d: off-grid QueryCell err = %v, want ErrOutsideCells", shards, err)
		}
		if _, err := s.QueryMany([]int{0, -1}, eta); !errors.Is(err, ErrOutsideCells) {
			t.Fatalf("shards=%d: QueryMany with -1 err = %v, want ErrOutsideCells", shards, err)
		}
	}
}

func TestShardingAPI(t *testing.T) {
	db := shardTestDB(t)
	n := db.NumCells()
	const eta = 0.003

	// Unsharded baseline, one answer per cell.
	base := make([]string, n)
	s := db.NewSession()
	for c := 0; c < n; c++ {
		res, err := s.QueryCell(c, eta)
		if err != nil {
			t.Fatal(err)
		}
		base[c] = publicFingerprint(res)
	}

	if got := db.Sharded(); got != 0 {
		t.Fatalf("Sharded before enable = %d", got)
	}
	if err := db.EnableSharding(ShardConfig{Shards: 3}); err != nil {
		t.Fatal(err)
	}
	if got := db.Sharded(); got != 3 {
		t.Fatalf("Sharded = %d, want 3", got)
	}

	// Routed sessions answer byte-identically, serially and scattered.
	rs := db.NewSession()
	allCells := make([]int, n)
	for c := 0; c < n; c++ {
		allCells[c] = c
		res, err := rs.QueryCell(c, eta)
		if err != nil {
			t.Fatal(err)
		}
		if publicFingerprint(res) != base[c] {
			t.Fatalf("routed cell %d diverged from unsharded baseline", c)
		}
	}
	batch, err := rs.QueryMany(allCells, eta)
	if err != nil {
		t.Fatal(err)
	}
	for c, res := range batch {
		if publicFingerprint(res) != base[c] {
			t.Fatalf("scattered cell %d diverged from unsharded baseline", c)
		}
	}
	if _, err := rs.QueryMany([]int{n}, eta); err == nil {
		t.Fatal("out-of-range scatter accepted")
	}

	// Fetch routes by the result's cell.
	res, err := rs.QueryCell(n-1, eta)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Fetch(res); err != nil {
		t.Fatal(err)
	}
	if res.HeavyIO == 0 {
		t.Fatal("no heavy I/O after routed Fetch")
	}

	// Per-shard accounting partitions the grid and sums to the aggregate.
	br := db.ShardDiskStats()
	if len(br) != 3 {
		t.Fatalf("ShardDiskStats len = %d", len(br))
	}
	covered := 0
	var shardReads int64
	for i, ss := range br {
		if ss.Shard != i || ss.Hi <= ss.Lo {
			t.Fatalf("bad shard range %+v", ss)
		}
		covered += ss.Hi - ss.Lo
		shardReads += ss.Disk.Reads + ss.Replica.Reads
	}
	if covered != n {
		t.Fatalf("shard ranges cover %d cells, grid has %d", covered, n)
	}
	if shardReads == 0 {
		t.Fatal("routed queries charged no shard store")
	}
	if agg := db.DiskStats(); agg.Reads < shardReads {
		t.Fatalf("aggregate DiskStats reads %d < shard sum %d", agg.Reads, shardReads)
	}

	// Session-side split: the routed session saw at least one shard.
	if rs.ShardStatsOf(0).Reads+rs.ShardStatsOf(1).Reads+rs.ShardStatsOf(2).Reads == 0 {
		t.Fatal("session per-shard stats all zero")
	}

	// SetCacheSize splits the aggregate budget; PoolStats sums it back.
	db.SetCacheSize(30)
	if ps := db.PoolStats(); ps.Capacity != 30 {
		t.Fatalf("sharded pool capacity = %d, want 30", ps.Capacity)
	}
	db.SetCacheSize(0)

	// Hot-range promotion after traffic, then teardown.
	promoted, err := db.RebalanceHotCells(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(promoted) != 1 {
		t.Fatalf("promoted %v, want one shard", promoted)
	}
	reps := 0
	for _, ss := range db.ShardDiskStats() {
		reps += ss.Replicas
	}
	if reps != 1 {
		t.Fatalf("replica count = %d", reps)
	}
	// A post-promotion session still answers identically.
	for pass := 0; pass < 2; pass++ {
		ps := db.NewSession()
		for c := 0; c < n; c++ {
			r2, err := ps.QueryCell(c, eta)
			if err != nil {
				t.Fatal(err)
			}
			if publicFingerprint(r2) != base[c] {
				t.Fatalf("post-promotion cell %d diverged", c)
			}
		}
	}
	db.DecayHeat()
	db.DropReplicas()
	db.DisableSharding()
	if got := db.Sharded(); got != 0 {
		t.Fatalf("Sharded after disable = %d", got)
	}
}

func TestShardedWalkthroughAndServe(t *testing.T) {
	db := shardTestDB(t)
	opts := WalkOptions{Eta: 0.003, Frames: 120, Delta: true, Coherent: true}
	ref, err := db.Walkthrough(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnableSharding(ShardConfig{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	got, err := db.Walkthrough(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Same recorded path, same answers: the routed walk issues the same
	// queries and fetches the same payload bytes.
	if got.Queries != ref.Queries || got.Frames != ref.Frames {
		t.Fatalf("routed walk: %d queries/%d frames, unsharded %d/%d",
			got.Queries, got.Frames, ref.Queries, ref.Frames)
	}
	if got.TotalHeavyIO != ref.TotalHeavyIO {
		t.Fatalf("routed walk heavy I/O %d, unsharded %d", got.TotalHeavyIO, ref.TotalHeavyIO)
	}
	if got.Coherence.Incremental+got.Coherence.Full == 0 {
		t.Fatal("routed coherent walk recorded no cut activity")
	}

	sv, err := db.Serve(WalkOptions{Eta: 0.003, Frames: 60, Delta: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Errors != 0 || sv.Queries == 0 {
		t.Fatalf("sharded serve: %d errors, %d queries", sv.Errors, sv.Queries)
	}
	for i, cs := range sv.PerClient {
		if cs.Err != "" {
			t.Fatalf("client %d: %s", i, cs.Err)
		}
		if cs.Reads == 0 {
			t.Fatalf("client %d charged no routed reads", i)
		}
	}

	// Two shedding serves at once flip the shard stores' one shared
	// policy slot; under -race this fails if the slot is allocated on
	// first use.
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shed := WalkOptions{Eta: 0.003, Frames: 30, Delta: true, Shed: &ShedConfig{Target: time.Microsecond}}
			sv, err := db.Serve(shed, 2)
			if err == nil && sv.Errors != 0 {
				err = fmt.Errorf("%d client errors", sv.Errors)
			}
			if err != nil {
				t.Errorf("shedding serve %d: %v", g, err)
			}
		}()
	}
	wg.Wait()
}

func TestSaveShardedRejectsTrimmed(t *testing.T) {
	db := shardTestDB(t)
	if err := db.SaveSharded(t.TempDir()); err == nil {
		t.Fatal("SaveSharded accepted an unsharded database")
	}
	// Sharded topologies persist; each shard dir reopens on its own.
	if err := db.EnableSharding(ShardConfig{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "sharded")
	if err := db.SaveSharded(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "shardmap.json")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
		sdb, err := Open(sub)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if sdb.NumCells() != db.NumCells() {
			t.Fatalf("shard %d reopened with %d cells, want %d", i, sdb.NumCells(), db.NumCells())
		}
	}
}

// TestShardedSetFaultTolerantRace: toggling fault tolerance on a sharded
// database while another goroutine opens sessions and queries through
// them. Every DB method is safe for concurrent use, so the toggle's write
// of each store's setting must not race the copy a new session makes of
// that store's tree on its first query.
func TestShardedSetFaultTolerantRace(t *testing.T) {
	db := shardTestDB(t)
	if err := db.EnableSharding(ShardConfig{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	const rounds = 40
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			db.SetFaultTolerant(i%2 == 0)
		}
	}()
	for i := 0; i < rounds; i++ {
		if _, err := db.NewSession().QueryCell(i%db.NumCells(), 0.001); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	<-done
}
