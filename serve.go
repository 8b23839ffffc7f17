package hdov

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/storage"
)

// Concurrent serving: one open DB can answer many clients at once. Each
// client holds a Session — same tree, same disk, same buffer pool, but
// private I/O accounting and a private storage-scheme cursor — so queries
// from different sessions run concurrently and each session's Result
// carries exactly its own cost. See DESIGN.md §10 for the model.

// Session is an independent query handle on an open DB. Sessions are
// cheap to create and need no teardown. A single Session serves one
// logical client: do not share one between goroutines (create more
// instead — different Sessions are safe to use concurrently).
//
// A Session pins the database epoch current when it was created: queries
// keep answering from that consistent snapshot even while Update installs
// later epochs (the update path only ever appends to the disk, so the
// pinned tree's pages stay valid forever). Create a fresh Session to see
// the newest epoch.
//
// On a sharded database (EnableSharding) a session additionally pins the
// shard topology current at creation and routes every query to its
// owning shard store; answers are byte-identical either way.
type Session struct {
	tree *core.Tree
	// sh, when non-nil, routes queries across shard stores; tree is nil.
	sh *shard.Session
}

// grid returns the session's viewing-cell grid (identical on every
// shard, so routing does not matter here).
func (s *Session) grid() *cells.Grid {
	if s.sh != nil {
		return s.sh.Grid()
	}
	return s.tree.Grid
}

// checkCell is the one cell range check: a cell outside [0, n) —
// CellOf's -1 for an off-grid point included — wraps ErrOutsideCells.
func checkCell(cell, n int) error {
	if cell < 0 || cell >= n {
		return fmt.Errorf("%w: cell %d not in [0,%d)", ErrOutsideCells, cell, n)
	}
	return nil
}

// route returns the core session that answers cell after a range check:
// the session's own tree, or on a sharded session the owning shard's
// (counting a heat hit toward hot-range promotion). Every query and fetch
// form goes through it.
func (s *Session) route(cell int) (*core.Tree, error) {
	if err := checkCell(cell, s.grid().NumCells()); err != nil {
		return nil, err
	}
	if s.sh != nil {
		return s.sh.RouteTree(cells.CellID(cell)), nil
	}
	return s.tree, nil
}

// QueryCell answers the visibility query of viewing cell cell with DoV
// threshold eta (Figure 3 of the paper), charged to this session alone:
// every visible object either appears directly at its equation-6 LoD or
// is covered by an ancestor's internal LoD. Light I/O (node records,
// V-pages, cell flip) is charged; call Fetch to charge payload
// retrieval. A caller with a viewpoint p asks for db.CellOf(p); a cell
// outside the grid fails with an error wrapping ErrOutsideCells.
func (s *Session) QueryCell(cell int, eta float64) (*Result, error) {
	return s.QueryCellContext(context.Background(), cell, eta)
}

// QueryCellCoherent answers like QueryCell but through the session's
// retained traversal cut: when consecutive queries come from neighboring
// cells — a walkthrough's workload — the previous query's frontier is
// re-evaluated against the new cell's visibility data instead of
// descending from the root. The answer is byte-identical to QueryCell's
// (degraded mode included; any fault on the warm path falls back to a
// full traversal); only the I/O accounting differs. On a sharded session
// each shard keeps its own retained cut, so a walk that crosses a
// boundary stays warm on both sides.
func (s *Session) QueryCellCoherent(cell int, eta float64) (*Result, error) {
	return s.QueryCellCoherentContext(context.Background(), cell, eta)
}

// CoherenceStats reports how a session's QueryCellCoherent calls
// resolved.
type CoherenceStats struct {
	// Incremental counts queries served through the cut machinery — the
	// first query and eta changes are included (their seed cut is the
	// bare root, so the whole descent shows up in Expanded); Full counts
	// fallbacks to a from-root traversal after a fault on the warm path.
	Incremental, Full int64
	// NodesReused counts node records served from the cut without a read;
	// Expanded and Collapsed count cut-frontier nodes added and removed.
	NodesReused, Expanded, Collapsed int64
}

// CoherenceStats returns the session's cumulative warm-path accounting
// (summed across shards on a routed session).
func (s *Session) CoherenceStats() CoherenceStats {
	if s.sh != nil {
		return coherenceFrom(s.sh.CoherenceStats())
	}
	return coherenceFrom(s.tree.CoherenceStats())
}

// coherenceFrom mirrors a core warm-path snapshot into the public type.
func coherenceFrom(cs core.CoherenceStats) CoherenceStats {
	return CoherenceStats{
		Incremental: cs.Incremental, Full: cs.Full,
		NodesReused: cs.NodesReused, Expanded: cs.Expanded, Collapsed: cs.Collapsed,
	}
}

// Fetch charges the heavy-weight I/O of retrieving every item's payload
// to this session and updates the result's I/O and time accounting. In
// fault-tolerant mode an unreadable payload degrades the item to a
// coarser readable level (recorded in Degradations) instead of failing
// the call. On a sharded session the fetch is routed to the shard that
// answered the query.
func (s *Session) Fetch(r *Result) error {
	return s.FetchContext(context.Background(), r)
}

// Stats returns the session's own cumulative I/O accounting: only reads
// this session issued, regardless of how many other sessions share the
// disk. On a sharded session the counters sum over every shard the
// session touched (ShardStatsOf gives the per-shard split).
func (s *Session) Stats() DiskStats {
	if s.sh != nil {
		return diskStatsFrom(s.sh.Stats())
	}
	return diskStatsFrom(s.tree.IO.Stats())
}

// ResetStats zeroes the session's counters (global disk counters are
// untouched).
func (s *Session) ResetStats() {
	if s.sh != nil {
		s.sh.ResetStats()
		return
	}
	s.tree.IO.ResetStats()
}

// NewSession returns a fresh query session on the database. The session
// sees the scene epoch and shard topology in effect now; Update or
// EnableSharding calls after creation affect only future sessions.
func (db *DB) NewSession() *Session {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.router != nil {
		return &Session{sh: db.router.Session()}
	}
	return &Session{tree: db.tree.Session()}
}

// SetCacheSize installs a shared buffer pool of n disk pages in front of
// the simulated disk (n <= 0 removes it; the default is none, matching
// the paper's uncached prototype — §5.4). Cached reads charge no seek or
// transfer: the cost model bills only pool misses, so a hot working set
// serves many sessions at memory speed. On a sharded database the
// budget is split evenly across the shard stores' private pools.
func (db *DB) SetCacheSize(n int) {
	if r := db.currentRouter(); r != nil {
		per := n / r.Shards()
		if n > 0 && per < 1 {
			per = 1
		}
		r.SetCacheSize(per)
		return
	}
	db.disk.SetCacheSize(n)
}

// PoolStats reports the shared buffer pool's accounting (zeros when no
// pool is installed).
type PoolStats struct {
	// Hits and Misses split by I/O class: light (index: node records,
	// V-pages) and heavy (model payload).
	LightHits, LightMisses int64
	HeavyHits, HeavyMisses int64
	Evictions              int64
	// Pages is the current resident page count; Capacity the configured
	// limit.
	Pages, Capacity int
}

// ShardStatsOf returns this session's own I/O against shard i (zero on
// an unsharded session or a shard the session never touched).
func (s *Session) ShardStatsOf(i int) DiskStats {
	if s.sh == nil {
		return DiskStats{}
	}
	return diskStatsFrom(s.sh.ShardStatsOf(i))
}

// poolStatsFrom mirrors a storage pool snapshot into the public type.
func poolStatsFrom(s storage.PoolStats) PoolStats {
	return PoolStats{
		LightHits: s.LightHits, LightMisses: s.LightMisses,
		HeavyHits: s.HeavyHits, HeavyMisses: s.HeavyMisses,
		Evictions: s.Evictions,
		Pages:     s.Pages, Capacity: s.Capacity,
	}
}

// PoolStats returns the current buffer-pool counters. On a sharded
// database the counters sum over every shard store's private pool
// (ShardDiskStats gives the per-shard breakdown) — no store's traffic
// is silently dropped.
func (db *DB) PoolStats() PoolStats {
	r := db.currentRouter()
	if r == nil {
		return poolStatsFrom(db.disk.PoolStats())
	}
	var sum storage.PoolStats
	for _, ps := range r.ShardPoolStats() {
		sum = sum.Add(ps)
	}
	return poolStatsFrom(sum)
}

// ServeStats summarizes a concurrent multi-client walkthrough run.
type ServeStats struct {
	// Clients is how many walkers played; Errors how many aborted.
	Clients, Errors int
	// Queries is the total database queries served; Elapsed the wall-clock
	// span; Throughput the ratio in queries per second.
	Queries    int
	Elapsed    time.Duration
	Throughput float64
	// Degradations totals absorbed media faults across clients.
	Degradations int
	// Rejected totals admission rejections and BudgetMisses frames that
	// blew their FrameBudget, summed across clients; both are deliberate
	// shedding outcomes, not errors. Shed counts the load shedder's level
	// transitions over the run (0 when no shedder was configured).
	Rejected     int
	BudgetMisses int
	Shed         int64
	// PerClient is each client's playback summary (nil entries for aborted
	// clients) and own retry count.
	PerClient []ClientStats
}

// ClientStats is one client's share of a serving run.
type ClientStats struct {
	Queries      int
	Frames       int
	AvgFrameMS   float64
	Degradations int
	// Rejected and BudgetMisses are this client's shed frames (admission
	// rejections and frame-budget expiries respectively).
	Rejected     int
	BudgetMisses int
	// Reads and Retries are this client's own disk traffic.
	Reads, Retries int64
	SimTime        time.Duration
	Err            string
}

// Serve plays n concurrent walkthrough clients against the database, each
// with its own session and recorded motion path (seeded from opts.Seed +
// client index), and returns the aggregate and per-client accounting.
// Walkthrough is its one-client case; opts.UseREVIEW is not supported
// here and is rejected with an error naming the option.
func (db *DB) Serve(opts WalkOptions, n int) (*ServeStats, error) {
	return db.ServeContext(context.Background(), opts, n)
}

// ServeContext is Serve bounded by ctx and is the overload-resilient
// serve path: opts.Admission gates cell-entry queries through a bounded
// admission controller, opts.Shed installs fidelity-aware load shedding,
// and opts.FrameBudget bounds each client frame. Cancellation aborts all
// clients; shed and rejected work is counted in the returned stats, not
// reported as errors.
func (db *DB) ServeContext(ctx context.Context, opts WalkOptions, n int) (*ServeStats, error) {
	if n < 1 {
		n = 1
	}
	if opts.UseREVIEW {
		return nil, fmt.Errorf("hdov: Serve supports only the VISUAL system (UseREVIEW)")
	}
	run := db.play(ctx, opts, n)
	out := &ServeStats{
		Clients:      n,
		Errors:       run.Errs,
		Queries:      run.Queries,
		Elapsed:      run.Elapsed,
		Rejected:     run.Rejected,
		BudgetMisses: run.BudgetMisses,
		Shed:         run.Shed,
		PerClient:    make([]ClientStats, n),
	}
	out.Throughput = run.Throughput()
	for i, p := range run.Players {
		cs := ClientStats{Reads: p.IO.Reads, Retries: p.IO.Retries, SimTime: p.IO.SimTime}
		if p.Err != nil {
			cs.Err = p.Err.Error()
		} else {
			cs.Queries = p.Result.Queries
			cs.Frames = len(p.Result.Frames)
			cs.AvgFrameMS = p.Result.AvgFrameTime()
			cs.Degradations = p.Result.Degradations
			cs.Rejected = p.Result.Rejected
			cs.BudgetMisses = p.Result.BudgetMisses
			out.Degradations += p.Result.Degradations
		}
		out.PerClient[i] = cs
	}
	return out, nil
}

// diskStatsFrom mirrors a storage.Stats snapshot into the public type.
func diskStatsFrom(s storage.Stats) DiskStats {
	return DiskStats{
		Reads: s.Reads, Seeks: s.Seeks,
		LightReads: s.LightReads, HeavyReads: s.HeavyReads,
		Retries:        s.Retries,
		SimTime:        s.SimTime,
		MeasuredTime:   s.MeasuredTime,
		PoolHits:       s.PoolLightHits + s.PoolHeavyHits,
		PoolMisses:     s.PoolLightMisses + s.PoolHeavyMisses,
		CoalescedReads: s.CoalescedReads,
	}
}
