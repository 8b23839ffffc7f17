package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/vstore"
)

// The serve experiment measures the concurrent-serving regime the paper's
// single-walker prototype never faces: N clients, each with its own
// session on one open tree, hammering a shared working set through the
// shared buffer pool. Aggregate wall-clock throughput should scale with
// clients once the working set is pool-resident, because pool hits charge
// no simulated seek/transfer and take no exclusive disk-wide lock.

// ServeConfig sizes one multi-client serving run.
type ServeConfig struct {
	// Clients is the number of concurrent sessions.
	Clients int
	// PerClient is the query count each client issues.
	PerClient int
	// CachePages sizes the shared buffer pool (0 = no pool).
	CachePages int
	// Cells bounds the shared working set (distinct viewing cells).
	Cells int
	// Eta is the DoV threshold.
	Eta float64
	// Think is each client's pause between queries — the frame-render
	// interval of a closed-loop walkthrough client (§5.4's players query
	// once per frame and render in between). It is what makes serving a
	// concurrency problem: one client leaves the engine idle during every
	// render, so adding clients raises aggregate throughput until the
	// engine saturates.
	Think time.Duration
}

// DefaultServeConfig returns the standard serving workload for p.
func DefaultServeConfig(p Params) ServeConfig {
	perClient := p.ScalQueries
	if perClient > 200 {
		perClient = 200
	}
	return ServeConfig{
		Clients:    8,
		PerClient:  perClient,
		CachePages: 1 << 16,
		Cells:      32,
		Eta:        0.001,
		Think:      10 * time.Millisecond,
	}
}

// ServeResult is the outcome of one serving run.
type ServeResult struct {
	Clients    int
	Queries    int
	Elapsed    time.Duration
	Throughput float64 // queries per wall-clock second
	// SimTime is the summed simulated disk time charged across clients
	// (pool hits charge none, so a cached working set drives this to ~0).
	SimTime              time.Duration
	PoolHits, PoolMisses int64
}

// workingSet picks cfg.Cells distinct viewing cells spread evenly over
// the grid.
func workingSet(tree *core.Tree, n int) []cells.CellID {
	total := tree.Grid.NumCells()
	if n <= 0 || n > total {
		n = total
	}
	out := make([]cells.CellID, n)
	for i := range out {
		out[i] = cells.CellID(i * total / n)
	}
	return out
}

// RunServeClients runs one multi-client serving workload against the
// default dataset of p and reports aggregate throughput. The pool is
// warmed with one pass over the working set before timing starts, so the
// measured regime is the cached one; the pool is removed again before
// returning (other experiments expect the paper's uncached accounting).
func RunServeClients(p Params, cfg ServeConfig) (ServeResult, error) {
	e := DefaultEnv(p)
	if cfg.Clients < 1 {
		cfg.Clients = 1
	}
	if cfg.PerClient < 1 {
		cfg.PerClient = 1
	}
	if cfg.Eta <= 0 {
		cfg.Eta = 0.001
	}
	ws := workingSet(e.Tree, cfg.Cells)

	e.Disk.SetCacheSize(cfg.CachePages)
	defer e.Disk.SetCacheSize(0)

	// Warm-up pass: fault in the working set once so the timed run
	// measures cached serving, not cold misses.
	warm := e.Tree.Session()
	for _, c := range ws {
		if _, err := warm.Query(c, cfg.Eta); err != nil {
			return ServeResult{}, err
		}
	}

	type clientOut struct {
		sim time.Duration
		err error
	}
	outs := make([]clientOut, cfg.Clients)
	start := time.Now()
	done := make(chan int, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		go func(i int) {
			defer func() { done <- i }()
			s := e.Tree.Session()
			for q := 0; q < cfg.PerClient; q++ {
				// Each client walks the shared ring from its own offset.
				c := ws[(i+q)%len(ws)]
				if _, err := s.Query(c, cfg.Eta); err != nil {
					outs[i].err = err
					return
				}
				if cfg.Think > 0 && q+1 < cfg.PerClient {
					time.Sleep(cfg.Think)
				}
			}
			outs[i].sim = s.IO.Stats().SimTime
		}(i)
	}
	for i := 0; i < cfg.Clients; i++ {
		<-done
	}
	elapsed := time.Since(start)

	res := ServeResult{
		Clients: cfg.Clients,
		Queries: cfg.Clients * cfg.PerClient,
		Elapsed: elapsed,
	}
	for _, o := range outs {
		if o.err != nil {
			return ServeResult{}, o.err
		}
		res.SimTime += o.sim
	}
	if elapsed > 0 {
		res.Throughput = float64(res.Queries) / elapsed.Seconds()
	}
	ps := e.Disk.PoolStats()
	res.PoolHits = ps.Hits()
	res.PoolMisses = ps.Misses()
	return res, nil
}

// RunServe is the "serve" experiment: the client-count sweep, reporting
// aggregate throughput and pool behavior at each width.
func RunServe(w io.Writer, p Params) error {
	cfg := DefaultServeConfig(p)
	fmt.Fprintf(w, "multi-client serving, %d queries/client over %d cached cells (pool %d pages, %v render interval)\n",
		cfg.PerClient, cfg.Cells, cfg.CachePages, cfg.Think)
	fmt.Fprintf(w, "%-8s %-9s %-11s %-14s %-10s %s\n",
		"clients", "queries", "elapsed", "throughput", "speedup", "pool hit rate")
	var base float64
	for _, n := range []int{1, 2, 4, 8} {
		c := cfg
		c.Clients = n
		r, err := RunServeClients(p, c)
		if err != nil {
			return err
		}
		if n == 1 {
			base = r.Throughput
		}
		speedup := 0.0
		if base > 0 {
			speedup = r.Throughput / base
		}
		hitRate := 0.0
		if r.PoolHits+r.PoolMisses > 0 {
			hitRate = float64(r.PoolHits) / float64(r.PoolHits+r.PoolMisses)
		}
		fmt.Fprintf(w, "%-8d %-9d %-11v %-10.0f q/s %-10.2fx %.1f%%\n",
			r.Clients, r.Queries, r.Elapsed.Round(time.Millisecond),
			r.Throughput, speedup, 100*hitRate)
	}
	return nil
}

// queryCost is the simulated per-query cost of one scheme on the standard
// uncached workload — the deterministic quantity the regression guard
// tracks (wall-clock throughput depends on the host; simulated cost does
// not).
func queryCost(e *Env, store vstore.Layout, ws []cells.CellID, queries int, eta float64) (simMicros, lightIO float64, err error) {
	e.Tree.SetVStore(store)
	defer e.Tree.SetVStore(e.IV)
	s := e.Tree.Session()
	before := s.IO.Stats()
	for q := 0; q < queries; q++ {
		if _, err := s.Query(ws[q%len(ws)], eta); err != nil {
			return 0, 0, err
		}
	}
	d := s.IO.Stats().Sub(before)
	n := float64(queries)
	return float64(d.SimTime.Microseconds()) / n, float64(d.LightReads) / n, nil
}
