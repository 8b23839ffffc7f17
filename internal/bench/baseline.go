package bench

import (
	"fmt"
	"io"

	"repro/internal/vstore"
)

// The baseline reference tracks *simulated* query cost, not wall-clock
// time: the cost model (seek + transfer per pool miss) is deterministic
// for a seeded dataset and workload, so every figure is exact and any
// shift can only come from a code change — more pages read, worse
// layout, broken caching — never from a slow CI host.

// workloadTag names the workload so references collected under
// different parameter sets never get compared.
func workloadTag(p Params) string {
	return fmt.Sprintf("city%d-grid%d-dirs%d-q%d-seed%d",
		p.CityBlocks, p.GridCells, p.Dirs, p.ScalQueries, p.Seed)
}

// schemeNames lists the three storage schemes in report order.
var schemeNames = []string{"horizontal", "vertical", "indexed-vertical"}

// namedStore is one storage scheme of an Env.
type namedStore struct {
	name  string
	store vstore.Layout
}

// schemeStores returns e's three schemes in report order.
func schemeStores(e *Env) []namedStore {
	return []namedStore{{"horizontal", e.H}, {"vertical", e.V}, {"indexed-vertical", e.IV}}
}

// collectBaseline measures the three schemes' uncached per-query cost
// and the serving workload's pool hit rate.
func collectBaseline(p Params) (*Reference, error) {
	e := freshEnv(p)
	ws := workingSet(e.Tree, 32)
	r := newReference("baseline", workloadTag(p))
	for _, sc := range schemeStores(e) {
		sim, light, err := queryCost(e, sc.store, ws, p.ScalQueries, 0.001)
		if err != nil {
			return nil, fmt.Errorf("bench: baseline %s: %w", sc.name, err)
		}
		r.exact(sc.name+"/sim_micros_per_query", "sim-us/query", sim)
		r.exact(sc.name+"/light_io_per_query", "light-io/query", light)
	}
	cfg := DefaultServeConfig(p)
	cfg.Clients = 2
	// The hit rate doesn't depend on client pacing; skip the render
	// intervals so the guard run stays fast.
	cfg.Think = 0
	s, err := RunServeClients(p, cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: baseline serve: %w", err)
	}
	var hitRate float64
	if s.PoolHits+s.PoolMisses > 0 {
		hitRate = float64(s.PoolHits) / float64(s.PoolHits+s.PoolMisses)
	}
	r.exact("cached_hit_rate", "pool-hit-rate", hitRate)
	return r, nil
}

// RunBaseline prints the regression baseline's figures.
func RunBaseline(w io.Writer, p Params) error {
	r, err := collectBaseline(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "uncached workload, %d queries over 32 cells, eta=0.001\n\n", p.ScalQueries)
	fmt.Fprintf(w, "%-18s %-14s %s\n", "scheme", "lightIO/query", "simµs/query")
	for _, name := range schemeNames {
		fmt.Fprintf(w, "%-18s %-14.2f %.0f\n", name,
			r.value(name+"/light_io_per_query"), r.value(name+"/sim_micros_per_query"))
	}
	fmt.Fprintf(w, "\nserving pool hit rate (2 clients, shared pool): %.1f%%\n", 100*r.value("cached_hit_rate"))
	return nil
}
