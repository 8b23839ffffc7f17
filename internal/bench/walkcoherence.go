package bench

import (
	"fmt"
	"io"

	"repro/internal/render"
	"repro/internal/vstore"
	"repro/internal/walkthrough"
)

// The walkcoherence experiment measures what the frame-coherence stack
// buys on the standard session-1 walkthrough, per storage scheme, in
// three legs:
//
//	full      — from-root traversal every cell entry (the seed behavior)
//	coherent  — incremental cut maintenance (Session.QueryCoherent)
//	warm      — coherent + shared buffer pool + async predictive
//	            prefetching (+ the horizontal scheme's V-data cache)
//
// All costs are simulated and deterministic for a seeded workload, so
// every metric of the committed BENCH_walkcoherence.json is exact.

// walkCoherencePool is the buffer-pool size of the warm leg: large
// enough to hold the walk's working set, so the leg isolates what
// coherence + prefetching contribute rather than eviction policy.
const walkCoherencePool = 1 << 14

// coherenceProfile is one playback's demand-I/O profile.
type coherenceProfile struct {
	// lightIOPerQuery is the average demand index reads per cell-entry
	// query; peak the worst single frame — the spike the prefetcher
	// exists to flatten.
	lightIOPerQuery float64
	peak            int64
	// prefetchIO is the background worker's page reads (off the frame
	// loop); prefetchHits/prefetchWasted how many warmed pages a demand
	// read used vs lost to eviction.
	prefetchIO, prefetchHits, prefetchWasted int64
	// vdCacheHits counts decoded-V-data cache hits (horizontal only).
	vdCacheHits int64

	series []int64 // per-frame demand light I/O, for the printed profile
}

// record adds the leg's figures to r under prefix.
func (l coherenceProfile) record(r *Reference, prefix string) {
	r.exact(prefix+"/light_io_per_query", "light-io/query", l.lightIOPerQuery)
	r.exact(prefix+"/peak_frame_light_io", "light-io/frame", float64(l.peak))
	r.exact(prefix+"/prefetch_io", "pages", float64(l.prefetchIO))
	r.exact(prefix+"/prefetch_hits", "pages", float64(l.prefetchHits))
	r.exact(prefix+"/prefetch_wasted", "pages", float64(l.prefetchWasted))
	r.exact(prefix+"/vd_cache_hits", "hits", float64(l.vdCacheHits))
}

// coherenceLeg plays one leg on a fresh session tree and profiles it.
func coherenceLeg(e *Env, s walkthrough.Session, coherent, warm bool) (coherenceProfile, error) {
	var leg coherenceProfile
	if warm {
		e.Disk.SetCacheSize(walkCoherencePool)
		defer e.Disk.SetCacheSize(0)
	}
	before := e.Disk.Stats()
	p := &walkthrough.VisualPlayer{
		Tree:          e.Tree.Session(),
		Eta:           0.001,
		Delta:         true,
		Coherent:      coherent,
		AsyncPrefetch: warm,
		Render:        render.DefaultConfig(),
	}
	res, err := p.Play(s)
	if err != nil {
		return leg, err
	}
	var total int64
	leg.series = make([]int64, len(res.Frames))
	for i, f := range res.Frames {
		leg.series[i] = f.LightIO
		total += f.LightIO
		leg.peak = max(leg.peak, f.LightIO)
		leg.prefetchIO += f.PrefetchIO
	}
	if res.Queries > 0 {
		leg.lightIOPerQuery = float64(total) / float64(res.Queries)
	}
	// Read the pool counters before the deferred SetCacheSize(0) drops
	// the pool (folded counters go with it).
	d := e.Disk.Stats().Sub(before)
	leg.prefetchHits = d.PrefetchHits
	leg.prefetchWasted = d.PrefetchWasted
	leg.vdCacheHits = d.VDCacheHits
	return leg, nil
}

// collectWalkCoherence measures all three legs for every scheme. It
// also returns each leg's per-frame profile, keyed "scheme/leg", for the
// printed report.
func collectWalkCoherence(p Params) (*Reference, map[string][]int64, error) {
	e := freshEnv(p)
	s := walkthrough.RecordNormal(e.Scene, p.Frames, p.Seed)
	r := newReference("walkcoherence", workloadTag(p))
	r.exact("frames", "frames", float64(p.Frames))
	series := map[string][]int64{}
	for _, sc := range schemeStores(e) {
		e.Tree.SetVStore(sc.store)
		full, err := coherenceLeg(e, s, false, false)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: walkcoherence %s full: %w", sc.name, err)
		}
		coherent, err := coherenceLeg(e, s, true, false)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: walkcoherence %s coherent: %w", sc.name, err)
		}
		// The horizontal scheme additionally caches decoded V-data on
		// the warm leg; sized to the node count so a cell's whole sweep
		// stays resident.
		h, isH := sc.store.(*vstore.Horizontal)
		if isH {
			h.EnableVDCache(4 * e.Tree.NumNodes())
			defer h.EnableVDCache(0)
		}
		warm, err := coherenceLeg(e, s, true, true)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: walkcoherence %s warm: %w", sc.name, err)
		}
		for _, leg := range []struct {
			label string
			l     coherenceProfile
		}{{"full", full}, {"coherent", coherent}, {"warm", warm}} {
			leg.l.record(r, sc.name+"/"+leg.label)
			series[sc.name+"/"+leg.label] = leg.l.series
		}
		var reduction float64
		if warm.lightIOPerQuery > 0 {
			reduction = full.lightIOPerQuery / warm.lightIOPerQuery
		}
		r.exact(sc.name+"/light_io_reduction", "x", reduction)
		if isH {
			// The forward walk of the main legs never re-enters a cell,
			// so the cache can only show its value on a revisit-heavy
			// session (session 3), where cells repeat.
			s3 := walkthrough.RecordBackForward(e.Scene, p.Frames, p.Seed+2)
			revisit, err := coherenceLeg(e, s3, true, true)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: walkcoherence %s revisit: %w", sc.name, err)
			}
			r.exact(sc.name+"/revisit_vd_cache_hits", "hits", float64(revisit.vdCacheHits))
		}
	}
	e.Tree.SetVStore(e.IV)
	return r, series, nil
}

// collectWalkCoherenceRef is collectWalkCoherence without the profiles.
func collectWalkCoherenceRef(p Params) (*Reference, error) {
	r, _, err := collectWalkCoherence(p)
	return r, err
}

// checkWalkCoherence holds the headline claim: the warm path must cut
// demand light I/O at least 2x against the full-traversal leg.
func checkWalkCoherence(cur, _ *Reference) []Claim {
	var claims []Claim
	for _, name := range schemeNames {
		x := cur.value(name + "/light_io_reduction")
		claims = append(claims, claim(x >= 2,
			"%-18s demand light-I/O reduction %.1fx (claim: >= 2x)", name, x))
	}
	return claims
}

// RunWalkCoherence prints the per-frame I/O spike profile and the leg
// summary, and verdicts the headline claim.
func RunWalkCoherence(w io.Writer, p Params) error {
	r, series, err := collectWalkCoherence(p)
	if err != nil {
		return err
	}
	step := max(p.Frames/20, 1)
	fmt.Fprintf(w, "session 1 (%d frames), eta=0.001, pool %d pages on the warm leg\n\n",
		p.Frames, walkCoherencePool)
	for _, name := range schemeNames {
		full, coherent, warm := series[name+"/full"], series[name+"/coherent"], series[name+"/warm"]
		fmt.Fprintf(w, "%s: per-frame demand light I/O (every %d frames)\n", name, step)
		fmt.Fprintf(w, "%-8s %-10s %-10s %-10s\n", "frame", "full", "coherent", "warm")
		for i := 0; i < len(full); i += step {
			fmt.Fprintf(w, "%-8d %-10d %-10d %-10d\n", i, full[i], coherent[i], warm[i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-18s %-8s %-14s %-10s %-12s %-10s %-8s %-8s\n",
		"scheme", "leg", "lightIO/query", "peak/frame", "prefetchIO", "pf hits", "wasted", "vdhits")
	for _, name := range schemeNames {
		for _, leg := range []string{"full", "coherent", "warm"} {
			v := func(m string) float64 { return r.value(name + "/" + leg + "/" + m) }
			fmt.Fprintf(w, "%-18s %-8s %-14.2f %-10.0f %-12.0f %-10.0f %-8.0f %-8.0f\n",
				name, leg, v("light_io_per_query"), v("peak_frame_light_io"),
				v("prefetch_io"), v("prefetch_hits"), v("prefetch_wasted"), v("vd_cache_hits"))
		}
		if hits := r.value(name + "/revisit_vd_cache_hits"); hits > 0 {
			fmt.Fprintf(w, "%-18s V-data cache hits on revisit-heavy session 3: %.0f\n", name, hits)
		}
	}
	fmt.Fprintln(w)
	return verdicts(w, "walkcoherence", checkWalkCoherence(r, nil))
}
