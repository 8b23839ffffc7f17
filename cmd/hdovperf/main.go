// Command hdovperf is the repository's wall-clock serving benchmark. It
// builds the paper's smallest dataset on the file backend, drives one or
// all of four closed-loop workloads through the public hdov API, checks
// sampled answers against a reference database, and prints every metric
// by name with its unit. The last line of each workload's output is one
// JSON object with the metrics of that run.
//
// Usage:
//
//	hdovperf [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-dir DIR]
//
// End-to-end metrics come from an untraced run (-trace 0). A traced run
// (-trace 1) records a span around every public call that enters a
// layer, reports the per-layer metrics, and writes the spans to
// DIR/spans-NAME.tsv. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	hdov "repro"
)

const (
	// warmup precedes every timed phase: it fills the page cache, the
	// buffer pools and the retained cuts, and lets lazy set-up finish.
	warmup = 2 * time.Second
	// setupRuns is how many times a run builds the database; setup_s is
	// the median and the last build serves the workload.
	setupRuns = 3
)

// dataset is the fixed dataset: the paper's smallest, 768 objects, 188
// nodes and 576 viewing cells. The seed flag never changes it.
func dataset() hdov.Config {
	cfg := hdov.DefaultConfig()
	cfg.Scene.Blocks = 8
	cfg.Scene.NominalBytes = 400 << 20
	cfg.Scene.Seed = 1
	cfg.GridCells = 24
	cfg.DoVRays = 1024
	cfg.Scheme = hdov.SchemeIndexedVertical
	return cfg
}

// options is one invocation's settings.
type options struct {
	workloads []workload
	seed      int64
	seconds   time.Duration
	trace     bool
	// dir holds the page files while a workload runs, and the span files.
	dir  string
	data hdov.Config
	// movers are the objects of data the update-mix writer moves.
	movers    []int64
	warmup    time.Duration
	setupRuns int
	// tamper flips a bit of the first sampled digest before the gate, so
	// a test can see the gate fail a run.
	tamper bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the selected workloads and returns the exit
// code: 0 when every sampled answer matched the reference, 1 when one
// did not or a workload could not run, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hdovperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all): "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of every request stream and update op")
	seconds := fs.Int("seconds", 10, "length of each timed phase, in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "hdovperf"), "directory for page files and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "hdovperf: want -seconds >= 1, -trace 0 or 1, and no arguments")
		return 2
	}
	o := options{
		workloads: workloads,
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		trace:     *trace == 1,
		dir:       *dir,
		data:      dataset(),
		movers:    movers,
		warmup:    warmup,
		setupRuns: setupRuns,
	}
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "hdovperf: unknown workload %q (have %s)\n", *name, workloadNames())
			return 2
		}
		o.workloads = []workload{w}
	}
	return runAll(o, stdout, stderr)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runAll runs each selected workload and prints its report.
func runAll(o options, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "hdovperf: %v\n", err)
		return 1
	}
	code := 0
	for i := range o.workloads {
		rep, err := runWorkload(o, &o.workloads[i])
		if err != nil {
			fmt.Fprintf(stderr, "hdovperf: %s: %v\n", o.workloads[i].name, err)
			return 1
		}
		rep.print(stdout)
		if !rep.correct() {
			for _, b := range rep.mismatches {
				fmt.Fprintf(stderr, "hdovperf: %s: wrong answer: %s\n", rep.workload, b)
			}
			code = 1
		}
	}
	return code
}

// report is one workload run's outcome.
type report struct {
	workload           string
	seed               int64
	traced             bool
	attempted, failed  int
	windows            []window
	checked            int
	mismatches         []string
	metrics            map[string]float64
	spanFile, firstErr string
}

// correct reports whether the gate checked answers and all matched.
func (r *report) correct() bool { return r.checked > 0 && len(r.mismatches) == 0 }

// runWorkload builds the dataset for w, runs the warm-up and the timed
// phase, checks the sampled answers and computes the metrics.
func runWorkload(o options, w *workload) (*report, error) {
	pages, err := os.MkdirTemp(o.dir, "pages-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(pages)
	cfg := o.data
	cfg.Codec = w.codec
	cfg.Storage = hdov.StorageConfig{Backend: hdov.BackendFile, Dir: pages}

	db, setup, err := build(cfg, w, o.setupRuns)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if w.writer {
		// Update re-casts visibility on GOMAXPROCS goroutines. With one P
		// per core the reader waits behind them in the Go scheduler, and
		// req_p99_us spread by 0.11 to 0.35 (IQR ÷ median over 10 seeds);
		// with two Ps per core the OS scheduler interleaves the threads,
		// and it spread by 0.07 to 0.11.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2 * runtime.GOMAXPROCS(0)))
	}

	side := cfg.GridCells
	cs := make([]*client, w.clients)
	for i := range cs {
		cs[i] = newClient(w, db, newGen(o.seed, uint64(i)+1, side))
	}
	var wr *writer
	if w.writer {
		wr = &writer{db: db, ops: newGen(o.seed, 0, side).moves(o.movers)}
	}

	runPhase(cs, nil, o.warmup, false)

	var tracers []*tracer
	if o.trace {
		base := time.Now()
		for i, c := range cs {
			c.tr = newTracer(base, i)
			tracers = append(tracers, c.tr)
		}
		if wr != nil {
			wr.tr = newTracer(base, len(cs))
			tracers = append(tracers, wr.tr)
		}
	}
	for _, c := range cs {
		c.reset()
	}
	before := snapshot(db, cs)
	elapsed := runPhase(cs, wr, o.seconds, true)
	after := snapshot(db, cs)

	rep := &report{workload: w.name, seed: o.seed, traced: o.trace}
	var recs []record
	var samples []sample
	for _, c := range cs {
		recs = append(recs, c.recs...)
		samples = append(samples, c.samples...)
		if c.firstErr != nil && rep.firstErr == "" {
			rep.firstErr = c.firstErr.Error()
		}
	}
	rep.windows = windows(recs, elapsed)
	completed := 0
	for _, r := range recs {
		if r.failed {
			rep.failed++
		} else {
			completed++
		}
	}
	rep.attempted = len(recs)
	// The records are summarized. Dropping them makes the live heap below
	// the database's and the sessions', not the harness's.
	for _, c := range cs {
		c.recs = nil
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	vdata := db.StorageSizes().IndexedVertical
	var applied []move
	if wr != nil {
		rep.attempted += len(wr.applied) + wr.failed
		rep.failed += wr.failed
		applied = wr.applied
	}
	if o.tamper && len(samples) > 0 {
		samples[0].digest ^= 1
	}

	if o.trace {
		rep.spanFile = filepath.Join(o.dir, "spans-"+w.name+".tsv")
		if err := writeSpans(rep.spanFile, tracers); err != nil {
			return nil, err
		}
	}
	// The serving database's page file and pools are released before the
	// reference is built.
	if err := db.Close(); err != nil {
		return nil, err
	}
	rep.checked, rep.mismatches, err = verify(o.data, eta, samples, applied)
	if err != nil {
		return nil, err
	}

	ops := float64(rep.attempted)
	rep.metrics = map[string]float64{
		"setup_s":         median(setup),
		"req_p50_us":      medianOver(rep.windows, func(w window) float64 { return w.lat.P50 }),
		"req_p99_us":      medianOver(rep.windows, func(w window) float64 { return w.lat.Tail }),
		"throughput_rps":  medianOver(rep.windows, func(w window) float64 { return w.rps }),
		"allocs_per_op":   float64(after.mallocs-before.mallocs) / ops,
		"alloc_kb_per_op": float64(after.allocBytes-before.allocBytes) / 1024 / ops,
		"heap_mb":         float64(ms.HeapAlloc) / 1e6,
		"vdata_mb":        float64(vdata) / 1e6,
	}
	if o.trace {
		layerMetrics(rep.metrics, mergeTraces(tracers), before, after, wr, completed, len(cs), elapsed)
	}
	return rep, nil
}

// build sets the database up n times, timing Build plus the workload's
// own set-up, and returns the last one with every set-up time in seconds.
func build(cfg hdov.Config, w *workload, n int) (*hdov.DB, []float64, error) {
	var db *hdov.DB
	var times []float64
	for i := 0; i < n; i++ {
		if db != nil {
			if err := db.Close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC() // the previous build's garbage is not this one's cost
		start := time.Now()
		var err error
		db, err = hdov.Build(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("build: %w", err)
		}
		if w.setup != nil {
			if err := w.setup(db); err != nil {
				_ = db.Close()
				return nil, nil, fmt.Errorf("setup: %w", err)
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	return db, times, nil
}

// counters are the process and database counters read at the phase
// boundaries.
type counters struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
	gcCycles            uint64
	pool                hdov.PoolStats
	shardReads          []int64
	coherence           hdov.CoherenceStats
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func snapshot(db *hdov.DB, cs []*client) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rs := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		rs[i].Name = n
	}
	metrics.Read(rs)
	k := counters{
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc,
		gcCPU: rs[0].Value.Float64(), totalCPU: rs[1].Value.Float64(), gcCycles: rs[2].Value.Uint64(),
		pool: db.PoolStats(),
	}
	for _, st := range db.ShardDiskStats() {
		k.shardReads = append(k.shardReads, st.Disk.Reads+st.Disk.PoolHits)
	}
	for _, c := range cs {
		st := c.s.CoherenceStats()
		k.coherence.Incremental += st.Incremental
		k.coherence.Full += st.Full
		k.coherence.NodesReused += st.NodesReused
		k.coherence.Expanded += st.Expanded
	}
	return k
}

// layerMetrics adds the per-layer metrics of a traced phase to m.
func layerMetrics(m map[string]float64, t *traceSet, before, after counters, wr *writer, reqs, clients int, elapsed time.Duration) {
	perReq := func(v float64) float64 { return ratio(v, float64(reqs)) }
	query, fetch, many, repin := &t.calls[spanQuery], &t.calls[spanFetch], &t.calls[spanMany], &t.calls[spanRepin]

	m["core.query_us_p50"] = summarize(query.wall, 0).P50
	m["core.query_cpu_us_mean"] = query.meanSelfUS()
	m["core.nodes_visited_per_req"] = perReq(float64(t.nodes))
	m["core.early_stops_per_req"] = perReq(float64(t.early))
	m["core.items_per_req"] = perReq(float64(t.items))
	reused := float64(after.coherence.NodesReused - before.coherence.NodesReused)
	expanded := float64(after.coherence.Expanded - before.coherence.Expanded)
	full := float64(after.coherence.Full - before.coherence.Full)
	incr := float64(after.coherence.Incremental - before.coherence.Incremental)
	m["core.cut_reuse_frac"] = ratio(reused, reused+expanded)
	m["core.cut_fallback_frac"] = ratio(full, incr+full)
	m["core.fetch_us_p50"] = summarize(fetch.wall, 0).P50
	m["core.fetch_cpu_us_mean"] = fetch.meanSelfUS()

	m["storage.light_reads_per_req"] = perReq(float64(t.io.LightReads))
	m["storage.heavy_reads_per_req"] = perReq(float64(t.io.HeavyReads))
	m["storage.seeks_per_req"] = perReq(float64(t.io.Seeks))
	hits := float64(after.pool.LightHits + after.pool.HeavyHits - before.pool.LightHits - before.pool.HeavyHits)
	misses := float64(after.pool.LightMisses + after.pool.HeavyMisses - before.pool.LightMisses - before.pool.HeavyMisses)
	m["storage.pool_hit_frac"] = ratio(hits, hits+misses)
	m["storage.pool_evictions_per_req"] = perReq(float64(after.pool.Evictions - before.pool.Evictions))
	m["storage.coalesced_per_req"] = perReq(float64(t.io.CoalescedReads))

	media := query.media + fetch.media + many.media
	m["filestore.query_media_us_mean"] = query.meanMediaUS()
	m["filestore.fetch_media_us_mean"] = fetch.meanMediaUS()
	m["filestore.media_busy_frac"] = ratio(float64(media), float64(clients)*float64(elapsed))

	m["shard.querymany_us_p50"] = summarize(many.wall, 0).P50
	m["shard.shards_per_req"] = perReq(float64(t.shards))
	m["shard.skew"] = skew(before.shardReads, after.shardReads)

	m["hdov.newsession_us_p50"] = summarize(repin.wall, 0).P50
	var upd []time.Duration
	var touched, total, lodReused, lodRebuilt, pages float64
	if wr != nil {
		upd = wr.lat
		for _, st := range wr.stats {
			touched += float64(st.TouchedCells)
			total += float64(st.TotalCells)
			lodReused += float64(st.LoDReused)
			lodRebuilt += float64(st.LoDRebuilt)
			pages += float64(st.PagesAppended)
		}
		pages = ratio(pages, float64(len(wr.stats)))
	}
	m["hdov.update_ms_p50"] = summarize(upd, 0).P50 / 1000
	m["core.update_touched_cells_frac"] = ratio(touched, total)
	m["core.update_lod_reuse_frac"] = ratio(lodReused, lodReused+lodRebuilt)
	m["storage.update_pages_appended"] = pages

	m["runtime.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	m["runtime.gc_cycles_per_kop"] = ratio(float64(after.gcCycles-before.gcCycles), float64(reqs)/1000)
	m["trace.req_p50_us"] = summarize(t.reqWall, 0).P50
	m["trace.coverage_frac"] = ratio(float64(t.childWall), float64(t.rootWall))
}

// skew is the busiest shard's read count over the mean, over the phase.
func skew(before, after []int64) float64 {
	if len(after) == 0 || len(before) != len(after) {
		return 0
	}
	var sum, top int64
	for i := range after {
		d := after[i] - before[i]
		sum += d
		top = max(top, d)
	}
	return ratio(float64(top), float64(sum)/float64(len(after)))
}

// metricDef names a reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd and perLayer are the metrics of an untraced and of a traced
// run, in print order. BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"req_p50_us", "us"},
	{"req_p99_us", "us"},
	{"throughput_rps", "1/s"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KiB"},
	{"heap_mb", "MB"},
	{"vdata_mb", "MB"},
}

var perLayer = []metricDef{
	{"core.query_us_p50", "us"},
	{"core.query_cpu_us_mean", "us"},
	{"core.nodes_visited_per_req", "count"},
	{"core.early_stops_per_req", "count"},
	{"core.items_per_req", "count"},
	{"core.cut_reuse_frac", "ratio"},
	{"core.cut_fallback_frac", "ratio"},
	{"core.fetch_us_p50", "us"},
	{"core.fetch_cpu_us_mean", "us"},
	{"storage.light_reads_per_req", "count"},
	{"storage.heavy_reads_per_req", "count"},
	{"storage.seeks_per_req", "count"},
	{"storage.pool_hit_frac", "ratio"},
	{"storage.pool_evictions_per_req", "count"},
	{"storage.coalesced_per_req", "count"},
	{"filestore.query_media_us_mean", "us"},
	{"filestore.fetch_media_us_mean", "us"},
	{"filestore.media_busy_frac", "ratio"},
	{"shard.querymany_us_p50", "us"},
	{"shard.shards_per_req", "count"},
	{"shard.skew", "ratio"},
	{"hdov.newsession_us_p50", "us"},
	{"hdov.update_ms_p50", "ms"},
	{"core.update_touched_cells_frac", "ratio"},
	{"core.update_lod_reuse_frac", "ratio"},
	{"storage.update_pages_appended", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"trace.req_p50_us", "us"},
	{"trace.coverage_frac", "ratio"},
}

// jsonMetric is one metric of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object that ends a workload's output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable report, then the JSON result line: the
// end-to-end metrics of an untraced run or the per-layer metrics of a
// traced one.
func (r *report) print(w io.Writer) {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s\n", r.workload, r.seed, mode)
	fmt.Fprintf(w, "attempted %d  failed %d  failed_frac %g\n", r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	for i, win := range r.windows {
		fmt.Fprintf(w, "window %d: n=%d failed=%d p50 %.1f us, p%g %.1f us, %.1f rps\n",
			i, win.lat.N, win.lat.Failed, win.lat.P50, win.lat.TailPct, win.lat.Tail, win.rps)
	}
	if r.firstErr != "" {
		fmt.Fprintf(w, "first failure: %s\n", r.firstErr)
	}
	fmt.Fprintf(w, "answers checked against the reference %d, mismatches %d\n", r.checked, len(r.mismatches))
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%-32s %14.4f %s\n", d.name, r.metrics[d.name], d.unit)
	}
	if r.traced {
		for _, d := range perLayer {
			fmt.Fprintf(w, "%-32s %14.4f %s\n", d.name, r.metrics[d.name], d.unit)
		}
		fmt.Fprintf(w, "spans written to %s\n", r.spanFile)
	}
	line := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric)}
	for _, d := range defs {
		v := r.metrics[d.name]
		if math.IsInf(v, 1) {
			v = math.MaxFloat64 // a tail made of failed requests
		}
		line.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		// Every value is finite, so Marshal cannot fail.
		panic(err)
	}
	fmt.Fprintln(w, string(b))
}
