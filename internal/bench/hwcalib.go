package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/storage/filestore"
	"repro/internal/vstore"
)

// The hwcalib experiment puts real hardware in the loop (DESIGN.md §17):
// it measures the file backend's seek/transfer behavior on this host,
// fits the simulator's CostModel to it, builds the standard dataset on
// the file backend under the fitted model, and re-runs the headline
// workloads with simulated and measured wall-clock time side by side:
//
//	baseline — the three schemes' uncached query cost, sim vs measured
//	codec    — raw vs compressed V-pages, measured wall-clock speedup
//	warm     — cold vs pool-warmed serving, measured wall-clock speedup
//
// Absolute wall-clock numbers are host properties, so every timing in
// the committed BENCH_hwcalib.json is measured: the guard re-runs the
// experiment and re-checks the gates rather than diffing times across
// machines. Only the page size and the light reads per query are exact.

// The headline gates: on the real file backend, the codec layout and
// the warmed pool must each show a measured wall-clock improvement over
// their raw/cold leg. The gates are deliberately generous: on a
// page-cache-resident file the seek savings the simulator prices at 9ms
// apiece cost almost nothing, so the codec's measured win shrinks to
// its read-op reduction (~8% on the quick workload, deterministic for a
// seeded dataset) — the vpagecodec guard keeps enforcing the larger
// structural claims on the simulated side. The warm pool eliminates
// demand media reads outright, so its measured ratio is large on any
// host.
const (
	hwCodecGate = 1.02
	hwWarmGate  = 1.20
)

// hwCalibPages sizes the scratch file the calibration pass reads: large
// enough that per-call overhead amortizes, small enough to stay cheap.
const hwCalibPages = 2048

// hwMeasureReps is how many passes each measured leg keeps the fastest
// of.
const hwMeasureReps = 3

// hwCodecPairs is how many raw/codec pairs the codec gate takes the
// median ratio of. The codec's measured win is about a tenth of a few
// microseconds per query, so one comparison swings across the gate with
// host noise. Within a pair the two layouts' passes alternate, so every
// pass starts from the caches the other layout's pass left (back-to-back
// passes of one layout would let it re-warm on its own pages) and both
// see the same drift; the median of the ratios discards the outliers.
const hwCodecPairs = 21

// hwCost is one store's per-query cost on the file backend: the fitted
// model's prediction next to the hardware's answer.
type hwCost struct {
	lightIO, simMicros, measuredMicros float64
}

// calibrateFileBackend profiles a scratch file store: a sequential
// vectored pass fits the per-page transfer cost, a strided single-page
// pass fits the per-access (seek) cost, and the pair becomes the
// simulator's CostModel for the file-backed runs.
func calibrateFileBackend(dir string) (storage.CostModel, error) {
	fs, err := filestore.Create(filepath.Join(dir, "calib.dat"), 0, filestore.Options{})
	if err != nil {
		return storage.CostModel{}, err
	}
	defer fs.Close()
	ps := fs.PageSize()
	for i := 0; i < hwCalibPages; i++ {
		page := make([]byte, ps)
		for j := range page {
			page[j] = byte(i + j)
		}
		if err := fs.WritePage(storage.PageID(i), page); err != nil {
			return storage.CostModel{}, err
		}
	}
	if err := fs.Sync(); err != nil {
		return storage.CostModel{}, err
	}

	// Sequential: vectored runs of 64 pages, minimum over reps.
	const run = 64
	dst := make([]byte, run*ps)
	seq := time.Duration(1 << 62)
	for rep := 0; rep < hwMeasureReps; rep++ {
		t0 := time.Now()
		for off := 0; off+run <= hwCalibPages; off += run {
			if err := fs.ReadPages(storage.PageID(off), run, dst); err != nil {
				return storage.CostModel{}, err
			}
		}
		if d := time.Since(t0); d < seq {
			seq = d
		}
	}
	transfer := seq / time.Duration((hwCalibPages/run)*run)
	if transfer <= 0 {
		transfer = time.Nanosecond
	}

	// Strided: single-page reads on a 769-page stride (coprime with the
	// file size, so every page is hit once, never sequentially).
	one := make([]byte, ps)
	rnd := time.Duration(1 << 62)
	for rep := 0; rep < hwMeasureReps; rep++ {
		idx := 1
		t0 := time.Now()
		for i := 0; i < hwCalibPages; i++ {
			idx = (idx + 769) % hwCalibPages
			if err := fs.ReadPages(storage.PageID(idx), 1, one); err != nil {
				return storage.CostModel{}, err
			}
		}
		if d := time.Since(t0); d < rnd {
			rnd = d
		}
	}
	seek := rnd/hwCalibPages - transfer
	if seek < 0 {
		seek = 0
	}
	return storage.CostModel{Seek: seek, TransferPage: transfer}, nil
}

// hwPass runs the standard uncached workload once against one store on
// the file-backed env and reports per-query light reads, fitted-simulated
// time, and measured wall-clock.
func hwPass(e *Env, store core.VStore, ws []cells.CellID, queries int) (hwCost, error) {
	e.Tree.SetVStore(store)
	defer e.Tree.SetVStore(e.IV)
	s := e.Tree.Session()
	before := s.IO.Stats()
	for q := 0; q < queries; q++ {
		if _, err := s.Query(ws[q%len(ws)], 0.001); err != nil {
			return hwCost{}, err
		}
	}
	d := s.IO.Stats().Sub(before)
	n := float64(queries)
	return hwCost{
		lightIO:        float64(d.LightReads) / n,
		simMicros:      float64(d.SimTime.Nanoseconds()) / 1e3 / n,
		measuredMicros: float64(d.MeasuredTime.Nanoseconds()) / 1e3 / n,
	}, nil
}

// hwLegs runs hwMeasureReps rounds of one pass per store, the stores
// interleaved within each round, and reports each store's cost with the
// fastest measured pass — the usual minimum-of-N defense against
// scheduler noise. Simulated costs are deterministic, so the first
// pass's suffice.
func hwLegs(e *Env, ws []cells.CellID, queries int, stores ...core.VStore) ([]hwCost, error) {
	out := make([]hwCost, len(stores))
	for rep := 0; rep < hwMeasureReps; rep++ {
		for i, store := range stores {
			c, err := hwPass(e, store, ws, queries)
			if err != nil {
				return nil, err
			}
			switch {
			case rep == 0:
				out[i] = c
			case c.measuredMicros < out[i].measuredMicros:
				out[i].measuredMicros = c.measuredMicros
			}
		}
	}
	return out, nil
}

// hwRatio is a/b with b floored at a nanosecond-scale epsilon, so a
// fully pool-absorbed warm leg (measured ~0) stays JSON-encodable
// instead of dividing to +Inf.
func hwRatio(a, b float64) float64 {
	const eps = 1e-3 // µs
	if b < eps {
		b = eps
	}
	return a / b
}

// collectHWCalib calibrates the file backend, builds the dataset on it
// under the fitted cost model, and measures every leg: the fitted cost
// model; per scheme the uncached light reads, fitted-simulated and
// measured time per query; the codec leg as hwCodecPairs interleaved
// raw/codec pairs on the indexed-vertical scheme; and the warm-pool leg
// against the cold (raw) one.
func collectHWCalib(p Params) (*Reference, error) {
	dir, err := os.MkdirTemp("", "hdov-hwcalib-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	fitted, err := calibrateFileBackend(dir)
	if err != nil {
		return nil, fmt.Errorf("bench: hwcalib calibrate: %w", err)
	}

	fs, err := filestore.Create(filepath.Join(dir, "pages.dat"), 0, filestore.Options{})
	if err != nil {
		return nil, fmt.Errorf("bench: hwcalib store: %w", err)
	}
	d := storage.NewDiskOn(fs, fitted)
	defer d.Close()
	e := buildEnvOn(p, p.CityBlocks, p.GridCells, p.NominalBytes, d)

	r := newReference("hwcalib", workloadTag(p))
	r.exact("page_size", "B", float64(fs.PageSize()))
	r.measured("fitted_seek_micros", "us", float64(fitted.Seek.Nanoseconds())/1e3)
	r.measured("fitted_transfer_micros", "us/page", float64(fitted.TransferPage.Nanoseconds())/1e3)
	ws := workingSet(e.Tree, 32)

	// Baseline leg: every scheme, uncached, sim vs measured.
	costs, err := hwLegs(e, ws, p.ScalQueries, e.H, e.V, e.IV)
	if err != nil {
		return nil, fmt.Errorf("bench: hwcalib baseline: %w", err)
	}
	for i, m := range costs {
		name := schemeNames[i]
		r.exact(name+"/light_io_per_query", "light-io/query", m.lightIO)
		r.measured(name+"/sim_micros_per_query", "fitted-sim-us/query", m.simMicros)
		r.measured(name+"/measured_micros_per_query", "us/query", m.measuredMicros)
	}

	// Codec leg: the compressed V-page layout on the same disk against
	// the raw indexed-vertical one, in interleaved pairs.
	ivCodec, err := vstore.BuildIndexedVerticalOpts(e.Disk, e.Vis, vstore.Options{Codec: true})
	if err != nil {
		return nil, fmt.Errorf("bench: hwcalib codec build: %w", err)
	}
	var raw, enc, ratio []float64
	for i := 0; i < hwCodecPairs; i++ {
		pair, err := hwLegs(e, ws, p.ScalQueries, e.IV, ivCodec)
		if err != nil {
			return nil, fmt.Errorf("bench: hwcalib codec: %w", err)
		}
		raw = append(raw, pair[0].measuredMicros)
		enc = append(enc, pair[1].measuredMicros)
		ratio = append(ratio, hwRatio(pair[0].measuredMicros, pair[1].measuredMicros))
	}
	r.measured("codec_raw_micros_per_query", "us/query", 0, raw...)
	r.measured("codec_enc_micros_per_query", "us/query", 0, enc...)
	r.measured("codec_speedup", "x", 0, ratio...)

	// Warm leg: the same workload with the shared buffer pool holding
	// the working set — demand reads become pool hits, so the measured
	// wall-clock collapses against the cold (raw indexed-vertical) leg.
	e.Disk.SetCacheSize(walkCoherencePool)
	defer e.Disk.SetCacheSize(0)
	warmup := e.Tree.Session()
	for _, c := range ws {
		if _, err := warmup.Query(c, 0.001); err != nil {
			return nil, fmt.Errorf("bench: hwcalib warmup: %w", err)
		}
	}
	warmCost, err := hwLegs(e, ws, p.ScalQueries, e.IV)
	if err != nil {
		return nil, fmt.Errorf("bench: hwcalib warm: %w", err)
	}
	warm := warmCost[0]
	cold := r.value("codec_raw_micros_per_query")
	r.measured("cold_micros_per_query", "us/query", cold)
	r.measured("warm_micros_per_query", "us/query", warm.measuredMicros)
	r.measured("warm_speedup", "x", hwRatio(cold, warm.measuredMicros))
	return r, nil
}

// checkHWCalib holds the calibration sanity check and the two measured
// wall-clock gates.
func checkHWCalib(cur, _ *Reference) []Claim {
	transfer, codec, warm := cur.value("fitted_transfer_micros"), cur.value("codec_speedup"), cur.value("warm_speedup")
	return []Claim{
		claim(transfer > 0, "calibration: fitted transfer %.3fµs/page (claim: > 0)", transfer),
		claim(codec >= hwCodecGate,
			"codec leg (indexed-vertical): raw %.2fµs/query, codec %.2fµs/query — %.2fx median paired speedup over %d pairs (claim: >= %.2fx)",
			cur.value("codec_raw_micros_per_query"), cur.value("codec_enc_micros_per_query"),
			codec, len(cur.metric("codec_speedup").Samples), hwCodecGate),
		claim(warm >= hwWarmGate,
			"warm leg (pool %d pages): cold %.2fµs/query, warm %.2fµs/query — %.2fx measured speedup (claim: >= %.2fx)",
			walkCoherencePool, cur.value("cold_micros_per_query"), cur.value("warm_micros_per_query"), warm, hwWarmGate),
	}
}

// RunHWCalib prints the fitted cost model and the sim-vs-measured table,
// and verdicts the gates.
func RunHWCalib(w io.Writer, p Params) error {
	r, err := collectHWCalib(p)
	if err != nil {
		return err
	}
	def := storage.DefaultCostModel()
	fmt.Fprintf(w, "file backend calibration (%d x %.0f B scratch pages, min of %d reps)\n",
		hwCalibPages, r.value("page_size"), hwMeasureReps)
	fmt.Fprintf(w, "%-14s %-16s %s\n", "cost model", "seek", "transfer/page")
	fmt.Fprintf(w, "%-14s %-16v %v\n", "paper (2003)", def.Seek, def.TransferPage)
	fmt.Fprintf(w, "%-14s %-16s %s\n\n", "fitted (host)",
		fmt.Sprintf("%.3fµs", r.value("fitted_seek_micros")),
		fmt.Sprintf("%.3fµs", r.value("fitted_transfer_micros")))

	fmt.Fprintf(w, "uncached workload on the file backend, %d queries over 32 cells, eta=0.001\n", p.ScalQueries)
	fmt.Fprintf(w, "%-18s %-14s %-18s %s\n",
		"scheme", "lightIO/query", "fitted-simµs/query", "measuredµs/query")
	for _, name := range schemeNames {
		fmt.Fprintf(w, "%-18s %-14.2f %-18.2f %.2f\n", name, r.value(name+"/light_io_per_query"),
			r.value(name+"/sim_micros_per_query"), r.value(name+"/measured_micros_per_query"))
	}
	fmt.Fprintln(w)
	return verdicts(w, "hwcalib", checkHWCalib(r, nil))
}
