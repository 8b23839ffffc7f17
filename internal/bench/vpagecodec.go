package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/vstore"
)

// The vpagecodec experiment measures what the compressed V-page layout
// (DESIGN.md §13) buys per storage scheme, in two legs each:
//
//	raw    — the seed fixed-width layout (8-byte VDs, slot-aligned units)
//	codec  — quantized DoVs + delta-varint IDs in a packed heap
//
// Two figures per scheme: the static V-page footprint (bytes per V-page
// unit) and the end-to-end light-I/O cost (seek+transfer) of the
// standard uncached query workload. Costs are simulated and
// deterministic for a seeded dataset, so every metric of the committed
// BENCH_vpagecodec.json is exact.

// The headline gates: the codec must shrink V-page bytes at least 3x
// and cut the workload's simulated light-I/O cost at least 1.5x.
const (
	codecBytesGate    = 3.0
	codecTransferGate = 1.5
)

// codecStores builds the codec-layout variants of e's three schemes,
// over the same VisData on the same disk, in report order. The
// build-time dyadic DoV snapping (core.Build) guarantees they answer
// byte-identically to e.H/e.V/e.IV.
func codecStores(e *Env) ([]core.VStore, error) {
	opts := vstore.Options{Codec: true}
	h, err := vstore.BuildHorizontalOpts(e.Disk, e.Vis, opts)
	if err != nil {
		return nil, fmt.Errorf("bench: codec horizontal: %w", err)
	}
	v, err := vstore.BuildVerticalOpts(e.Disk, e.Vis, opts)
	if err != nil {
		return nil, fmt.Errorf("bench: codec vertical: %w", err)
	}
	iv, err := vstore.BuildIndexedVerticalOpts(e.Disk, e.Vis, opts)
	if err != nil {
		return nil, fmt.Errorf("bench: codec indexed-vertical: %w", err)
	}
	return []core.VStore{h, v, iv}, nil
}

// recordCodecLeg profiles one layout into r under prefix: the static
// V-page footprint (units emitted by the build and the bytes they occupy
// on disk — encoded for codec, fixed-width for raw), and the average
// simulated light-I/O cost (seek + transfer) and light page reads per
// query of the standard uncached workload. It returns bytes per V-page
// and cost per query, the two figures the reductions compare.
func recordCodecLeg(r *Reference, prefix string, e *Env, store core.VStore, queries int) (bytesPer, sim float64, err error) {
	units, bytes := store.(interface{ VPageFootprint() (units, bytes int64) }).VPageFootprint()
	if units > 0 {
		bytesPer = float64(bytes) / float64(units)
	}
	sim, light, err := queryCost(e, store, workingSet(e.Tree, 32), queries, 0.001)
	if err != nil {
		return 0, 0, err
	}
	r.exact(prefix+"/vpage_units", "units", float64(units))
	r.exact(prefix+"/vpage_bytes", "B", float64(bytes))
	r.exact(prefix+"/bytes_per_vpage", "B/vpage", bytesPer)
	r.exact(prefix+"/sim_micros_per_query", "sim-us/query", sim)
	r.exact(prefix+"/light_io_per_query", "light-io/query", light)
	return bytesPer, sim, nil
}

// collectVPageCodec measures both legs for every scheme, plus the two
// headline ratios raw/codec: bytes per V-page (the unit counts are
// identical by construction) and per-query light-I/O cost.
func collectVPageCodec(p Params) (*Reference, error) {
	e := freshEnv(p)
	codec, err := codecStores(e)
	if err != nil {
		return nil, err
	}
	r := newReference("vpagecodec", workloadTag(p))
	for i, sc := range schemeStores(e) {
		rawBytes, rawSim, err := recordCodecLeg(r, sc.name+"/raw", e, sc.store, p.ScalQueries)
		if err != nil {
			return nil, fmt.Errorf("bench: vpagecodec %s raw: %w", sc.name, err)
		}
		codecBytes, codecSim, err := recordCodecLeg(r, sc.name+"/codec", e, codec[i], p.ScalQueries)
		if err != nil {
			return nil, fmt.Errorf("bench: vpagecodec %s codec: %w", sc.name, err)
		}
		var bytesRed, xferRed float64
		if codecBytes > 0 {
			bytesRed = rawBytes / codecBytes
		}
		if codecSim > 0 {
			xferRed = rawSim / codecSim
		}
		r.exact(sc.name+"/bytes_reduction", "x", bytesRed)
		r.exact(sc.name+"/transfer_reduction", "x", xferRed)
	}
	return r, nil
}

// checkVPageCodec holds the two headline gates per scheme: >= 3x V-page
// byte reduction and >= 1.5x light-I/O (seek+transfer) cost reduction
// against raw.
func checkVPageCodec(cur, _ *Reference) []Claim {
	var claims []Claim
	for _, name := range schemeNames {
		b, x := cur.value(name+"/bytes_reduction"), cur.value(name+"/transfer_reduction")
		claims = append(claims,
			claim(b >= codecBytesGate, "%-18s V-page bytes reduction %.1fx (claim: >= %.0fx)", name, b, codecBytesGate),
			claim(x >= codecTransferGate, "%-18s light-I/O cost reduction %.1fx (claim: >= %.1fx)", name, x, codecTransferGate))
	}
	return claims
}

// RunVPageCodec prints the footprint and cost table and verdicts the
// headline gates.
func RunVPageCodec(w io.Writer, p Params) error {
	r, err := collectVPageCodec(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "uncached workload, %d queries over 32 cells, eta=0.001\n\n", p.ScalQueries)
	fmt.Fprintf(w, "%-18s %-7s %-10s %-12s %-10s %-14s %-14s\n",
		"scheme", "leg", "units", "bytes", "B/V-page", "lightIO/query", "simµs/query")
	for _, name := range schemeNames {
		for _, leg := range []string{"raw", "codec"} {
			v := func(m string) float64 { return r.value(name + "/" + leg + "/" + m) }
			fmt.Fprintf(w, "%-18s %-7s %-10.0f %-12.0f %-10.1f %-14.2f %-14.0f\n",
				name, leg, v("vpage_units"), v("vpage_bytes"), v("bytes_per_vpage"),
				v("light_io_per_query"), v("sim_micros_per_query"))
		}
	}
	fmt.Fprintln(w)
	return verdicts(w, "vpagecodec", checkVPageCodec(r, nil))
}
