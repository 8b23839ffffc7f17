// Command hdovbench regenerates the tables and figures of the paper's
// evaluation section (§5). Each experiment is addressed by its paper
// label; -list shows them all.
//
// Usage:
//
//	hdovbench -list
//	hdovbench -exp table2
//	hdovbench -exp fig7,fig8a,fig8b
//	hdovbench -exp all -quick
//	hdovbench -quick -clients 8
//	hdovbench -quick -exp baseline -write BENCH_baseline.json
//	hdovbench -quick -guard BENCH_baseline.json,BENCH_overload.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hdovbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag  = fs.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		list     = fs.Bool("list", false, "list experiments and exit")
		quick    = fs.Bool("quick", false, "use the small smoke-test parameter set")
		queries  = fs.Int("queries", 0, "override the visibility-query count")
		frames   = fs.Int("frames", 0, "override the walkthrough frame count")
		blocks   = fs.Int("blocks", 0, "override the city size (blocks per side)")
		gridFlag = fs.Int("grid", 0, "override the viewing-cell grid (cells per side)")
		seed     = fs.Int64("seed", 0, "override the random seed")
		images   = fs.String("images", "", "directory for Figure 11 PGM renderings")
		clients  = fs.Int("clients", 0, "serve mode: run N concurrent query sessions and report aggregate throughput")
		cache    = fs.Int("cache", 1<<16, "serve mode: shared buffer pool size in pages")
		write    = fs.String("write", "", "with one reference -exp: measure its metrics, write them to this file, then exit")
		guard    = fs.String("guard", "", "comma-separated reference files: re-measure each file's experiment; exit 1 unless every exact metric is unchanged and every claim holds")
		benchfmt = fs.Bool("benchfmt", false, "with -write or -guard: also print the metrics as Go benchmark lines (benchstat-compatible)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", e.ID, e.Title)
		}
		return 0
	}

	p := bench.Default()
	if *quick {
		p = bench.Quick()
	}
	if *queries > 0 {
		p.Queries = *queries
	}
	if *frames > 0 {
		p.Frames = *frames
	}
	if *blocks > 0 {
		p.CityBlocks = *blocks
	}
	if *gridFlag > 0 {
		p.GridCells = *gridFlag
	}
	if *seed != 0 {
		p.Seed = *seed
	}
	if *images != "" {
		p.ImageDir = *images
	}

	if *write != "" {
		return writeReference(*write, *expFlag, p, *benchfmt, stdout, stderr)
	}
	if *guard != "" {
		return guardReferences(strings.Split(*guard, ","), p, *benchfmt, stdout, stderr)
	}

	if *clients > 0 {
		cfg := bench.DefaultServeConfig(p)
		cfg.Clients = *clients
		cfg.CachePages = *cache
		r, err := bench.RunServeClients(p, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "hdovbench: serve: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout,
			"clients=%d queries=%d elapsed=%v throughput=%.0f q/s pool_hits=%d pool_misses=%d\n",
			r.Clients, r.Queries, r.Elapsed.Round(time.Millisecond),
			r.Throughput, r.PoolHits, r.PoolMisses)
		return 0
	}

	var ids []string
	if *expFlag == "all" {
		for _, e := range bench.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*expFlag, ",")
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := bench.Lookup(id)
		if !ok {
			known := make([]string, 0, len(bench.All()))
			for _, k := range bench.All() {
				known = append(known, k.ID)
			}
			fmt.Fprintf(stderr, "hdovbench: unknown experiment %q; registered: %s\n",
				id, strings.Join(known, ", "))
			return 2
		}
		fmt.Fprintf(stdout, "==== %s — %s ====\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(stdout, p); err != nil {
			fmt.Fprintf(stderr, "hdovbench: %s: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprintf(stdout, "(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// referenceIDs lists the experiments that keep a committed reference.
func referenceIDs() string {
	var ids []string
	for _, e := range bench.All() {
		if e.Ref != nil {
			ids = append(ids, e.ID)
		}
	}
	return strings.Join(ids, ", ")
}

// writeReference measures one reference experiment and writes its file.
func writeReference(path, id string, p bench.Params, benchfmt bool, stdout, stderr io.Writer) int {
	e, ok := bench.Lookup(strings.TrimSpace(id))
	if !ok || e.Ref == nil {
		fmt.Fprintf(stderr, "hdovbench: -write needs one -exp naming a reference experiment (%s), got %q\n",
			referenceIDs(), id)
		return 2
	}
	r, err := e.Ref.Collect(p)
	if err == nil {
		err = bench.WriteReference(path, r)
	}
	if err != nil {
		fmt.Fprintf(stderr, "hdovbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s reference written to %s (workload %s, %d metrics)\n",
		r.Experiment, path, r.Workload, len(r.Metrics))
	if benchfmt {
		bench.WriteBenchHeader(stdout)
		bench.WriteBenchFmt(stdout, r)
	}
	return 0
}

// guardReferences re-measures every reference file's experiment and
// reports each diff and failed claim; it exits 1 when any file fails.
func guardReferences(paths []string, p bench.Params, benchfmt bool, stdout, stderr io.Writer) int {
	refs := make([]*bench.Reference, len(paths))
	for i, path := range paths {
		var err error
		if refs[i], err = bench.LoadReference(strings.TrimSpace(path)); err != nil {
			fmt.Fprintf(stderr, "hdovbench: %v\n", err)
			return 2
		}
	}
	code := 0
	var fresh []*bench.Reference
	for i, ref := range refs {
		cur, bad, err := bench.Guard(ref, p)
		if err != nil {
			fmt.Fprintf(stderr, "hdovbench: %s: %v\n", paths[i], err)
			code = 1
			continue
		}
		fresh = append(fresh, cur)
		for _, line := range bad {
			fmt.Fprintf(stderr, "hdovbench: regression: %s: %s\n", ref.Experiment, line)
		}
		if len(bad) > 0 {
			code = 1
			continue
		}
		fmt.Fprintf(stdout, "%s guard passed (workload %s, %d metrics)\n", ref.Experiment, ref.Workload, len(ref.Metrics))
	}
	if benchfmt {
		bench.WriteBenchHeader(stdout)
		for _, r := range fresh {
			bench.WriteBenchFmt(stdout, r)
		}
	}
	return code
}
