package bench

import (
	"bytes"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docQuotes lists the headline figures EXPERIMENTS.md quotes from the
// committed references. pattern locates one figure in the experiment's
// section, with "#" marking the number (whitespace in the section is
// collapsed to single spaces first); every metric in metrics, times
// scale (1 when zero), must read as that number at the precision it is
// quoted with.
var docQuotes = []struct {
	exp, pattern, metrics string
	scale                 float64
}{
	{exp: "walkcoherence", pattern: `horizontal # → \S+ light pages/query`, metrics: "horizontal/full/light_io_per_query"},
	{exp: "walkcoherence", pattern: `horizontal \S+ → # light pages/query`, metrics: "horizontal/warm/light_io_per_query"},
	{exp: "walkcoherence", pattern: `light pages/query \(#×`, metrics: "horizontal/light_io_reduction"},
	{exp: "walkcoherence", pattern: `peak frame spike # →`, metrics: "horizontal/full/peak_frame_light_io"},
	{exp: "walkcoherence", pattern: `peak frame spike \S+ → #;`, metrics: "horizontal/warm/peak_frame_light_io"},
	{exp: "walkcoherence", pattern: `plus # VD-cache hits`, metrics: "horizontal/revisit_vd_cache_hits"},
	{exp: "walkcoherence", pattern: `vertical and indexed-vertical # →`,
		metrics: "vertical/full/light_io_per_query,indexed-vertical/full/light_io_per_query"},
	{exp: "walkcoherence", pattern: `vertical and indexed-vertical \S+ → # \(`,
		metrics: "vertical/warm/light_io_per_query,indexed-vertical/warm/light_io_per_query"},
	{exp: "walkcoherence", pattern: `vertical and indexed-vertical \S+ → \S+ \(#×`,
		metrics: "vertical/light_io_reduction,indexed-vertical/light_io_reduction"},
	{exp: "walkcoherence", pattern: `peak # → \S+\)`,
		metrics: "vertical/full/peak_frame_light_io,indexed-vertical/full/peak_frame_light_io"},
	{exp: "walkcoherence", pattern: `peak \S+ → #\)`,
		metrics: "vertical/warm/peak_frame_light_io,indexed-vertical/warm/peak_frame_light_io"},
	{exp: "walkcoherence", pattern: `absorbing # reads`, metrics: "vertical/warm/prefetch_io,indexed-vertical/warm/prefetch_io"},

	{exp: "vpagecodec", pattern: `# V-page units`, metrics: "horizontal/raw/vpage_units,horizontal/codec/vpage_units," +
		"vertical/raw/vpage_units,vertical/codec/vpage_units,indexed-vertical/raw/vpage_units,indexed-vertical/codec/vpage_units"},
	{exp: "vpagecodec", pattern: `\| horizontal \| raw \| # \|`, metrics: "horizontal/raw/bytes_per_vpage"},
	{exp: "vpagecodec", pattern: `\| horizontal \| raw \| \S+ \| # \|`, metrics: "horizontal/raw/sim_micros_per_query"},
	{exp: "vpagecodec", pattern: `\| horizontal \| codec \| # \|`, metrics: "horizontal/codec/bytes_per_vpage"},
	{exp: "vpagecodec", pattern: `\| horizontal \| codec \| \S+ \| # \|`, metrics: "horizontal/codec/sim_micros_per_query"},
	{exp: "vpagecodec", pattern: `\| horizontal \| codec \|[^|]*\|[^|]*\| #× bytes`, metrics: "horizontal/bytes_reduction"},
	{exp: "vpagecodec", pattern: `\| horizontal \| codec \|[^|]*\|[^|]*\| \S+ bytes, #× cost`, metrics: "horizontal/transfer_reduction"},
	{exp: "vpagecodec", pattern: `\| vertical \| raw \| # \|`, metrics: "vertical/raw/bytes_per_vpage"},
	{exp: "vpagecodec", pattern: `\| vertical \| raw \| \S+ \| # \|`, metrics: "vertical/raw/sim_micros_per_query"},
	{exp: "vpagecodec", pattern: `\| vertical \| codec \| # \|`, metrics: "vertical/codec/bytes_per_vpage"},
	{exp: "vpagecodec", pattern: `\| vertical \| codec \| \S+ \| # \|`, metrics: "vertical/codec/sim_micros_per_query"},
	{exp: "vpagecodec", pattern: `\| vertical \| codec \|[^|]*\|[^|]*\| #× bytes`, metrics: "vertical/bytes_reduction"},
	{exp: "vpagecodec", pattern: `\| vertical \| codec \|[^|]*\|[^|]*\| \S+ bytes, #× cost`, metrics: "vertical/transfer_reduction"},
	{exp: "vpagecodec", pattern: `\| indexed-vertical \| raw \| # \|`, metrics: "indexed-vertical/raw/bytes_per_vpage"},
	{exp: "vpagecodec", pattern: `\| indexed-vertical \| raw \| \S+ \| # \|`, metrics: "indexed-vertical/raw/sim_micros_per_query"},
	{exp: "vpagecodec", pattern: `\| indexed-vertical \| codec \| # \|`, metrics: "indexed-vertical/codec/bytes_per_vpage"},
	{exp: "vpagecodec", pattern: `\| indexed-vertical \| codec \| \S+ \| # \|`, metrics: "indexed-vertical/codec/sim_micros_per_query"},
	{exp: "vpagecodec", pattern: `\| indexed-vertical \| codec \|[^|]*\|[^|]*\| #× bytes`, metrics: "indexed-vertical/bytes_reduction"},
	{exp: "vpagecodec", pattern: `\| indexed-vertical \| codec \|[^|]*\|[^|]*\| \S+ bytes, #× cost`, metrics: "indexed-vertical/transfer_reduction"},

	{exp: "dynupdate", pattern: `\| mean touched-cell fraction \| # \|`, metrics: "touched_cell_frac"},
	{exp: "dynupdate", pattern: `\| mean LoD reuse rate \| # \|`, metrics: "lod_reuse_rate"},
	{exp: "dynupdate", pattern: `\| pages per batch \| # \|`, metrics: "pages_per_batch"},
	{exp: "dynupdate", pattern: `\| from-scratch rebuild pages \| # \|`, metrics: "rebuild_pages"},
	{exp: "dynupdate", pattern: `\| write savings \| #× \|`, metrics: "write_savings"},
	{exp: "dynupdate", pattern: `#% of internal-LoD chains`, metrics: "lod_reuse_rate", scale: 100},
	{exp: "dynupdate", pattern: `costs ~#× less`, metrics: "write_savings"},

	{exp: "shardscale", pattern: `\| 1 \| # \|`, metrics: "shards=1/max_shard_sim_micros", scale: 1e-6},
	{exp: "shardscale", pattern: `\| 2 \| # \|`, metrics: "shards=2/max_shard_sim_micros", scale: 1e-6},
	{exp: "shardscale", pattern: `\| 4 \| # \|`, metrics: "shards=4/max_shard_sim_micros", scale: 1e-6},
	{exp: "shardscale", pattern: `\| 8 \| # \|`, metrics: "shards=8/max_shard_sim_micros", scale: 1e-6},
	{exp: "shardscale", pattern: `\| 1 \| \S+ \| # q/s`, metrics: "shards=1/throughput_qps"},
	{exp: "shardscale", pattern: `\| 2 \| \S+ \| # q/s`, metrics: "shards=2/throughput_qps"},
	{exp: "shardscale", pattern: `\| 4 \| \S+ \| # q/s`, metrics: "shards=4/throughput_qps"},
	{exp: "shardscale", pattern: `\| 8 \| \S+ \| # q/s`, metrics: "shards=8/throughput_qps"},
	{exp: "shardscale", pattern: `\| 8 \| \S+ \| \S+ q/s \| #× \|`, metrics: "speedup_at_8"},
	{exp: "shardscale", pattern: `well enough for #×`, metrics: "speedup_at_8"},
	{exp: "shardscale", pattern: `gains #× from a single`, metrics: "replica_speedup"},
}

// docSection returns the EXPERIMENTS.md section of experiment exp, with
// whitespace collapsed.
func docSection(t *testing.T, doc, exp string) string {
	t.Helper()
	start := strings.Index(doc, "(`-exp "+exp+"`)")
	if start < 0 {
		t.Fatalf("EXPERIMENTS.md has no section for -exp %s", exp)
	}
	end := len(doc)
	if i := strings.Index(doc[start:], "\n## "); i >= 0 {
		end = start + i
	}
	return strings.Join(strings.Fields(doc[start:end]), " ")
}

// TestExperimentsDocQuotesReferences fails when EXPERIMENTS.md quotes a
// headline figure that disagrees with its committed exact reference.
func TestExperimentsDocQuotesReferences(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	refs := map[string]*Reference{}
	for _, q := range docQuotes {
		ref, ok := refs[q.exp]
		if !ok {
			if ref, err = LoadReference("../../BENCH_" + q.exp + ".json"); err != nil {
				t.Fatal(err)
			}
			refs[q.exp] = ref
		}
		re := regexp.MustCompile(strings.Replace(q.pattern, "#", `(\d{1,3}(?: \d{3})*(?:\.\d+)?)`, 1))
		m := re.FindStringSubmatch(docSection(t, string(raw), q.exp))
		if m == nil {
			t.Errorf("%s: no figure matches %q in its EXPERIMENTS.md section", q.exp, q.pattern)
			continue
		}
		quoted := strings.ReplaceAll(m[1], " ", "")
		decimals := 0
		if i := strings.IndexByte(quoted, '.'); i >= 0 {
			decimals = len(quoted) - i - 1
		}
		scale := q.scale
		if scale == 0 {
			scale = 1
		}
		for _, name := range strings.Split(q.metrics, ",") {
			metric := ref.metric(name)
			if metric.Kind != Exact {
				t.Errorf("%s: %s is not an exact metric of the reference", q.exp, name)
				continue
			}
			if got := strconv.FormatFloat(metric.Value*scale, 'f', decimals, 64); got != quoted {
				t.Errorf("%s: EXPERIMENTS.md quotes %s as %s (%q), the reference says %s",
					q.exp, name, m[1], q.pattern, got)
			}
		}
	}
}

// benchLineRE is the shape `go test -bench` emits and benchstat parses:
// name, iteration count, then a (value, unit) pair.
var benchLineRE = regexp.MustCompile(`^Benchmark\S+\t\d+\t[0-9.e+-]+ \S+$`)

// TestBenchFmtShapes checks the benchstat preamble and that every metric
// of a reference renders as one parseable benchmark line, with the
// number of rounds behind a measured median as its iteration count.
func TestBenchFmtShapes(t *testing.T) {
	var buf bytes.Buffer
	WriteBenchHeader(&buf)
	hdr := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(hdr) != 3 || !strings.HasPrefix(hdr[0], "goos: ") ||
		!strings.HasPrefix(hdr[1], "goarch: ") || !strings.HasPrefix(hdr[2], "pkg: ") {
		t.Fatalf("bad header:\n%s", buf.String())
	}

	r := newReference("baseline", "test-workload")
	r.exact("horizontal/sim_micros_per_query", "sim-us/query", 1234.5)
	r.exact("indexed-vertical/light_io_per_query", "pages/query", 2.1)
	r.exact("cached_hit_rate", "ratio", 0.93)
	r.measured("horizontal/wall_micros_per_query", "us/query", 0, 3, 1, 2)
	buf.Reset()
	WriteBenchFmt(&buf, r)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(r.Metrics) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(r.Metrics), buf.String())
	}
	for _, l := range lines {
		if !benchLineRE.MatchString(l) {
			t.Errorf("line does not parse as a benchmark result: %q", l)
		}
	}
	if want := "BenchmarkBaseline/horizontal/wall_micros_per_query\t3\t2 us/query"; lines[3] != want {
		t.Errorf("measured line = %q, want %q", lines[3], want)
	}
}
