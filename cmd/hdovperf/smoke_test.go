package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	hdov "repro"
)

// tinyOptions runs the workloads on a tiny dataset with short phases.
func tinyOptions(t *testing.T, trace bool) options {
	data := hdov.DefaultConfig()
	data.Scene.Blocks = 2
	data.Scene.NominalBytes = 8 << 20
	data.GridCells = 6
	data.DoVRays = 256
	return options{
		workloads: workloads,
		seed:      1,
		seconds:   500 * time.Millisecond,
		trace:     trace,
		dir:       t.TempDir(),
		data:      data,
		movers:    []int64{1, 3, 5, 7, 9},
		warmup:    100 * time.Millisecond,
		setupRuns: 1,
	}
}

// benchmarkFile is the part of BENCHMARK.json the output must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// results splits the output into one result line per workload.
func results(t *testing.T, out string) []resultLine {
	t.Helper()
	var lines []resultLine
	for _, l := range strings.Split(out, "\n") {
		if !strings.HasPrefix(l, "{") {
			continue
		}
		var r resultLine
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("result line %q: %v", l, err)
		}
		lines = append(lines, r)
	}
	return lines
}

// TestSmoke runs every workload on a tiny dataset, untraced and traced,
// and checks that each metric BENCHMARK.json names is printed with its
// unit, that answers were checked, and that the spans cover the requests.
func TestSmoke(t *testing.T) {
	bench := readBenchmarkFile(t)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q here", i, w.Name, workloads[i].name)
		}
	}
	for _, trace := range []bool{false, true} {
		want := map[string]string{}
		for _, m := range bench.EndToEnd {
			want[m.Name] = m.Unit
		}
		defs := endToEnd
		if trace {
			want = map[string]string{}
			for _, m := range bench.PerLayer {
				want[m.Name] = m.Unit
			}
			defs = perLayer
		}
		if len(defs) != len(want) {
			t.Errorf("trace=%v: BENCHMARK.json has %d metrics, the benchmark reports %d", trace, len(want), len(defs))
		}

		var stdout, stderr bytes.Buffer
		o := tinyOptions(t, trace)
		if code := runAll(o, &stdout, &stderr); code != 0 {
			t.Fatalf("trace=%v: exit %d\n%s%s", trace, code, stdout.String(), stderr.String())
		}
		res := results(t, stdout.String())
		if len(res) != len(workloads) {
			t.Fatalf("trace=%v: %d result lines, want %d\n%s", trace, len(res), len(workloads), stdout.String())
		}
		for i, r := range res {
			name := workloads[i].name
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(r.Metrics), len(want))
			}
			for n, unit := range want {
				m, ok := r.Metrics[n]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, trace, n, m, unit)
				}
				if !strings.Contains(stdout.String(), n) {
					t.Errorf("%s trace=%v: %s not printed", name, trace, n)
				}
			}
			if trace {
				c := r.Metrics["trace.coverage_frac"].Value
				t.Logf("%s: trace.coverage_frac = %.4f", name, c)
				if c < 0.95 {
					t.Errorf("%s: trace.coverage_frac = %g, want >= 0.95", name, c)
				}
				if _, err := os.Stat(filepath.Join(o.dir, "spans-"+name+".tsv")); err != nil {
					t.Errorf("%s: span file: %v", name, err)
				}
			} else if r.Metrics["setup_s"].Value <= 0 || r.Metrics["req_p50_us"].Value <= 0 {
				t.Errorf("%s: setup_s %g, req_p50_us %g, want both > 0", name,
					r.Metrics["setup_s"].Value, r.Metrics["req_p50_us"].Value)
			}
		}
	}
}

// TestTamperedDigestFailsRun checks that the correctness gate reports a
// sampled answer that differs from the reference, and fails the run.
func TestTamperedDigestFailsRun(t *testing.T) {
	o := tinyOptions(t, false)
	w, _ := findWorkload("cold-random")
	o.workloads = []workload{w}
	o.tamper = true
	var stdout, stderr bytes.Buffer
	if code := runAll(o, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\n%s%s", code, stdout.String(), stderr.String())
	}
	res := results(t, stdout.String())
	if len(res) != 1 || res[0].Correct {
		t.Fatalf("result lines %+v, want one with correct=false", res)
	}
	if !strings.Contains(stderr.String(), "wrong answer") || !strings.Contains(stdout.String(), "mismatches 1") {
		t.Fatalf("mismatch not reported:\n%s%s", stdout.String(), stderr.String())
	}
}
