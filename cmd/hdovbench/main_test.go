package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bench"
)

// update regenerates golden files: go test ./cmd/hdovbench -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errB bytes.Buffer
	code = run(args, &out, &errB)
	return code, out.String(), errB.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestListGolden(t *testing.T) {
	code, out, errOut := runCLI(t, "-list")
	if code != 0 || errOut != "" {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	checkGolden(t, "list.golden", out)
}

func TestUnknownExperimentGolden(t *testing.T) {
	code, out, errOut := runCLI(t, "-quick", "-exp", "fig99")
	if code != 2 {
		t.Fatalf("code = %d, want 2 (stdout=%q)", code, out)
	}
	checkGolden(t, "unknown-exp.golden", errOut)
}

// benchArgs shrinks the dataset so CLI integration tests build one tiny
// shared env (the bench package caches it per parameter set).
var benchArgs = []string{"-quick", "-blocks", "2", "-grid", "4"}

func TestServeMode(t *testing.T) {
	code, out, errOut := runCLI(t, append(benchArgs, "-clients", "2")...)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	ok := regexp.MustCompile(`^clients=2 queries=\d+ elapsed=\S+ throughput=\d+ q/s pool_hits=\d+ pool_misses=\d+\n$`)
	if !ok.MatchString(out) {
		t.Fatalf("serve output malformed: %q", out)
	}
}

// TestBaselineGuardRoundTrip runs the baseline reference through the
// CLI on the tiny shared env: written, it guards clean; with every exact
// figure scaled down by a quarter, the fresh run reads as a regression
// and the guard exits 1; from another workload, the guard refuses it.
func TestBaselineGuardRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")

	code, out, errOut := runCLI(t, append(benchArgs, "-exp", "baseline", "-write", path)...)
	if code != 0 || !strings.Contains(out, "baseline reference written") {
		t.Fatalf("write: code=%d stdout=%q stderr=%q", code, out, errOut)
	}

	code, out, errOut = runCLI(t, append(benchArgs, "-guard", path)...)
	if code != 0 || !strings.Contains(out, "baseline guard passed") {
		t.Fatalf("self-guard: code=%d stdout=%q stderr=%q", code, out, errOut)
	}

	// Tamper: pretend the committed baseline was a quarter cheaper — the
	// fresh run must now fail the guard.
	ref, err := bench.LoadReference(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := cloneRef(t, ref)
	for i, m := range tampered.Metrics {
		if m.Kind == bench.Exact {
			tampered.Metrics[i].Value *= 0.75
		}
	}
	if err := bench.WriteReference(path, tampered); err != nil {
		t.Fatal(err)
	}
	code, _, errOut = runCLI(t, append(benchArgs, "-guard", path)...)
	if code != 1 || !strings.Contains(errOut, "regression") {
		t.Fatalf("tampered guard: code=%d stderr=%q", code, errOut)
	}

	// A reference from a different workload must be refused, not compared.
	other := cloneRef(t, ref)
	other.Workload = "other-workload"
	if err := bench.WriteReference(path, other); err != nil {
		t.Fatal(err)
	}
	code, _, errOut = runCLI(t, append(benchArgs, "-guard", path)...)
	if code != 1 || !strings.Contains(errOut, "workload mismatch") {
		t.Fatalf("mismatched guard: code=%d stderr=%q", code, errOut)
	}
}

// benchLineRE is the shape `go test -bench` emits and benchstat parses:
// name, iteration count, then a (value, unit) pair.
var benchLineRE = regexp.MustCompile(`^Benchmark\S+\t\d+\t[0-9.e+-]+ \S+$`)

// cloneRef deep-copies a reference through its JSON form.
func cloneRef(t *testing.T, r *bench.Reference) *bench.Reference {
	t.Helper()
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var c bench.Reference
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return &c
}

// TestGuardRoundTrip writes every reference experiment's file through
// the CLI and checks that it guards clean, and that the guard fails or
// refuses every kind of tampering: a one-ulp bump of any exact metric, a
// removed or an added metric, and a reference from another workload,
// experiment or architecture. Measured metrics are never diffed.
func TestGuardRoundTrip(t *testing.T) {
	for _, e := range bench.All() {
		if e.Ref == nil {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), e.ID+".json")
			code, out, errOut := runCLI(t, "-quick", "-exp", e.ID, "-write", path, "-benchfmt")
			if code != 0 || !strings.Contains(out, e.ID+" reference written") {
				t.Fatalf("write: code=%d stdout=%q stderr=%q", code, out, errOut)
			}
			ref, err := bench.LoadReference(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimRight(out, "\n"), "\n")[1:]
			if len(lines) != 3+len(ref.Metrics) || !strings.HasPrefix(lines[0], "goos: ") ||
				!strings.HasPrefix(lines[1], "goarch: ") || !strings.HasPrefix(lines[2], "pkg: ") {
				t.Fatalf("benchfmt: want a 3-line header and %d metric lines:\n%s", len(ref.Metrics), out)
			}
			for _, l := range lines[3:] {
				if !benchLineRE.MatchString(l) {
					t.Errorf("line does not parse as a benchmark result: %q", l)
				}
			}

			code, out, errOut = runCLI(t, "-quick", "-guard", path)
			if code != 0 || !strings.Contains(out, e.ID+" guard passed") {
				t.Fatalf("self-guard: code=%d stdout=%q stderr=%q", code, out, errOut)
			}

			firstExact := -1
			for i, m := range ref.Metrics {
				bumped := cloneRef(t, ref)
				bumped.Metrics[i].Value = math.Nextafter(m.Value, math.Inf(1))
				bad := bench.Diff(bumped, ref)
				switch {
				case m.Kind == bench.Exact && len(bad) == 0:
					t.Errorf("one-ulp bump of exact %s passed the guard", m.Name)
				case m.Kind == bench.Measured && len(bad) != 0:
					t.Errorf("bump of measured %s was diffed: %v", m.Name, bad)
				}
				if m.Kind == bench.Exact && firstExact < 0 {
					firstExact = i
				}
			}
			if firstExact < 0 {
				t.Fatal("reference has no exact metric")
			}
			bumped := cloneRef(t, ref)
			bumped.Metrics[firstExact].Value = math.Nextafter(bumped.Metrics[firstExact].Value, math.Inf(1))
			if err := bench.WriteReference(path, bumped); err != nil {
				t.Fatal(err)
			}
			code, _, errOut = runCLI(t, "-quick", "-guard", path)
			if code != 1 || !strings.Contains(errOut, "regression: "+e.ID+": "+ref.Metrics[firstExact].Name) {
				t.Fatalf("bumped guard: code=%d stderr=%q", code, errOut)
			}

			removed := cloneRef(t, ref)
			removed.Metrics = removed.Metrics[1:]
			if bad := bench.Diff(removed, ref); len(bad) != 1 || !strings.Contains(bad[0], "not in the reference") {
				t.Errorf("metric added to the run: %v", bad)
			}
			if bad := bench.Diff(ref, removed); len(bad) != 1 || !strings.Contains(bad[0], "missing from current run") {
				t.Errorf("metric removed from the run: %v", bad)
			}

			for what, tamper := range map[string]func(r *bench.Reference){
				"workload":   func(r *bench.Reference) { r.Workload = "other-workload" },
				"experiment": func(r *bench.Reference) { r.Experiment = "other-experiment" },
				"goarch":     func(r *bench.Reference) { r.GOARCH = "other-arch" },
			} {
				other := cloneRef(t, ref)
				tamper(other)
				if bad := bench.Diff(other, ref); len(bad) != 1 || !strings.Contains(bad[0], what+" mismatch") {
					t.Errorf("%s mismatch not refused: %v", what, bad)
				}
			}
		})
	}
}
