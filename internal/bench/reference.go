package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// The reference registry. Every experiment with a committed BENCH_*.json
// file reports its figures as one flat list of named metrics, each
// tagged with how a guard may treat it across runs — benchstat's split
// of deterministic from noisy measurements (golang/perf):
//
//	exact    — simulated cost, page counts, answer identity: a pure
//	           function of the code and the seeded workload, so the
//	           guard requires it bit-equal to the reference and any
//	           drift fails, however small
//	measured — wall-clock time and scheduler-shaped saturation
//	           figures: host properties, never diffed across runs; only
//	           the experiment's claims read them
//
// One claim check per experiment holds its gates; the experiment's Run
// verdicts and the guard both call it.

// Kind says how a guard treats a metric across runs.
type Kind string

// The two metric kinds, as described above.
const (
	Exact    Kind = "exact"
	Measured Kind = "measured"
)

// Metric is one named figure of a reference. Value is the figure itself;
// a measured figure taken over repeated rounds carries every round in
// Samples and reports their median as Value.
type Metric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Kind    Kind      `json:"kind"`
	Value   float64   `json:"value"`
	Samples []float64 `json:"samples,omitempty"`
}

// Reference is the one committed format of every BENCH_*.json file.
// Experiment and Workload pin what was measured; GOARCH pins where,
// since the compiler fuses multiply-adds on some architectures and an
// exact metric is only exact on the architecture that produced it.
type Reference struct {
	Experiment string   `json:"experiment"`
	Workload   string   `json:"workload"`
	GOARCH     string   `json:"goarch"`
	Metrics    []Metric `json:"metrics"`
}

// RefHook makes an experiment a reference experiment.
type RefHook struct {
	// Collect measures the experiment's metrics for p.
	Collect func(p Params) (*Reference, error)
	// Check evaluates the experiment's claims on a fresh run. ref is the
	// committed reference when a guard runs it, nil for a plain -exp run.
	Check func(cur, ref *Reference) []Claim
}

// Claim is one gate's verdict.
type Claim struct {
	Text string
	Pass bool
}

// claim builds a Claim from a condition and its description.
func claim(pass bool, format string, args ...any) Claim {
	return Claim{Text: fmt.Sprintf(format, args...), Pass: pass}
}

func newReference(experiment, workload string) *Reference {
	return &Reference{Experiment: experiment, Workload: workload, GOARCH: runtime.GOARCH}
}

// exact records a deterministic metric.
func (r *Reference) exact(name, unit string, v float64) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Unit: unit, Kind: Exact, Value: v})
}

// measured records a host-dependent metric: the median of samples, or
// v alone when there are none.
func (r *Reference) measured(name, unit string, v float64, samples ...float64) {
	if len(samples) > 0 {
		v = median(samples)
	}
	r.Metrics = append(r.Metrics, Metric{Name: name, Unit: unit, Kind: Measured, Value: v, Samples: samples})
}

// metric finds a metric by name; the zero Metric when absent.
func (r *Reference) metric(name string) Metric {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m
		}
	}
	return Metric{}
}

// value is the named metric's value, 0 when absent.
func (r *Reference) value(name string) float64 { return r.metric(name).Value }

// boolMetric encodes a yes/no figure as an exact 1 or 0.
func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// median returns the middle value of xs; every caller takes an odd
// number of samples.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// verdicts prints one line per claim and fails when any claim does.
func verdicts(w io.Writer, id string, claims []Claim) error {
	failed := 0
	for _, c := range claims {
		v := "PASS"
		if !c.Pass {
			v = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "%s %s\n", c.Text, v)
	}
	if failed > 0 {
		return fmt.Errorf("bench: %s: %d of %d claims failed", id, failed, len(claims))
	}
	return nil
}

// LoadReference reads a committed reference file.
func LoadReference(path string) (*Reference, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Reference
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// WriteReference writes r to path in the committed format.
func WriteReference(path string, r *Reference) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// mismatch describes why ref and cur are not comparable at all: another
// experiment, workload or architecture. Empty when they are.
func mismatch(ref, cur *Reference) string {
	for _, h := range []struct{ what, want, got string }{
		{"experiment", ref.Experiment, cur.Experiment},
		{"workload", ref.Workload, cur.Workload},
		{"goarch", ref.GOARCH, cur.GOARCH},
	} {
		if h.want != h.got {
			return fmt.Sprintf("%s mismatch: reference %q vs current %q (regenerate the reference)",
				h.what, h.want, h.got)
		}
	}
	return ""
}

// Diff compares a fresh run against a committed reference and returns
// one line per difference. A reference from another experiment, workload
// or architecture is refused outright. Otherwise both must hold the same
// metrics, name for name and kind for kind, and every exact metric must
// be bit-equal after a JSON round trip; measured metrics are never
// diffed.
func Diff(ref, cur *Reference) []string {
	if m := mismatch(ref, cur); m != "" {
		return []string{m}
	}
	raw, err := json.Marshal(cur)
	if err == nil {
		var rt Reference
		if err = json.Unmarshal(raw, &rt); err == nil {
			cur = &rt
		}
	}
	if err != nil {
		return []string{fmt.Sprintf("current run does not encode: %v", err)}
	}
	var bad []string
	have := make(map[string]Metric, len(cur.Metrics))
	for _, m := range cur.Metrics {
		have[m.Name] = m
	}
	for _, want := range ref.Metrics {
		got, ok := have[want.Name]
		delete(have, want.Name)
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: missing from current run", want.Name))
		case got.Kind != want.Kind:
			bad = append(bad, fmt.Sprintf("%s: kind %s, reference %s", want.Name, got.Kind, want.Kind))
		case want.Kind == Exact && math.Float64bits(got.Value) != math.Float64bits(want.Value):
			bad = append(bad, fmt.Sprintf("%s: %v %s, reference %v (exact metric)",
				want.Name, got.Value, got.Unit, want.Value))
		}
	}
	extra := make([]string, 0, len(have))
	for name := range have {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		bad = append(bad, fmt.Sprintf("%s: not in the reference", name))
	}
	return bad
}

// Guard re-measures ref's experiment with p, diffs the fresh run
// against ref, and evaluates the experiment's claims on it. It returns
// the fresh run and one line per diff or failed claim; err reports a
// reference that names no reference experiment, or a failed run.
func Guard(ref *Reference, p Params) (cur *Reference, bad []string, err error) {
	e, ok := Lookup(ref.Experiment)
	if !ok || e.Ref == nil {
		return nil, nil, fmt.Errorf("bench: %q is not a reference experiment", ref.Experiment)
	}
	if cur, err = e.Ref.Collect(p); err != nil {
		return nil, nil, err
	}
	if m := mismatch(ref, cur); m != "" {
		return cur, []string{m}, nil
	}
	bad = Diff(ref, cur)
	if e.Ref.Check != nil {
		for _, c := range e.Ref.Check(cur, ref) {
			if !c.Pass {
				bad = append(bad, "claim failed: "+c.Text)
			}
		}
	}
	return cur, bad, nil
}

// Benchmark-format output: a reference rendered as standard Go benchmark
// lines ("BenchmarkX <iters> <value> <unit>"), the format `go test
// -bench` emits and benchstat consumes, so two runs (two commits, two
// hosts, sim vs file backend) diff with the stock tooling.

// WriteBenchHeader writes the benchstat file preamble.
func WriteBenchHeader(w io.Writer) {
	fmt.Fprintf(w, "goos: %s\n", runtime.GOOS)
	fmt.Fprintf(w, "goarch: %s\n", runtime.GOARCH)
	fmt.Fprintf(w, "pkg: repro/internal/bench\n")
}

// WriteBenchFmt writes one benchmark line per metric of r; the
// iteration count is the number of rounds behind the value.
func WriteBenchFmt(w io.Writer, r *Reference) {
	exp := strings.ToUpper(r.Experiment[:1]) + r.Experiment[1:]
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "Benchmark%s/%s\t%d\t%.6g %s\n", exp, m.Name, max(len(m.Samples), 1), m.Value, m.Unit)
	}
}
