package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fixtureRoot is the analyzer's self-contained fixture module. Its
// packages deliberately violate the invariants on marked lines; the
// driver tests fail if a pass stops firing (or starts over-firing).
const fixtureRoot = "testdata/src/fixture"

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := NewLoader(fixtureRoot)
	if err != nil {
		t.Fatalf("NewLoader(%s): %v", fixtureRoot, err)
	}
	return l
}

// wantMarkers scans a loaded package for `// want <pass>` comments and
// returns the expected "line pass" keys.
func wantMarkers(pkg *Package) map[string]int {
	want := make(map[string]int)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				for _, pass := range strings.Fields(rest) {
					want[fmt.Sprintf("%d %s", line, pass)]++
				}
			}
		}
	}
	return want
}

// TestPassFixtures is the table-driven fixture suite: each pass runs
// over its fixture package and the findings must match the `// want`
// markers exactly — both missing and unexpected findings fail, so the
// test breaks if a pass's detection logic is disabled.
func TestPassFixtures(t *testing.T) {
	cases := []struct {
		pass Pass
		path string
	}{
		{&LockOrderPass{}, "fixture/internal/storage"},
		{&DeterminismPass{}, "fixture/internal/core"},
		{&DeterminismPass{}, "fixture/internal/dbfile"},
		{&ErrFlowPass{}, "fixture/errflow"},
		{&CtxFlowPass{}, "fixture/ctxflow/internal/core"},
		{&SnapFreezePass{}, "fixture/snapfreeze"},
		{&AtomicPubPass{}, "fixture/atomicpub"},
		{&HotAllocPass{}, "fixture/hotalloc"},
	}
	l := fixtureLoader(t)
	for _, tc := range cases {
		t.Run(tc.pass.Name(), func(t *testing.T) {
			pkg, err := l.Load(tc.path)
			if err != nil {
				t.Fatalf("load %s: %v", tc.path, err)
			}
			want := wantMarkers(pkg)
			if len(want) == 0 {
				t.Fatalf("fixture %s has no // want markers", tc.path)
			}
			findings, err := Run(l, []Pass{tc.pass}, []string{tc.path})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			got := make(map[string]int)
			for _, f := range findings {
				got[fmt.Sprintf("%d %s", f.Line, f.Pass)]++
			}
			for k, n := range want {
				if got[k] != n {
					t.Errorf("marker %q: want %d finding(s), got %d", k, n, got[k])
				}
			}
			for k, n := range got {
				if want[k] != n {
					t.Errorf("unexpected finding(s) %q (count %d); full set:\n%s", k, n, renderFindings(findings))
				}
			}
		})
	}
}

func renderFindings(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "  %s\n", f.String())
	}
	return b.String()
}

// TestSuppression exercises the directive machinery end to end: a
// justified directive and the "all" wildcard silence their findings, a
// wrong-pass directive does not, a reason-less directive is itself
// reported without suppressing anything, a stale directive with nothing
// to suppress is reported, and a directive naming an unknown pass is
// reported. The WrongPass directive (a real pass outside this run's
// set) must NOT be reported unused: this run never executed lockorder,
// so its staleness is unknowable here.
func TestSuppression(t *testing.T) {
	l := fixtureLoader(t)
	findings, err := Run(l, []Pass{&ErrFlowPass{}}, []string{"fixture/suppress"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	byPass := make(map[string]int)
	for _, f := range findings {
		byPass[f.Pass]++
	}
	// WrongPass, Malformed, and UnknownPass leak through (3 errflow);
	// the malformed directive, the unknown-pass directive, and the stale
	// Unused directive are reported (3 suppress); Good and Wildcard are
	// silent.
	if byPass["errflow"] != 3 || byPass["suppress"] != 3 || len(findings) != 6 {
		t.Fatalf("want 3 errflow + 3 suppress, got:\n%s", renderFindings(findings))
	}
	var sawUnused, sawUnknown bool
	for _, f := range findings {
		if strings.Contains(f.Message, "unused suppression") {
			sawUnused = true
		}
		if strings.Contains(f.Message, "unknown pass") {
			sawUnknown = true
		}
	}
	if !sawUnused || !sawUnknown {
		t.Fatalf("missing unused/unknown directive findings (unused=%v unknown=%v):\n%s",
			sawUnused, sawUnknown, renderFindings(findings))
	}
}

// TestAPISnapshot checks the three golden-file regimes: in-sync (clean),
// stale (both diff directions reported), and missing (explicit error
// finding).
func TestAPISnapshot(t *testing.T) {
	l := fixtureLoader(t)
	pkg, err := l.Load("fixture")
	if err != nil {
		t.Fatalf("load fixture root: %v", err)
	}

	surface := APISurface(pkg.Types)
	for _, wantLine := range []string{
		"func MakeWidget(name string) *Widget",
		"method (Widget) Grow(n int) Widget",
		"type Widget struct { Name string }",
		"type Sizer interface { Size(w Widget) int }",
		"var DefaultName string",
	} {
		if !contains(surface, wantLine) {
			t.Errorf("APISurface missing %q; got:\n  %s", wantLine, strings.Join(surface, "\n  "))
		}
	}
	if !sort.StringsAreSorted(surface) {
		t.Error("APISurface output is not sorted")
	}

	run := func(golden string) []Finding {
		t.Helper()
		fs, err := Run(l, []Pass{&APISnapshotPass{GoldenPath: golden}}, []string{"fixture"})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return fs
	}

	good := filepath.Join(t.TempDir(), "api.golden")
	if err := WriteAPIGolden(pkg.Types, good); err != nil {
		t.Fatalf("WriteAPIGolden: %v", err)
	}
	if fs := run(good); len(fs) != 0 {
		t.Errorf("in-sync golden: want 0 findings, got:\n%s", renderFindings(fs))
	}

	// Stale golden: drop one real line, add one bogus line.
	stale := filepath.Join(t.TempDir(), "stale.golden")
	mutated := append([]string{"func Vanished() int"}, surface[1:]...)
	if err := os.WriteFile(stale, []byte(strings.Join(mutated, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := run(stale)
	if len(fs) != 2 {
		t.Fatalf("stale golden: want 2 findings, got:\n%s", renderFindings(fs))
	}
	var sawLost, sawNew bool
	for _, f := range fs {
		if strings.Contains(f.Message, `"func Vanished() int"`) {
			sawLost = true
		}
		if strings.Contains(f.Message, fmt.Sprintf("%q", surface[0])) {
			sawNew = true
		}
	}
	if !sawLost || !sawNew {
		t.Errorf("stale golden diff incomplete (lost=%v new=%v):\n%s", sawLost, sawNew, renderFindings(fs))
	}

	if fs := run(filepath.Join(t.TempDir(), "missing.golden")); len(fs) != 1 ||
		!strings.Contains(fs[0].Message, "cannot read golden snapshot") {
		t.Errorf("missing golden: want 1 read-error finding, got:\n%s", renderFindings(fs))
	}
}

func contains(lines []string, want string) bool {
	for _, l := range lines {
		if l == want {
			return true
		}
	}
	return false
}

// TestModulePackages checks discovery over the real repository: the
// analyzer's own fixture trees (under testdata) must be skipped, and the
// known packages must be present.
func TestModulePackages(t *testing.T) {
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"repro", "repro/internal/analysis", "repro/internal/storage", "repro/internal/core"} {
		if !contains(paths, want) {
			t.Errorf("ModulePackages missing %s; got %v", want, paths)
		}
	}
	for _, p := range paths {
		if strings.Contains(p, "testdata") {
			t.Errorf("ModulePackages leaked a fixture package: %s", p)
		}
	}
}
