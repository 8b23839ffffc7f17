// Command hdovlint runs the project-invariant static analysis suite over
// the repository (see internal/analysis and DESIGN.md §11):
//
//	go run ./cmd/hdovlint ./...
//
// Passes: lockorder (Disk.mu before Disk.statsMu, no nested locks, no
// unknown calls under mu), determinism (no wall clock, randomness, or map-order dependence in
// the query/result path), errflow (no dropped serialization or storage
// write errors), ctxflow (no severed or dropped context.Context on the
// traversal path — deadlines set at the public API must reach the
// storage layer), snapfreeze (no store into hdov:frozen-after-publish
// types outside a construction window), atomicpub (stores to
// hdov:guarded-by fields happen under the named lock), hotalloc (no
// per-iteration allocation in loops of hdov:hot-path functions),
// apisnapshot (the root package's exported API matches the committed
// api.golden).
//
// Exit status is 0 when clean, 1 with findings, 2 on usage or load
// errors. Findings print as file:line:col: [pass] message; -json emits a
// machine-readable array instead. A finding is suppressed by a
// `//lint:ignore <pass> reason` comment on its line or the line above;
// a directive that names an unknown pass, lacks a reason, or suppresses
// nothing is itself reported. After a deliberate API change, regenerate
// the snapshot with -update-api.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hdovlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	updateAPI := fs.Bool("update-api", false, "regenerate api.golden from the current exported API and exit")
	root := fs.String("root", "", "repository root (default: nearest go.mod above the working directory)")
	golden := fs.String("api-golden", "", "path to the API snapshot (default: <root>/api.golden)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	rootDir := *root
	if rootDir == "" {
		var err error
		rootDir, err = findRoot()
		if err != nil {
			fmt.Fprintf(stderr, "hdovlint: %v\n", err)
			return 2
		}
	}
	// Findings carry absolute positions; an absolute root makes the
	// relativization below work regardless of how -root was spelled.
	if abs, err := filepath.Abs(rootDir); err == nil {
		rootDir = abs
	}
	goldenPath := *golden
	if goldenPath == "" {
		goldenPath = filepath.Join(rootDir, "api.golden")
	}

	loader, err := analysis.NewLoader(rootDir)
	if err != nil {
		fmt.Fprintf(stderr, "hdovlint: %v\n", err)
		return 2
	}

	paths, err := resolvePatterns(loader, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "hdovlint: %v\n", err)
		return 2
	}

	if *updateAPI {
		pkg, err := loader.Load("repro")
		if err != nil {
			fmt.Fprintf(stderr, "hdovlint: %v\n", err)
			return 2
		}
		if err := analysis.WriteAPIGolden(pkg.Types, goldenPath); err != nil {
			fmt.Fprintf(stderr, "hdovlint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "hdovlint: wrote %s\n", goldenPath)
		return 0
	}

	findings, err := analysis.Run(loader, analysis.Passes(goldenPath), paths)
	if err != nil {
		fmt.Fprintf(stderr, "hdovlint: %v\n", err)
		return 2
	}
	// Positions print relative to the root so output is stable across
	// checkouts (and the golden test).
	for i := range findings {
		if rel, err := filepath.Rel(rootDir, findings[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].File = filepath.ToSlash(rel)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(stderr, "hdovlint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
		}
		if len(findings) > 0 {
			fmt.Fprintf(stdout, "hdovlint: %d finding(s)\n", len(findings))
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// findRoot walks up from the working directory to the nearest go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// resolvePatterns maps command-line package patterns to import paths.
// Supported: "./..." (everything), none (everything), or explicit
// module-relative paths like ./internal/storage.
func resolvePatterns(l *analysis.Loader, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		return l.ModulePackages()
	}
	var out []string
	for _, p := range patterns {
		switch {
		case p == "./..." || p == "...":
			return l.ModulePackages()
		case strings.HasPrefix(p, "./"):
			rel := strings.TrimPrefix(p, "./")
			if rel == "" || rel == "." {
				out = append(out, "repro")
			} else {
				out = append(out, "repro/"+filepath.ToSlash(rel))
			}
		case p == ".":
			out = append(out, "repro")
		default:
			out = append(out, p)
		}
	}
	return out, nil
}
