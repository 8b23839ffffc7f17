// Package analysis implements hdovlint, the project-invariant static
// analyzer. The HDoV codebase carries invariants that ordinary Go vetting
// cannot see — Disk.mu must never be acquired under Disk.statsMu, query
// traversal must stay deterministic so the differential suite's
// byte-identical guarantee holds, and decoder/write errors must not be
// dropped. Each invariant is a Pass; the driver type-checks packages with
// the standard library only (go/parser + go/types with a source importer,
// no module dependencies) and reports findings with file:line positions.
//
// A finding can be suppressed with a comment on the same line or the line
// directly above it:
//
//	//lint:ignore <pass> reason
//
// The reason is mandatory; suppressions without one are themselves
// reported. See DESIGN.md §11 for the invariant catalogue.
package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pass    string         `json:"pass"`
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Message string         `json:"message"`
}

// String formats the finding the way compilers do, so editors can jump to
// it: file:line:col: [pass] message.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Pass, f.Message)
}

// Package is one type-checked package handed to the passes.
type Package struct {
	Path  string // import path, e.g. "repro/internal/storage"
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Pass is one invariant checker.
type Pass interface {
	// Name is the pass identifier used in output and suppression comments.
	Name() string
	// Run inspects one package and returns its findings. Findings are
	// filtered through suppression comments by the driver.
	Run(pkg *Package) []Finding
}

// Passes returns the full hdovlint pass set. apiGoldenPath locates the
// committed API snapshot for the apisnapshot pass (empty disables it).
func Passes(apiGoldenPath string) []Pass {
	ps := []Pass{
		&LockOrderPass{},
		&DeterminismPass{},
		&ErrFlowPass{},
		&CtxFlowPass{},
		&SnapFreezePass{},
		&AtomicPubPass{},
		&HotAllocPass{},
	}
	if apiGoldenPath != "" {
		ps = append(ps, &APISnapshotPass{GoldenPath: apiGoldenPath})
	}
	return ps
}

// KnownPassNames lists every pass identifier a suppression directive may
// name (plus the wildcard "all" and the driver's own "suppress"
// findings). A directive naming anything else is itself reported: it
// silently suppresses nothing, which usually means a typo is hiding a
// real finding.
func KnownPassNames() []string {
	names := []string{"suppress"}
	for _, p := range Passes("unused") {
		names = append(names, p.Name())
	}
	sort.Strings(names)
	return names
}

// Loader parses and type-checks packages of the repro module from source,
// resolving standard-library imports through the toolchain's source
// importer and module-internal imports from the repository tree itself.
type Loader struct {
	Root string // repository root (directory containing go.mod)
	Fset *token.FileSet

	module   string // module path from go.mod ("repro")
	fallback types.ImporterFrom
	cache    map[string]*Package
}

// NewLoader returns a loader rooted at the repository directory.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:     abs,
		Fset:     fset,
		module:   mod,
		fallback: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache:    make(map[string]*Package),
	}, nil
}

// modulePath reads the module directive from go.mod.
func modulePath(root string) (string, error) {
	raw, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("analysis: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s/go.mod", root)
}

// Import implements types.Importer over the module tree + stdlib.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.fallback.Import(path)
}

// dirFor maps an import path inside the module to its directory.
func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
	return filepath.Join(l.Root, filepath.FromSlash(rel))
}

// Load parses and type-checks one module package by import path,
// memoized. Test files (_test.go) are excluded: the invariants govern
// shipping code, and test packages may deliberately violate them.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	dir := l.dirFor(path)
	pkg, err := l.loadDir(dir, path)
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}

// loadDir parses the non-test Go files of dir and type-checks them as
// import path "path".
func (l *Loader) loadDir(dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		// Honor build constraints (//go:build lines and _GOOS.go name
		// suffixes) the way go build does, so per-platform shims such as
		// filestore's mmap files don't collide in one type-check.
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: %s: no Go files in %s", path, dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// ModulePackages walks the repository and returns the import paths of
// every buildable package, skipping testdata, hidden directories, and the
// analyzer's own fixture trees.
func (l *Loader) ModulePackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.Root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := filepath.Base(p)
		if base == "testdata" || (strings.HasPrefix(base, ".") && p != l.Root) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range entries {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				rel, err := filepath.Rel(l.Root, p)
				if err != nil {
					return err
				}
				if rel == "." {
					paths = append(paths, l.module)
				} else {
					paths = append(paths, l.module+"/"+filepath.ToSlash(rel))
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// Run executes every pass over every named package, applies suppression
// comments, and returns the surviving findings sorted by position.
// Besides the pass findings it reports malformed directives, directives
// naming an unknown pass, and directives that suppressed nothing on this
// run (unused suppressions go stale when the code they excused is fixed,
// and a stale directive will one day hide a real finding). Unused
// reporting is gated on the directive's pass being part of this run, so
// a partial run does not cry wolf about directives for passes it never
// executed.
func Run(l *Loader, passes []Pass, paths []string) ([]Finding, error) {
	ran := make(map[string]bool)
	for _, p := range passes {
		ran[p.Name()] = true
		if la, ok := p.(LoaderAware); ok {
			la.SetLoader(l)
		}
	}
	var out []Finding
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		sup := collectSuppressions(pkg)
		for _, p := range passes {
			for _, f := range p.Run(pkg) {
				if sup.matches(f) {
					continue
				}
				out = append(out, f)
			}
		}
		out = append(out, sup.malformed...)
		out = append(out, sup.unused(ran)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Col < out[j].Col
	})
	return out, nil
}

// position converts a token.Pos into a Finding-ready position.
func position(fset *token.FileSet, pos token.Pos) token.Position {
	return fset.Position(pos)
}

// finding builds a Finding at pos.
func finding(pass string, fset *token.FileSet, pos token.Pos, format string, args ...any) Finding {
	p := position(fset, pos)
	return Finding{
		Pass:    pass,
		Pos:     p,
		File:    p.Filename,
		Line:    p.Line,
		Col:     p.Column,
		Message: fmt.Sprintf(format, args...),
	}
}

// supRecord is one //lint:ignore directive with its match bookkeeping.
type supRecord struct {
	pkg  *Package
	pos  token.Pos
	pass string
	used bool
}

// suppressions indexes //lint:ignore comments by file and line.
type suppressions struct {
	// byLine maps file -> covered line -> the directives covering it.
	byLine    map[string]map[int][]*supRecord
	records   []*supRecord
	malformed []Finding
}

// collectSuppressions scans the package's comments for lint directives.
func collectSuppressions(pkg *Package) *suppressions {
	s := &suppressions{byLine: make(map[string]map[int][]*supRecord)}
	known := make(map[string]bool)
	for _, n := range KnownPassNames() {
		known[n] = true
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := position(pkg.Fset, c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					s.malformed = append(s.malformed, finding("suppress", pkg.Fset, c.Pos(),
						"malformed directive: want //lint:ignore <pass> <reason>"))
					continue
				}
				pass := fields[0]
				if pass != "all" && !known[pass] {
					s.malformed = append(s.malformed, finding("suppress", pkg.Fset, c.Pos(),
						"directive names unknown pass %q; it suppresses nothing (known: all, %s)",
						pass, strings.Join(KnownPassNames(), ", ")))
					continue
				}
				rec := &supRecord{pkg: pkg, pos: c.Pos(), pass: pass}
				s.records = append(s.records, rec)
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*supRecord)
					s.byLine[pos.Filename] = lines
				}
				// A directive covers its own line and the line below it, so
				// both same-line trailing comments and above-line comments
				// work.
				for _, ln := range []int{pos.Line, pos.Line + 1} {
					lines[ln] = append(lines[ln], rec)
				}
			}
		}
	}
	return s
}

// matches reports whether a finding is covered by a directive, and marks
// every covering directive used.
func (s *suppressions) matches(f Finding) bool {
	lines, ok := s.byLine[f.File]
	if !ok {
		return false
	}
	matched := false
	for _, rec := range lines[f.Line] {
		if rec.pass == f.Pass || rec.pass == "all" {
			rec.used = true
			matched = true
		}
	}
	return matched
}

// unused reports directives that suppressed nothing. A directive naming
// a pass outside this run's set is skipped — whether it is stale cannot
// be known without running that pass. The wildcard "all" is checked on
// every run: if the full pass set over its lines is quiet, the directive
// is dead weight.
func (s *suppressions) unused(ran map[string]bool) []Finding {
	var out []Finding
	for _, rec := range s.records {
		if rec.used {
			continue
		}
		if rec.pass != "all" && !ran[rec.pass] {
			continue
		}
		out = append(out, finding("suppress", rec.pkg.Fset, rec.pos,
			"unused suppression: no %s finding on this or the next line; remove the directive before it hides a real one",
			rec.pass))
	}
	return out
}
