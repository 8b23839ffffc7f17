// Package dbfile persists a built HDoV database to a directory on the
// real filesystem and reopens it: the paper's precomputation (R-tree
// construction, internal-LoD generation, per-cell DoV evaluation, V-page
// layout) takes orders of magnitude longer than a query session, so a
// production deployment builds once and ships the files.
//
// A database directory holds a manifest and a chain of page runs:
//
//	manifest.json — dataset parameters, every layout pointer needed to
//	                reattach the tree and the one V-page layout the
//	                database serves, and the run list (JSON,
//	                human-inspectable, checksummed)
//	disk.img      — run 0: every page of the disk (binary, checksummed)
//	epoch-N.img   — the run of incremental update epoch N: the pages it
//	                appended past the previous watermark (absent on
//	                static databases)
//
// Every run has the one storage page-run format; the disk reopens by
// applying the runs in order. The scene's meshes are not stored twice:
// the city regenerates deterministically from its CityParams (plus, for
// dynamic scenes, a replay of the manifest's op log), and payload meshes
// live in the runs.
//
// # Crash safety
//
// Save and CommitEpoch are one commit: a run is written to a temporary
// file, fsynced and renamed into place first; the manifest — which pins
// every run's byte size and CRC and carries its own checksum — is
// written, fsynced and renamed last. Save writes run 0 and replaces the
// run list; CommitEpoch writes the run from the committed watermark and
// appends it. The manifest rename is the commit point: a crash at any
// write boundary before it leaves the previous version intact (with at
// worst an unreferenced run or temp file for fsck to sweep) or, in a
// fresh directory, no manifest at all. Open cross-checks the manifest
// checksum and every run's size and CRC, so every torn state is
// rejected with ErrBadDatabase.
package dbfile

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	"repro/internal/core"
	"repro/internal/scene"
	"repro/internal/storage"
	"repro/internal/storage/filestore"
	"repro/internal/vstore"
)

const (
	// FormatVersion guards manifest compatibility. Version 2 added the
	// manifest checksum and the image size/CRC cross-check (version-1
	// directories predate crash-safe saves and are rejected). Version 3
	// added the codec V-page layout manifests and the page-quarantine
	// sidecar (quarantine.json). Version 4 added dynamic scenes: the op
	// log, the epoch counter, and the epoch-N.img delta chain. Version 5
	// stores one V-page layout, tagged with its scheme, instead of all
	// three plus the naive baseline. Version 6 writes disk.img in the
	// one page-run format and pins it as Runs[0].
	FormatVersion = 6
	manifestName  = "manifest.json"
	imageName     = "disk.img"
	// deltaPrefix/deltaSuffix frame epoch run file names (epoch-N.img).
	deltaPrefix = "epoch-"
	deltaSuffix = ".img"
	// quarantineName is the optional page-quarantine sidecar: disk pages
	// fsck found codec-invalid, parked so queries fail fast (and degrade)
	// on them instead of re-decoding garbage.
	quarantineName = "quarantine.json"
)

// PagesFileName is the page file a file-backed open materializes inside
// the database directory. It is derived state — rebuilt from the page
// runs on every OpenWith — never part of the commit protocol, so fsck
// classifies it as Derived, not Stray.
const PagesFileName = "pages.dat"

// Manifest is the JSON document describing a saved database.
type Manifest struct {
	FormatVersion int
	City          scene.CityParams
	Tree          core.TreeManifest
	Layout        vstore.Manifest

	// Epoch counts committed incremental update epochs; 0 is a freshly
	// built database. Ops is the dynamic-scene op log: the scene is
	// reconstructed as Generate(City) + Replay(Ops).
	Epoch int        `json:",omitempty"`
	Ops   []scene.Op `json:",omitempty"`
	// Runs lists the page runs the disk is rebuilt from, in commit
	// order: Runs[0] is disk.img, each later run an epoch's epoch-N.img.
	// Pinning every run's size and CRC means a manifest renamed into
	// place next to a stale or torn run fails the cross-check.
	// AllocatedPages is the disk's total allocation after all of them —
	// the watermark the next epoch's run starts at. Save compacts to one
	// run.
	Runs           []RunManifest
	AllocatedPages int64
	// Checksum is the IEEE CRC32 of this document serialized with
	// Checksum itself zero (see Seal).
	Checksum uint32
}

// Seal recomputes the manifest's checksum. Tests that deliberately tamper
// with a manifest use it to keep the checksum valid so deeper validation
// is exercised.
func (m *Manifest) Seal() error {
	sum, err := m.computeChecksum()
	if err != nil {
		return err
	}
	m.Checksum = sum
	return nil
}

func (m *Manifest) computeChecksum() (uint32, error) {
	mm := *m
	mm.Checksum = 0
	raw, err := json.Marshal(&mm)
	if err != nil {
		return 0, err
	}
	return crc32.ChecksumIEEE(raw), nil
}

// RunManifest pins one committed page-run file: name, byte size and
// file-level CRC.
type RunManifest struct {
	Name  string
	Bytes int64
	CRC32 uint32
}

// Database is a reopened (or about-to-be-saved) HDoV database.
type Database struct {
	Scene *scene.Scene
	Disk  *storage.Disk
	Tree  *core.Tree
	// Layout is the V-page layout the tree serves.
	Layout vstore.Layout
	// Epoch and Ops mirror the manifest's dynamic-scene state: how many
	// update epochs have been applied and the full op log that evolves
	// the generated base city into Scene.
	Epoch int
	Ops   []scene.Op
}

// Close releases the database's storage media — the page file handle and
// mmap window of a file-backed open; a no-op on simulated media. The
// database must not be used afterwards.
func (db *Database) Close() error {
	if db == nil || db.Disk == nil {
		return nil
	}
	return db.Disk.Close()
}

// ErrBadDatabase is wrapped into open-time validation failures.
var ErrBadDatabase = errors.New("dbfile: bad database")

// crashPoint aborts a commit at a named write boundary (crash-injection
// tests). Empty in production.
var crashPoint string

// crashSeen, when non-nil, records every stage crashAt is reached at, so
// a test can pin its crash tables to the protocol. Nil in production.
var crashSeen map[string]bool

// errCrash marks an injected crash.
var errCrash = errors.New("dbfile: injected crash")

func crashAt(stage string) error {
	if stage == "" {
		return nil
	}
	if crashSeen != nil {
		crashSeen[stage] = true
	}
	if crashPoint == stage {
		return fmt.Errorf("%w at %s", errCrash, stage)
	}
	return nil
}

// commitStages names the crash-injection boundaries of one commit kind:
// after the run's temp file is written, after its rename, after the
// manifest's temp file is written, and after the manifest rename (the
// commit point; "" for none).
type commitStages struct{ runTmp, runRename, manifestTmp, committed string }

var (
	saveStages  = commitStages{"image-tmp", "image-rename", "manifest-tmp", ""}
	epochStages = commitStages{"epoch-tmp", "epoch-rename", "epoch-manifest-tmp", "epoch-manifest-rename"}
)

// Save writes the database to dir (created if absent) as a single run:
// disk.img holds every page, and the manifest it commits supersedes any
// epoch chain the directory held. The write order — run first,
// checksummed manifest renamed into place last — makes the manifest
// rename the commit point; a crash anywhere before it leaves the
// previous database state (or a rejectable partial directory) behind.
func Save(dir string, db *Database) error {
	_, err := commit(dir, db, false)
	return err
}

// CommitEpoch commits one incremental update epoch to an existing
// database directory: the pages the update appended (everything past the
// previously committed allocation watermark) are written as the run
// epoch-N.img, then the manifest — carrying the new layout pointers, the
// extended op log and the run list with the new run appended — is
// atomically renamed into place. The manifest rename is the commit
// point: a crash anywhere before it leaves the previous epoch intact,
// with at worst an unreferenced run or temp file for fsck to sweep.
//
// The db must hold the post-update state (new tree, layout, op log) of
// the database the directory holds: the same city and build parameters,
// and an op log that extends the committed one. Anything else is refused
// before the directory is touched. CommitEpoch derives the epoch number
// from the directory and returns it.
func CommitEpoch(dir string, db *Database) (int, error) {
	return commit(dir, db, true)
}

// DeltaFileName returns the file name of epoch n's run.
func DeltaFileName(n int) string {
	return fmt.Sprintf("%s%d%s", deltaPrefix, n, deltaSuffix)
}

// commit is Save (epoch false) and CommitEpoch (epoch true). The two
// differ only in the watermark their run starts at — 0, or the committed
// allocation — and in whether the committed run list is kept.
func commit(dir string, db *Database, epoch bool) (int, error) {
	if db == nil || db.Scene == nil || db.Tree == nil || db.Disk == nil || db.Layout == nil {
		return 0, fmt.Errorf("dbfile: commit: incomplete database")
	}
	m := Manifest{
		FormatVersion: FormatVersion,
		City:          db.Scene.Params,
		Tree:          db.Tree.Manifest(),
		Layout:        db.Layout.LayoutManifest(),
		Epoch:         db.Epoch,
		Ops:           db.Ops,
	}
	name, from, stages := imageName, storage.PageID(0), saveStages
	if epoch {
		prev, err := readManifest(dir)
		if err != nil {
			return 0, fmt.Errorf("dbfile: commit: %w", err)
		}
		if err := checkExtends(prev, &m, db.Disk.NumPages()); err != nil {
			return 0, fmt.Errorf("dbfile: commit: %w", err)
		}
		m.Epoch = prev.Epoch + 1
		m.Runs = prev.Runs
		name, from, stages = DeltaFileName(m.Epoch), storage.PageID(prev.AllocatedPages), epochStages
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("dbfile: %w", err)
	}

	rm, err := writeRun(dir, name, db.Disk, from, stages)
	if err != nil {
		return 0, err
	}
	// Flush the live media before the manifest rename declares the
	// commit: on a file-backed disk this fsyncs pages.dat, so the state
	// the run snapshotted is also durable in the page file (a no-op on
	// simulated media).
	if err := db.Disk.Sync(); err != nil {
		return 0, fmt.Errorf("dbfile: commit: sync media: %w", err)
	}
	m.Runs = append(m.Runs, rm)
	m.AllocatedPages = db.Disk.NumPages()
	if err := m.Seal(); err != nil {
		return 0, fmt.Errorf("dbfile: manifest: %w", err)
	}
	raw, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return 0, fmt.Errorf("dbfile: manifest: %w", err)
	}
	if err := writeFileAtomic(dir, manifestName, stages.manifestTmp, func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	}); err != nil {
		return 0, err
	}
	if err := crashAt(stages.committed); err != nil {
		return 0, err
	}
	return m.Epoch, nil
}

// checkExtends reports why next — the manifest an epoch commit would write
// for a disk of pages pages — does not continue the database prev
// commits: another city, other build parameters, another layout scheme
// or codec, an op log that is not prev's extended, or a disk smaller
// than the committed watermark.
func checkExtends(prev, next *Manifest, pages int64) error {
	switch {
	case !reflect.DeepEqual(prev.City, next.City):
		return fmt.Errorf("city parameters differ from the committed database's")
	case prev.Tree.Params != next.Tree.Params || prev.Tree.Grid != next.Tree.Grid:
		return fmt.Errorf("build parameters differ from the committed database's")
	case prev.Layout.Scheme != next.Layout.Scheme || prev.Layout.Codec() != next.Layout.Codec():
		return fmt.Errorf("layout %v (codec %v) differs from the committed %v (codec %v)",
			next.Layout.Scheme, next.Layout.Codec(), prev.Layout.Scheme, prev.Layout.Codec())
	case len(next.Ops) < len(prev.Ops):
		return fmt.Errorf("op log shrank (%d < %d committed)", len(next.Ops), len(prev.Ops))
	case pages < prev.AllocatedPages:
		return fmt.Errorf("disk has %d pages, %d committed (wrong directory?)", pages, prev.AllocatedPages)
	}
	for i, op := range prev.Ops {
		if !reflect.DeepEqual(op, next.Ops[i]) {
			return fmt.Errorf("op %d differs from the committed log (diverged history?)", i)
		}
	}
	return nil
}

// writeRun writes d's pages from watermark from as the run file name,
// returning the manifest entry that pins what landed.
func writeRun(dir, name string, d *storage.Disk, from storage.PageID, stages commitStages) (RunManifest, error) {
	rm := RunManifest{Name: name}
	h := crc32.NewIEEE()
	if err := writeFileAtomic(dir, name, stages.runTmp, func(w io.Writer) error {
		n, err := d.WriteRunTo(io.MultiWriter(w, h), from)
		rm.Bytes = n
		return err
	}); err != nil {
		return rm, err
	}
	rm.CRC32 = h.Sum32()
	return rm, crashAt(stages.runRename)
}

// writeFileAtomic writes name under dir via tmp-file + fsync + rename +
// directory fsync; write fills the temporary file. stage is the crash
// boundary between the fsync and the rename.
func writeFileAtomic(dir, name, stage string, write func(io.Writer) error) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("dbfile: %s: %w", name, err)
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("dbfile: %s: %w", name, err)
	}
	if err := crashAt(stage); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("dbfile: %s: %w", name, err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames within it are durable. Filesystems
// that refuse directory fsync (some CI mounts) are tolerated.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("dbfile: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return fmt.Errorf("dbfile: fsync %s: %w", dir, err)
	}
	return nil
}

// OpenOptions selects the storage media a database is reopened onto.
// The zero value reproduces Open: the simulated in-memory disk.
type OpenOptions struct {
	// FileBacked materializes the committed page runs into a page file
	// (PagesFileName) inside the database directory and serves reads
	// through the real-file backend — mmap window, vectored preads,
	// wall-clock MeasuredTime — instead of the simulated in-memory media.
	// The page file is derived state: it is truncated and rebuilt on every
	// open, so a torn previous page file is harmless, and fsck never
	// counts it against the database. Because every open truncates the
	// same page file, at most one file-backed Database per directory may
	// be live at a time (Close the previous one first).
	FileBacked bool
	// NoMmap disables the file backend's mmap read window (pure pread).
	// Meaningful only with FileBacked.
	NoMmap bool
	// Cost overrides the simulator cost model the disk is opened with
	// (e.g. one fitted by hardware calibration). Nil keeps the default.
	Cost *storage.CostModel
}

// Open reopens a database directory saved by Save onto the simulated
// in-memory disk. The manifest's own checksum, every run's size and CRC,
// and every layout pointer are verified before anything is trusted; the
// city is regenerated from its parameters and tree and scheme layouts are
// revalidated against the disk.
func Open(dir string) (*Database, error) {
	return OpenWith(dir, OpenOptions{})
}

// memMedia builds the simulated in-memory media for a run's page size.
func memMedia(pageSize int) (storage.Backend, error) { return storage.NewMemBackend(pageSize), nil }

// OpenWith is Open with explicit media selection: the same validation and
// reattachment, onto either the simulated disk or a real page file inside
// the database directory (see OpenOptions.FileBacked).
func OpenWith(dir string, opts OpenOptions) (*Database, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	cost := storage.DefaultCostModel()
	if opts.Cost != nil {
		cost = *opts.Cost
	}
	media := memMedia
	if opts.FileBacked {
		media = func(pageSize int) (storage.Backend, error) {
			return filestore.Create(filepath.Join(dir, PagesFileName), pageSize, filestore.Options{NoMmap: opts.NoMmap})
		}
	}
	disk, _, err := loadDisk(dir, m, media, cost)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDatabase, err)
	}
	// From here on the disk may own real resources (page file, mmap
	// window); every validation failure must release them.
	fail := func(err error) (*Database, error) {
		_ = disk.Close()
		return nil, err
	}
	if err := validateLayout(m, disk); err != nil {
		return fail(err)
	}

	if err := applyQuarantine(dir, disk); err != nil {
		return fail(err)
	}

	base := scene.Generate(m.City)
	if err := base.Validate(); err != nil {
		return fail(fmt.Errorf("%w: regenerated scene: %v", ErrBadDatabase, err))
	}
	sc, err := scene.Replay(base, m.Ops)
	if err != nil {
		return fail(fmt.Errorf("%w: op log: %v", ErrBadDatabase, err))
	}
	if err := sc.Validate(); err != nil {
		return fail(fmt.Errorf("%w: replayed scene: %v", ErrBadDatabase, err))
	}
	tree, err := core.OpenTree(sc, disk, m.Tree)
	if err != nil {
		return fail(fmt.Errorf("%w: %v", ErrBadDatabase, err))
	}
	l, err := vstore.Open(disk, tree.Grid, m.Layout)
	if err != nil {
		return fail(fmt.Errorf("%w: %v", ErrBadDatabase, err))
	}
	tree.SetVStore(l)
	return &Database{
		Scene:  sc,
		Disk:   disk,
		Tree:   tree,
		Layout: l,
		Epoch:  m.Epoch,
		Ops:    m.Ops,
	}, nil
}

// loadDisk rebuilds the disk m commits from its page runs: run 0's page
// size picks the media (built by media), then every run is checked
// against its manifest pin and applied in order. On failure it releases
// what it built and returns the index of the run at fault — the last one
// when the chain ends at another allocation than the manifest commits.
func loadDisk(dir string, m *Manifest, media func(pageSize int) (storage.Backend, error), cost storage.CostModel) (*storage.Disk, int, error) {
	var disk *storage.Disk
	fail := func(i int, format string, args ...any) (*storage.Disk, int, error) {
		if disk != nil {
			_ = disk.Close()
		}
		label := "image"
		if i > 0 {
			label = "delta " + m.Runs[i].Name
		}
		return nil, i, fmt.Errorf("%s: %s", label, fmt.Sprintf(format, args...))
	}
	for i, rm := range m.Runs {
		raw, err := os.ReadFile(filepath.Join(dir, rm.Name))
		if err != nil {
			return fail(i, "%v", err)
		}
		if int64(len(raw)) != rm.Bytes {
			return fail(i, "%d bytes, manifest committed %d (torn commit?)", len(raw), rm.Bytes)
		}
		if sum := crc32.ChecksumIEEE(raw); sum != rm.CRC32 {
			return fail(i, "CRC %08x, manifest committed %08x (stale or torn image)", sum, rm.CRC32)
		}
		run, err := storage.ParseRun(raw)
		if err != nil {
			return fail(i, "%v", err)
		}
		if disk == nil {
			b, err := media(run.PageSize)
			if err != nil {
				return fail(i, "%v", err)
			}
			disk = storage.NewDiskOn(b, cost)
		}
		if err := disk.ApplyRun(run); err != nil {
			return fail(i, "%v", err)
		}
	}
	if disk.NumPages() != m.AllocatedPages {
		return fail(len(m.Runs)-1, "%d pages after deltas, manifest committed %d", disk.NumPages(), m.AllocatedPages)
	}
	return disk, -1, nil
}

// readManifest loads and structurally verifies manifest.json (parse,
// version, self-checksum, run list) without touching the runs.
func readManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDatabase, err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrBadDatabase, err)
	}
	if m.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("%w: format version %d (want %d)", ErrBadDatabase, m.FormatVersion, FormatVersion)
	}
	sum, err := m.computeChecksum()
	if err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrBadDatabase, err)
	}
	if sum != m.Checksum {
		return nil, fmt.Errorf("%w: manifest checksum %08x, stored %08x", ErrBadDatabase, sum, m.Checksum)
	}
	if len(m.Runs) == 0 || m.Runs[0].Name != imageName {
		return nil, fmt.Errorf("%w: manifest: run list does not start at %s", ErrBadDatabase, imageName)
	}
	return &m, nil
}

// validateLayout cross-checks every layout pointer in the manifest
// against the image's allocated page count before any of them is
// dereferenced.
func validateLayout(m *Manifest, disk *storage.Disk) error {
	num := disk.NumPages()
	check := func(what string, start storage.PageID, pages int) error {
		if start == storage.NilPage && pages == 0 {
			return nil
		}
		if start < 0 || pages < 0 || int64(start)+int64(pages) > num {
			return fmt.Errorf("%w: %s pages [%d, %d) exceed image (%d pages)",
				ErrBadDatabase, what, start, int64(start)+int64(pages), num)
		}
		return nil
	}
	pagesFor := func(bytes int64) int { return disk.PagesFor(bytes) }

	if m.Tree.NumNodes < 1 || m.Tree.NodeStride < 1 {
		return fmt.Errorf("%w: tree has %d nodes, stride %d", ErrBadDatabase, m.Tree.NumNodes, m.Tree.NodeStride)
	}
	if err := check("node records", m.Tree.NodePageBase, m.Tree.NumNodes*m.Tree.NodeStride); err != nil {
		return err
	}
	for obj, chain := range m.Tree.ObjExtents {
		for lvl, ext := range chain {
			if err := check(fmt.Sprintf("object %d LoD %d", obj, lvl), ext.Start, pagesFor(ext.NominalBytes)); err != nil {
				return err
			}
		}
	}
	ranges, err := m.Layout.PageRanges(m.Tree.Grid.NX*m.Tree.Grid.NY, pagesFor)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadDatabase, err)
	}
	for _, r := range ranges {
		if err := check(r.What, r.Start, r.Pages); err != nil {
			return err
		}
	}
	return nil
}

// QuarantineFile is the JSON document of the quarantine.json sidecar.
type QuarantineFile struct {
	// Pages lists disk pages parked by fsck -repair: reads of them fail
	// fast with a CorruptError instead of decoding garbage, which
	// degraded-mode traversal absorbs.
	Pages []storage.PageID
}

// applyQuarantine loads the optional quarantine sidecar and parks its
// pages on the freshly opened disk. A missing file is the common case and
// means nothing is parked.
func applyQuarantine(dir string, disk *storage.Disk) error {
	raw, err := os.ReadFile(filepath.Join(dir, quarantineName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadDatabase, err)
	}
	var q QuarantineFile
	if err := json.Unmarshal(raw, &q); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBadDatabase, quarantineName, err)
	}
	num := disk.NumPages()
	for _, id := range q.Pages {
		if id < 0 || int64(id) >= num {
			return fmt.Errorf("%w: %s: page %d outside image (%d pages)", ErrBadDatabase, quarantineName, id, num)
		}
		disk.Quarantine(id)
	}
	return nil
}

// writeQuarantine merges pages into the quarantine sidecar (creating it
// if absent) and writes it atomically. The merged, sorted page list is
// returned.
func writeQuarantine(dir string, pages []storage.PageID) ([]storage.PageID, error) {
	seen := map[storage.PageID]bool{}
	var q QuarantineFile
	if raw, err := os.ReadFile(filepath.Join(dir, quarantineName)); err == nil {
		// A malformed existing sidecar is simply replaced — it carries
		// derived damage records, not primary data.
		_ = json.Unmarshal(raw, &q)
	}
	merged := make([]storage.PageID, 0, len(q.Pages)+len(pages))
	for _, list := range [][]storage.PageID{q.Pages, pages} {
		for _, id := range list {
			if !seen[id] {
				seen[id] = true
				merged = append(merged, id)
			}
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	raw, err := json.MarshalIndent(&QuarantineFile{Pages: merged}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("dbfile: %s: %w", quarantineName, err)
	}
	if err := writeFileAtomic(dir, quarantineName, "quarantine-tmp", func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	}); err != nil {
		return nil, err
	}
	return merged, nil
}
