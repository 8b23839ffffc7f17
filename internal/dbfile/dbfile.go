// Package dbfile persists a built HDoV database to a directory on the
// real filesystem and reopens it: the paper's precomputation (R-tree
// construction, internal-LoD generation, per-cell DoV evaluation, V-page
// layout) takes orders of magnitude longer than a query session, so a
// production deployment builds once and ships the files.
//
// A database directory holds two files, plus one per committed epoch:
//
//	manifest.json — dataset parameters and every layout pointer needed to
//	                reattach the tree and the one V-page layout the
//	                database serves (JSON, human-inspectable, checksummed)
//	disk.img      — the simulated disk's pages (binary, checksummed)
//	epoch-N.img   — the pages appended by incremental update epoch N
//	                (binary, checksummed; absent on static databases)
//
// The scene's meshes are not stored twice: the city regenerates
// deterministically from its CityParams (plus, for dynamic scenes, a
// replay of the manifest's op log), and payload meshes live in the disk
// image.
//
// # Crash safety
//
// Save is atomic at the manifest rename: the image is written to a
// temporary file, fsynced and renamed into place first; the manifest —
// which embeds the image's byte size and CRC and carries its own
// checksum — is written, fsynced and renamed last. A crash at any write
// boundary leaves either the old database intact or a directory with no
// (or a stale) manifest; Open cross-checks manifest checksum, image size,
// and image CRC, so every torn state is rejected with ErrBadDatabase.
//
// CommitEpoch extends the same protocol to incremental updates: the
// epoch's appended pages are committed as an epoch-N.img delta (tmp +
// fsync + rename), and only then is the manifest — which pins every
// delta's size and CRC and carries the new op log — renamed into place.
// A crash before the manifest rename leaves the previous epoch fully
// intact (the unreferenced delta file is garbage fsck sweeps); a crash
// after it leaves the new epoch committed. There is no reachable torn
// state.
package dbfile

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
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
	// three plus the naive baseline.
	FormatVersion = 5
	manifestName  = "manifest.json"
	imageName     = "disk.img"
	// deltaPrefix/deltaSuffix frame epoch delta file names (epoch-N.img).
	deltaPrefix = "epoch-"
	deltaSuffix = ".img"
	// quarantineName is the optional page-quarantine sidecar: disk pages
	// fsck found codec-invalid, parked so queries fail fast (and degrade)
	// on them instead of re-decoding garbage.
	quarantineName = "quarantine.json"
)

// PagesFileName is the page file a file-backed open materializes inside
// the database directory. It is derived state — rebuilt from disk.img and
// the delta chain on every OpenWith — never part of the commit protocol,
// so fsck classifies it as Derived, not Stray.
const PagesFileName = "pages.dat"

// Manifest is the JSON document describing a saved database.
type Manifest struct {
	FormatVersion int
	City          scene.CityParams
	Tree          core.TreeManifest
	Layout        vstore.Manifest

	// Epoch counts committed incremental update epochs; 0 is a freshly
	// built (or Save-compacted) database. Ops is the dynamic-scene op
	// log: the scene is reconstructed as Generate(City) + Replay(Ops).
	Epoch int        `json:",omitempty"`
	Ops   []scene.Op `json:",omitempty"`
	// Deltas lists the epoch delta images applied on top of disk.img, in
	// commit order; AllocatedPages is the disk's total allocation after
	// all of them — the watermark the next epoch's delta starts at. Save
	// compacts: a full image, no deltas.
	Deltas         []DeltaManifest `json:",omitempty"`
	AllocatedPages int64

	// ImageBytes and ImageCRC32 pin the disk.img this manifest commits:
	// a manifest renamed into place next to a stale or torn image fails
	// the cross-check.
	ImageBytes int64
	ImageCRC32 uint32
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

// DeltaManifest pins one committed epoch delta file: name, byte size and
// file-level CRC, the same cross-check ImageBytes/ImageCRC32 give the
// base image.
type DeltaManifest struct {
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

// crashPoint aborts Save at a named write boundary (crash-injection
// tests). Empty in production.
var crashPoint string

// errCrash marks an injected crash.
var errCrash = errors.New("dbfile: injected crash")

func crashAt(stage string) error {
	if crashPoint == stage {
		return fmt.Errorf("%w at %s", errCrash, stage)
	}
	return nil
}

// Save writes the database to dir (created if absent). The write order —
// image first, checksummed manifest renamed into place last — makes the
// manifest rename the commit point; a crash anywhere before it leaves the
// previous database state (or a rejectable partial directory) behind.
func Save(dir string, db *Database) error {
	if db == nil || db.Tree == nil || db.Disk == nil || db.Layout == nil {
		return fmt.Errorf("dbfile: save: incomplete database")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dbfile: %w", err)
	}

	imgBytes, imgCRC, err := writeImage(dir, db.Disk)
	if err != nil {
		return err
	}
	// Flush the live media before the manifest rename declares the save
	// committed: on a file-backed disk this fsyncs pages.dat, so the state
	// the image snapshotted is also durable in the page file (a no-op on
	// simulated media).
	if err := db.Disk.Sync(); err != nil {
		return fmt.Errorf("dbfile: save: sync media: %w", err)
	}

	m := Manifest{
		FormatVersion:  FormatVersion,
		City:           db.Scene.Params,
		Tree:           db.Tree.Manifest(),
		Layout:         db.Layout.LayoutManifest(),
		Epoch:          db.Epoch,
		Ops:            db.Ops,
		AllocatedPages: db.Disk.NumPages(),
		ImageBytes:     imgBytes,
		ImageCRC32:     imgCRC,
	}
	return commitManifest(dir, &m, "manifest-tmp")
}

// commitManifest seals, serializes and atomically installs a manifest.
func commitManifest(dir string, m *Manifest, stage string) error {
	if err := m.Seal(); err != nil {
		return fmt.Errorf("dbfile: manifest: %w", err)
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("dbfile: manifest: %w", err)
	}
	if err := writeFileAtomic(dir, manifestName, raw, stage); err != nil {
		return err
	}
	return syncDir(dir)
}

// DeltaFileName returns the file name of epoch n's delta image.
func DeltaFileName(n int) string {
	return fmt.Sprintf("%s%d%s", deltaPrefix, n, deltaSuffix)
}

// CommitEpoch commits one incremental update epoch to an existing
// database directory: the pages the update appended (everything past the
// previously committed allocation watermark) are written as an epoch
// delta image, then the manifest — carrying the new layout pointers, the
// extended op log and the delta's size and CRC — is atomically renamed
// into place. The manifest rename is the commit point: a crash anywhere
// before it leaves the previous epoch intact, with at worst an
// unreferenced delta or temp file for fsck to sweep.
//
// The db must hold the post-update state (new tree, schemes, op log);
// CommitEpoch derives the epoch number from the directory and returns it.
func CommitEpoch(dir string, db *Database) (int, error) {
	if db == nil || db.Tree == nil || db.Disk == nil || db.Layout == nil {
		return 0, fmt.Errorf("dbfile: commit: incomplete database")
	}
	prev, err := readManifest(dir)
	if err != nil {
		return 0, fmt.Errorf("dbfile: commit: %w", err)
	}
	if len(db.Ops) < len(prev.Ops) {
		return 0, fmt.Errorf("dbfile: commit: op log shrank (%d < %d committed)", len(db.Ops), len(prev.Ops))
	}
	watermark := storage.PageID(prev.AllocatedPages)
	if db.Disk.NumPages() < prev.AllocatedPages {
		return 0, fmt.Errorf("dbfile: commit: disk has %d pages, %d committed (wrong directory?)",
			db.Disk.NumPages(), prev.AllocatedPages)
	}
	epoch := prev.Epoch + 1
	name := DeltaFileName(epoch)

	// Delta image first: tmp + fsync + rename, like the base image.
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("dbfile: delta: %w", err)
	}
	h := crc32.NewIEEE()
	n, err := db.Disk.WriteDeltaTo(io.MultiWriter(f, h), watermark)
	if err != nil {
		f.Close()
		return 0, fmt.Errorf("dbfile: delta: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, fmt.Errorf("dbfile: delta: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("dbfile: delta: %w", err)
	}
	if err := crashAt("epoch-tmp"); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return 0, fmt.Errorf("dbfile: delta: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return 0, err
	}
	if err := crashAt("epoch-rename"); err != nil {
		return 0, err
	}

	// Flush the live media before the commit point, mirroring Save: the
	// epoch's appended pages are durable in a file-backed page file before
	// the manifest that references them lands.
	if err := db.Disk.Sync(); err != nil {
		return 0, fmt.Errorf("dbfile: commit: sync media: %w", err)
	}

	// Manifest last — its rename commits the epoch.
	m := Manifest{
		FormatVersion:  FormatVersion,
		City:           db.Scene.Params,
		Tree:           db.Tree.Manifest(),
		Layout:         db.Layout.LayoutManifest(),
		Epoch:          epoch,
		Ops:            db.Ops,
		Deltas:         append(append([]DeltaManifest(nil), prev.Deltas...), DeltaManifest{Name: name, Bytes: n, CRC32: h.Sum32()}),
		AllocatedPages: db.Disk.NumPages(),
		ImageBytes:     prev.ImageBytes,
		ImageCRC32:     prev.ImageCRC32,
	}
	if err := commitManifest(dir, &m, "epoch-manifest-tmp"); err != nil {
		return 0, err
	}
	if err := crashAt("epoch-manifest-rename"); err != nil {
		return 0, err
	}
	return epoch, nil
}

// writeImage writes disk.img via a temporary file and atomic rename,
// returning the byte count and CRC of what landed on disk.
func writeImage(dir string, d *storage.Disk) (int64, uint32, error) {
	tmp := filepath.Join(dir, imageName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return 0, 0, fmt.Errorf("dbfile: image: %w", err)
	}
	h := crc32.NewIEEE()
	n, err := d.WriteTo(io.MultiWriter(f, h))
	if err != nil {
		f.Close()
		return 0, 0, fmt.Errorf("dbfile: image: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, 0, fmt.Errorf("dbfile: image: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, 0, fmt.Errorf("dbfile: image: %w", err)
	}
	if err := crashAt("image-tmp"); err != nil {
		return 0, 0, err
	}
	if err := os.Rename(tmp, filepath.Join(dir, imageName)); err != nil {
		return 0, 0, fmt.Errorf("dbfile: image: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return 0, 0, err
	}
	if err := crashAt("image-rename"); err != nil {
		return 0, 0, err
	}
	return n, h.Sum32(), nil
}

// writeFileAtomic writes name under dir via tmp-file + fsync + rename.
func writeFileAtomic(dir, name string, raw []byte, stage string) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("dbfile: %s: %w", name, err)
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return fmt.Errorf("dbfile: %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("dbfile: %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("dbfile: %s: %w", name, err)
	}
	if err := crashAt(stage); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("dbfile: %s: %w", name, err)
	}
	return nil
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
	// FileBacked materializes the committed image and delta chain into a
	// page file (PagesFileName) inside the database directory and serves
	// reads through the real-file backend — mmap window, vectored preads,
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
	// OSync opens the page file O_SYNC, making every page write durable
	// when it returns. Meaningful only with FileBacked.
	OSync bool
	// Cost overrides the simulator cost model the disk is opened with
	// (e.g. one fitted by hardware calibration). Nil keeps the default.
	Cost *storage.CostModel
}

// Open reopens a database directory saved by Save onto the simulated
// in-memory disk. The manifest's own checksum, the image's size and CRC,
// and every layout pointer are verified before anything is trusted; the
// city is regenerated from its parameters and tree and scheme layouts are
// revalidated against the image.
func Open(dir string) (*Database, error) {
	return OpenWith(dir, OpenOptions{})
}

// OpenWith is Open with explicit media selection: the same validation and
// reattachment, onto either the simulated disk or a real page file inside
// the database directory (see OpenOptions.FileBacked).
func OpenWith(dir string, opts OpenOptions) (*Database, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}

	raw, err := os.ReadFile(filepath.Join(dir, imageName))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDatabase, err)
	}
	if int64(len(raw)) != m.ImageBytes {
		return nil, fmt.Errorf("%w: image is %d bytes, manifest committed %d (torn save?)",
			ErrBadDatabase, len(raw), m.ImageBytes)
	}
	if sum := crc32.ChecksumIEEE(raw); sum != m.ImageCRC32 {
		return nil, fmt.Errorf("%w: image CRC %08x, manifest committed %08x (stale or torn image)",
			ErrBadDatabase, sum, m.ImageCRC32)
	}
	cost := storage.DefaultCostModel()
	if opts.Cost != nil {
		cost = *opts.Cost
	}
	var newBackend func(pageSize int, pages int64) (storage.Backend, error)
	if opts.FileBacked {
		newBackend = func(pageSize int, pages int64) (storage.Backend, error) {
			return filestore.Create(filepath.Join(dir, PagesFileName), pageSize,
				filestore.Options{NoMmap: opts.NoMmap, OSync: opts.OSync})
		}
	}
	disk, err := storage.ReadImageInto(bytes.NewReader(raw), cost, newBackend)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDatabase, err)
	}
	// From here on the disk may own real resources (page file, mmap
	// window); every validation failure must release them.
	fail := func(err error) (*Database, error) {
		_ = disk.Close()
		return nil, err
	}
	for _, dm := range m.Deltas {
		if err := applyDeltaFile(dir, dm, disk); err != nil {
			return fail(err)
		}
	}
	if disk.NumPages() != m.AllocatedPages {
		return fail(fmt.Errorf("%w: %d pages after deltas, manifest committed %d",
			ErrBadDatabase, disk.NumPages(), m.AllocatedPages))
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

// applyDeltaFile verifies one committed epoch delta against its manifest
// pin (size, file CRC) and applies it to the disk; the delta's own
// checksum and chaining watermark are enforced by storage.ApplyDelta.
func applyDeltaFile(dir string, dm DeltaManifest, disk *storage.Disk) error {
	raw, err := os.ReadFile(filepath.Join(dir, dm.Name))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadDatabase, err)
	}
	if int64(len(raw)) != dm.Bytes {
		return fmt.Errorf("%w: delta %s is %d bytes, manifest committed %d (torn commit?)",
			ErrBadDatabase, dm.Name, len(raw), dm.Bytes)
	}
	if sum := crc32.ChecksumIEEE(raw); sum != dm.CRC32 {
		return fmt.Errorf("%w: delta %s CRC %08x, manifest committed %08x",
			ErrBadDatabase, dm.Name, sum, dm.CRC32)
	}
	if err := disk.ApplyDelta(bytes.NewReader(raw)); err != nil {
		return fmt.Errorf("%w: delta %s: %v", ErrBadDatabase, dm.Name, err)
	}
	return nil
}

// readManifest loads and structurally verifies manifest.json (parse,
// version, self-checksum) without touching the image.
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
	if err := writeFileAtomic(dir, quarantineName, raw, "quarantine-tmp"); err != nil {
		return nil, err
	}
	return merged, syncDir(dir)
}
