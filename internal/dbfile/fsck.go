package dbfile

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/storage"
	"repro/internal/vstore"
)

// FsckReport is the outcome of checking one database directory.
type FsckReport struct {
	Dir string
	// ManifestOK: manifest.json exists, parses, has the right format
	// version and a valid self-checksum.
	ManifestOK bool
	// ImageOK: every committed page run — disk.img, then each epoch's
	// epoch-N.img — exists, matches the manifest's committed size and
	// CRC, parses (internal checksum included) and chains onto the one
	// before it.
	ImageOK bool
	// LayoutOK: every layout pointer in the manifest stays inside the
	// image.
	LayoutOK bool
	// CodecOK: every codec unit of the layout decodes and passes its
	// CRC (pages already parked in quarantine.json are excused — they
	// are known damage, not new damage). Trivially true for raw-layout
	// databases.
	CodecOK bool
	// BadCodecPages lists the disk pages covered by codec units that
	// failed validation, deduplicated and sorted; Repair parks them in
	// quarantine.json.
	BadCodecPages []storage.PageID
	// BadDeltas lists committed epoch runs that failed verification
	// (missing, size/CRC mismatch, or broken chaining); Repair
	// quarantines them together with the manifest that pins them.
	BadDeltas []string
	// Problems describes each failed check, in check order.
	Problems []string
	// Stray lists leftover temporary files from interrupted saves and
	// commits, epoch run files no manifest references (the residue of
	// a crash between an epoch's run rename and its manifest rename, or
	// of a Save compaction), and page files other than pages.dat
	// (per-shard copies left by releases that made them).
	Stray []string
	// Derived lists regenerable artifacts of a file-backed open — the
	// pages.dat page file. It is rebuilt from the page runs on every
	// OpenWith, carries no committed state, and is deliberately
	// neither damage nor Stray (Repair leaves it alone).
	Derived []string
	// Epoch, OpsLogged and DeltasApplied summarize the dynamic-scene
	// state of an intact manifest: the committed epoch counter, the op
	// log length, and how many epoch runs follow disk.img.
	Epoch         int
	OpsLogged     int
	DeltasApplied int
}

// Intact reports whether the database passed every check (stray temp
// files alone do not make a database damaged — a crash before the commit
// point leaves them next to a perfectly good previous version).
func (r *FsckReport) Intact() bool {
	return r.ManifestOK && r.ImageOK && r.LayoutOK && r.CodecOK
}

func (r *FsckReport) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Fsck checks a database directory without fully opening it: manifest
// parse + checksum, every page run's size/CRC (file-level and internal)
// and chaining, and layout pointer validation. It is read-only. The
// returned error covers only inability to inspect the directory itself,
// never a damaged database — damage is reported in the FsckReport.
func Fsck(dir string) (*FsckReport, error) {
	rep := &FsckReport{Dir: dir}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("dbfile: fsck: %w", err)
	}
	var epochFiles []string
	for _, e := range entries {
		name := e.Name()
		if name == PagesFileName {
			rep.Derived = append(rep.Derived, name)
			continue
		}
		if strings.HasSuffix(name, ".tmp") || strings.HasPrefix(name, PagesFileName+".") {
			rep.Stray = append(rep.Stray, name)
		}
		if strings.HasPrefix(name, deltaPrefix) && strings.HasSuffix(name, deltaSuffix) {
			epochFiles = append(epochFiles, name)
		}
	}

	m, err := readManifest(dir)
	if err != nil {
		rep.problemf("manifest: %v", err)
		// With no manifest to reference them, every epoch run is
		// garbage from an interrupted commit.
		rep.Stray = append(rep.Stray, epochFiles...)
		return rep, nil
	}
	rep.ManifestOK = true
	rep.Epoch = m.Epoch
	rep.OpsLogged = len(m.Ops)
	rep.DeltasApplied = len(m.Runs) - 1
	referenced := map[string]bool{}
	for _, rm := range m.Runs {
		referenced[rm.Name] = true
	}
	for _, name := range epochFiles {
		if !referenced[name] {
			rep.Stray = append(rep.Stray, name)
		}
	}

	disk, bad, err := loadDisk(dir, m, memMedia, storage.DefaultCostModel())
	if err != nil {
		rep.problemf("%v", err)
		if bad > 0 {
			rep.BadDeltas = append(rep.BadDeltas, m.Runs[bad].Name)
		}
		return rep, nil
	}
	rep.ImageOK = true

	if err := validateLayout(m, disk); err != nil {
		rep.problemf("layout: %v", err)
		return rep, nil
	}
	rep.LayoutOK = true

	checkCodec(dir, m, disk, rep)
	return rep, nil
}

// checkCodec walks every codec unit of the database's layout through
// the unmetered peek path, recording failed units' pages and problems in
// rep. Pages already parked by quarantine.json are applied first so
// known (repaired) damage is not re-reported — a repaired database
// comes back intact.
func checkCodec(dir string, m *Manifest, disk *storage.Disk, rep *FsckReport) {
	if err := applyQuarantine(dir, disk); err != nil {
		rep.problemf("codec: %v", err)
		return
	}
	grid, err := m.Tree.Grid.Grid()
	if err != nil {
		rep.problemf("codec: grid: %v", err)
		return
	}
	l, err := vstore.Open(disk, grid, m.Layout)
	if err != nil {
		rep.problemf("codec: open %v: %v", m.Layout.Scheme, err)
		return
	}
	bad, problems := l.CodecCheck()
	rep.Problems = append(rep.Problems, problems...)
	rep.BadCodecPages = bad
	sort.Slice(rep.BadCodecPages, func(i, j int) bool { return rep.BadCodecPages[i] < rep.BadCodecPages[j] })
	rep.CodecOK = len(problems) == 0
}

// QuarantineDirName is where Repair moves damaged artifacts, inside the
// database directory.
const QuarantineDirName = "quarantine"

// Repair moves the damaged artifacts named by rep — plus any stray temp
// files — into dir/quarantine/, so a subsequent Save starts from a clean
// directory while nothing is destroyed. Codec-level damage is repaired
// differently: the failing pages are parked in quarantine.json, so Open
// fails their reads fast (degraded-mode traversal absorbs them) and a
// later Fsck excuses them as known damage. It returns the names of the
// files moved or written. Repair on an intact report only sweeps strays.
func Repair(dir string, rep *FsckReport) ([]string, error) {
	var doomed []string
	switch {
	case !rep.ManifestOK:
		doomed = append(doomed, manifestName)
	case !rep.ImageOK && len(rep.BadDeltas) > 0:
		// Run 0 checked out but a committed epoch run did not: disk.img
		// is fine, the manifest that pins the bad run is not.
		doomed = append(doomed, manifestName)
		doomed = append(doomed, rep.BadDeltas...)
	case !rep.ImageOK:
		doomed = append(doomed, imageName)
	case !rep.LayoutOK:
		// Manifest and image each check out alone but disagree on layout:
		// both are suspect.
		doomed = append(doomed, manifestName, imageName)
	}
	doomed = append(doomed, rep.Stray...)

	var written []string
	if rep.ManifestOK && rep.ImageOK && rep.LayoutOK && len(rep.BadCodecPages) > 0 {
		if _, err := writeQuarantine(dir, rep.BadCodecPages); err != nil {
			return nil, err
		}
		written = append(written, quarantineName)
	}

	moved := written
	for _, name := range doomed {
		src := filepath.Join(dir, name)
		if _, err := os.Stat(src); err != nil {
			continue // already absent — nothing to quarantine
		}
		qdir := filepath.Join(dir, QuarantineDirName)
		if err := os.MkdirAll(qdir, 0o755); err != nil {
			return moved, fmt.Errorf("dbfile: repair: %w", err)
		}
		if err := os.Rename(src, filepath.Join(qdir, name)); err != nil {
			return moved, fmt.Errorf("dbfile: repair: %w", err)
		}
		moved = append(moved, name)
	}
	if len(moved) > 0 {
		if err := syncDir(dir); err != nil {
			return moved, err
		}
	}
	return moved, nil
}
