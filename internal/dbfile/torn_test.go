package dbfile_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dbfile"
	"repro/internal/storage"
	"repro/internal/testenv"
	"repro/internal/vstore"
)

// TestOpenTruncatedImage: a disk.img cut short (torn write, full disk)
// must be rejected, never half-opened.
func TestOpenTruncatedImage(t *testing.T) {
	dir, _ := saveFixture(t)
	img := filepath.Join(dir, "disk.img")
	raw, err := os.ReadFile(img)
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []int{0, 1, len(raw) / 2, len(raw) - 1} {
		if err := os.WriteFile(img, raw[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := dbfile.Open(dir); !errors.Is(err, dbfile.ErrBadDatabase) {
			t.Fatalf("truncated to %d bytes: err = %v, want ErrBadDatabase", keep, err)
		}
	}
}

// TestOpenMissingManifest: an image without its manifest is not a
// database.
func TestOpenMissingManifest(t *testing.T) {
	dir, _ := saveFixture(t)
	if err := os.Remove(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := dbfile.Open(dir); !errors.Is(err, dbfile.ErrBadDatabase) {
		t.Fatalf("err = %v, want ErrBadDatabase", err)
	}
}

// rewriteManifest loads the fixture manifest, applies mutate, reseals the
// checksum (unless the test wants it stale) and writes it back.
func rewriteManifest(t *testing.T, dir string, reseal bool, mutate func(*dbfile.Manifest)) {
	t.Helper()
	path := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m dbfile.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	mutate(&m)
	if reseal {
		if err := m.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	out, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenLayoutPointersOutOfRange: manifests whose layout pointers point
// past the image (resealed, so only deep validation can catch them) are
// rejected with a layout diagnostic.
func TestOpenLayoutPointersOutOfRange(t *testing.T) {
	mutations := map[string]func(*dbfile.Manifest){
		"node base": func(m *dbfile.Manifest) {
			m.Tree.NodePageBase = storage.PageID(1 << 40)
		},
		"node count": func(m *dbfile.Manifest) {
			m.Tree.NumNodes = 1 << 30
		},
		"object extent": func(m *dbfile.Manifest) {
			m.Tree.ObjExtents[0][0].Start = storage.PageID(1 << 40)
		},
		"vertical segments": func(m *dbfile.Manifest) {
			m.Layout.Vertical.SegBase = storage.PageID(1 << 40)
		},
	}
	for name, mutate := range mutations {
		dir, _ := saveLayoutFixture(t, testenv.Small(), vstore.SchemeVertical)
		rewriteManifest(t, dir, true, mutate)
		_, err := dbfile.Open(dir)
		if !errors.Is(err, dbfile.ErrBadDatabase) {
			t.Fatalf("%s: err = %v, want ErrBadDatabase", name, err)
		}
		if !strings.Contains(err.Error(), "exceed") && !strings.Contains(err.Error(), "stride") {
			t.Fatalf("%s: missing layout diagnostic: %v", name, err)
		}
	}
}

// TestOpenManifestChecksumMismatch: a manifest edited without resealing —
// bit rot or a hand edit — is rejected before anything else is trusted.
func TestOpenManifestChecksumMismatch(t *testing.T) {
	dir, _ := saveFixture(t)
	rewriteManifest(t, dir, false, func(m *dbfile.Manifest) {
		m.Tree.SMeasured += 0.001
	})
	_, err := dbfile.Open(dir)
	if !errors.Is(err, dbfile.ErrBadDatabase) {
		t.Fatalf("err = %v, want ErrBadDatabase", err)
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("missing checksum diagnostic: %v", err)
	}
}

// TestOpenStaleManifestImageMismatch: an old (valid, sealed) manifest next
// to an image it did not commit fails the size/CRC cross-check.
func TestOpenStaleManifestImageMismatch(t *testing.T) {
	dir, _ := saveFixture(t)
	img := filepath.Join(dir, "disk.img")
	raw, err := os.ReadFile(img)
	if err != nil {
		t.Fatal(err)
	}
	// Same length, different content: only the CRC cross-check can tell.
	raw[len(raw)/3] ^= 0x01
	if err := os.WriteFile(img, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = dbfile.Open(dir)
	if !errors.Is(err, dbfile.ErrBadDatabase) {
		t.Fatalf("err = %v, want ErrBadDatabase", err)
	}
	if !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("missing CRC diagnostic: %v", err)
	}
}

// TestFsckClassifiesIntactVsDamaged: Fsck says intact exactly when Open
// would accept.
func TestFsckClassifiesIntactVsDamaged(t *testing.T) {
	dir, _ := saveFixture(t)
	rep, err := dbfile.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Intact() || len(rep.Problems) != 0 {
		t.Fatalf("intact database reported damaged: %+v", rep)
	}

	img := filepath.Join(dir, "disk.img")
	raw, err := os.ReadFile(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(img, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = dbfile.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Intact() || rep.ImageOK || !rep.ManifestOK {
		t.Fatalf("truncated image misclassified: %+v", rep)
	}
	moved, err := dbfile.Repair(dir, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != 1 || moved[0] != "disk.img" {
		t.Fatalf("repair moved %v, want just disk.img", moved)
	}
	if _, err := os.Stat(filepath.Join(dir, dbfile.QuarantineDirName, "disk.img")); err != nil {
		t.Fatalf("image not quarantined: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatalf("healthy manifest was removed: %v", err)
	}
}

// TestOpenLayoutSchemeMismatch: a resealed manifest whose layout is
// tagged with another scheme, or that is still at format version 4, is
// rejected by Open, and fsck reports the mismatch as layout damage.
func TestOpenLayoutSchemeMismatch(t *testing.T) {
	dir, _ := saveFixture(t)
	rewriteManifest(t, dir, true, func(m *dbfile.Manifest) {
		m.Layout.Scheme = vstore.SchemeHorizontal
	})
	if _, err := dbfile.Open(dir); !errors.Is(err, dbfile.ErrBadDatabase) {
		t.Fatalf("mislabelled layout: err = %v, want ErrBadDatabase", err)
	}
	rep, err := dbfile.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ManifestOK || !rep.ImageOK || rep.LayoutOK {
		t.Fatalf("mislabelled layout not reported as layout damage: %+v", rep)
	}

	dir, _ = saveFixture(t)
	rewriteManifest(t, dir, true, func(m *dbfile.Manifest) { m.FormatVersion = 4 })
	_, err = dbfile.Open(dir)
	if !errors.Is(err, dbfile.ErrBadDatabase) || !strings.Contains(err.Error(), "format version 4") {
		t.Fatalf("version-4 manifest: err = %v, want ErrBadDatabase format version error", err)
	}
}

// openFDs counts the process's open file descriptors; ok is false where
// /proc/self/fd is absent.
func openFDs() (n int, ok bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	return len(ents), err == nil
}

// TestOpenAllocationMismatchReleasesPageFile: a manifest whose committed
// allocation disagrees with its image (resealed, so only the post-delta
// page count can tell) is rejected, and a file-backed open closes the
// page file it had already materialized.
func TestOpenAllocationMismatchReleasesPageFile(t *testing.T) {
	dir, _ := saveFixture(t)
	rewriteManifest(t, dir, true, func(m *dbfile.Manifest) {
		m.AllocatedPages++
	})
	before, ok := openFDs()
	if !ok {
		t.Skip("no /proc/self/fd to count descriptors")
	}
	_, err := dbfile.OpenWith(dir, dbfile.OpenOptions{FileBacked: true})
	if !errors.Is(err, dbfile.ErrBadDatabase) {
		t.Fatalf("err = %v, want ErrBadDatabase", err)
	}
	if !strings.Contains(err.Error(), "pages after deltas") {
		t.Fatalf("missing allocation diagnostic: %v", err)
	}
	if after, _ := openFDs(); after > before {
		t.Fatalf("failed open leaked %d descriptors", after-before)
	}
}
