package dbfile_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dbfile"
	"repro/internal/testenv"
	"repro/internal/vstore"
)

// codecConfig is the small test environment in the codec layout.
func codecConfig() testenv.Config {
	cfg := testenv.Small()
	cfg.Codec = true
	return cfg
}

// saveCodecFixture saves a vertical codec-layout database to a temp
// directory.
func saveCodecFixture(t *testing.T) (string, *testenv.Env) {
	t.Helper()
	return saveLayoutFixture(t, codecConfig(), vstore.SchemeVertical)
}

// TestFsckCodecIntact: an undamaged codec database passes every check,
// including the codec walk.
func TestFsckCodecIntact(t *testing.T) {
	dir, _ := saveCodecFixture(t)
	rep, err := dbfile.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Intact() || !rep.CodecOK {
		t.Fatalf("codec database not intact: %+v", rep)
	}
	if len(rep.BadCodecPages) != 0 {
		t.Fatalf("unexpected bad codec pages: %v", rep.BadCodecPages)
	}
}

// TestFsckCodecTamperAndRepair is the end-to-end damage story: corrupt a
// codec heap page inside a fully resealed image (manifest checksum, image
// CRC and layout all valid — only the codec walk can notice), verify fsck
// pins the damage to pages, repair by parking them in quarantine.json,
// and verify the repaired database reopens and fscks intact.
func TestFsckCodecTamperAndRepair(t *testing.T) {
	dir, _ := saveCodecFixture(t)

	// Reopen, flip bytes in the middle of the vertical codec heap, and
	// re-save: Save recomputes the image CRC and manifest checksum, so
	// the damage is sealed inside an otherwise valid database.
	db, err := dbfile.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := db.Layout.LayoutManifest().Vertical
	if m == nil || !m.Codec {
		t.Fatal("fixture is not codec-built")
	}
	page, err := db.Disk.PeekBytes(m.HeapBase, db.Disk.PageSize())
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), page...)
	for i := 2; i < 10 && i < len(tampered); i++ {
		tampered[i] ^= 0xA5
	}
	if err := db.Disk.WritePage(m.HeapBase, tampered); err != nil {
		t.Fatal(err)
	}
	if err := dbfile.Save(dir, db); err != nil {
		t.Fatal(err)
	}

	rep, err := dbfile.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ManifestOK || !rep.ImageOK || !rep.LayoutOK {
		t.Fatalf("tamper should only break the codec level: %+v", rep)
	}
	if rep.CodecOK || rep.Intact() {
		t.Fatalf("codec damage not detected: %+v", rep)
	}
	if len(rep.BadCodecPages) == 0 || len(rep.Problems) == 0 {
		t.Fatalf("no pages or problems reported: %+v", rep)
	}

	moved, err := dbfile.Repair(dir, rep)
	if err != nil {
		t.Fatal(err)
	}
	foundSidecar := false
	for _, name := range moved {
		if name == "quarantine.json" {
			foundSidecar = true
		}
	}
	if !foundSidecar {
		t.Fatalf("repair did not write quarantine.json (moved: %v)", moved)
	}

	// The repaired database fscks intact: the parked pages are known
	// damage, excused by the codec walk.
	rep2, err := dbfile.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Intact() {
		t.Fatalf("repaired database still damaged: %+v", rep2)
	}

	// And it reopens, with the damaged pages quarantined on the live disk.
	got, err := dbfile.Open(dir)
	if err != nil {
		t.Fatalf("repaired database does not open: %v", err)
	}
	for _, id := range rep.BadCodecPages {
		if !got.Disk.IsQuarantined(id) {
			t.Fatalf("page %d not quarantined after reopen", id)
		}
	}
}

// TestOpenBadQuarantineSidecar: a malformed or out-of-range sidecar is
// rejected, not silently ignored.
func TestOpenBadQuarantineSidecar(t *testing.T) {
	dir, _ := saveCodecFixture(t)
	qpath := filepath.Join(dir, "quarantine.json")

	if err := os.WriteFile(qpath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dbfile.Open(dir); !errors.Is(err, dbfile.ErrBadDatabase) {
		t.Fatalf("malformed sidecar: got %v, want ErrBadDatabase", err)
	}

	if err := os.WriteFile(qpath, []byte(`{"Pages":[999999999]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dbfile.Open(dir); !errors.Is(err, dbfile.ErrBadDatabase) {
		t.Fatalf("out-of-range sidecar: got %v, want ErrBadDatabase", err)
	}

	if err := os.Remove(qpath); err != nil {
		t.Fatal(err)
	}
	if _, err := dbfile.Open(dir); err != nil {
		t.Fatalf("open after removing sidecar: %v", err)
	}
}

// TestCodecSaveOpenRoundTrip: a codec database of every scheme
// round-trips through Save and Open with its codec flag, size and V-page
// footprint intact.
func TestCodecSaveOpenRoundTrip(t *testing.T) {
	type footprinter interface{ VPageFootprint() (units, bytes int64) }
	for _, s := range []vstore.Scheme{vstore.SchemeHorizontal, vstore.SchemeVertical, vstore.SchemeIndexedVertical} {
		dir, env := saveLayoutFixture(t, codecConfig(), s)
		got, err := dbfile.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := envLayouts(env)[s]
		if got.Layout.Scheme() != s || !got.Layout.Codec() {
			t.Fatalf("%v: scheme or codec flag lost through save/open: %v codec=%v", s, got.Layout.Scheme(), got.Layout.Codec())
		}
		if got.Layout.SizeBytes() != want.SizeBytes() {
			t.Fatalf("%v: codec layout size changed through save/open", s)
		}
		wu, wb := want.(footprinter).VPageFootprint()
		gu, gb := got.Layout.(footprinter).VPageFootprint()
		if wu != gu || wb != gb {
			t.Fatalf("%v: footprint changed: (%d,%d) vs (%d,%d)", s, wu, wb, gu, gb)
		}
	}
}
