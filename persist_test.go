package hdov

import (
	"fmt"
	"testing"
)

// TestReopenKeepsSchemeAndCodec: Save + Open (simulated and file-backed)
// restores the layout the DB was built with, and every cell answers
// byte-identically — items, degradations and the light I/O the layout
// charges — before and after the round trip.
func TestReopenKeepsSchemeAndCodec(t *testing.T) {
	for _, codec := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Scene.Blocks = 2
		cfg.GridCells = 4
		cfg.DoVRays = 128
		cfg.Scene.NominalBytes = 4 << 20
		cfg.Codec = codec
		dbs, err := buildSchemes(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, db := range dbs {
			defer db.Close()
			want := reopenAnswers(t, db)
			dir := t.TempDir()
			if err := db.Save(dir); err != nil {
				t.Fatal(err)
			}
			for _, backend := range []BackendKind{BackendSim, BackendFile} {
				name := fmt.Sprintf("%v/codec=%v/%v", db.Scheme(), codec, backend)
				re, err := OpenWith(dir, StorageConfig{Backend: backend})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if re.Scheme() != db.Scheme() || re.cfg.Codec != codec {
					re.Close()
					t.Fatalf("%s: reopened as %v codec=%v", name, re.Scheme(), re.cfg.Codec)
				}
				got := reopenAnswers(t, re)
				re.Close()
				for c := range want {
					if got[c] != want[c] {
						t.Fatalf("%s: cell %d answer changed through save/open:\n got %s\nwant %s",
							name, c, got[c], want[c])
					}
				}
			}
		}
	}
}

// reopenAnswers renders every cell's answer from a fresh session.
func reopenAnswers(t *testing.T, db *DB) []string {
	t.Helper()
	s := db.NewSession()
	out := make([]string, db.NumCells())
	for c := range out {
		r, err := s.QueryCell(c, 0.002)
		if err != nil {
			t.Fatal(err)
		}
		out[c] = fmt.Sprintf("%slight=%d\n", publicFingerprint(r), r.LightIO)
		for _, dg := range r.Degradations {
			out[c] += fmt.Sprintf("%+v\n", dg)
		}
	}
	return out
}
