package vstore

import (
	"bytes"
	"encoding/json"
	"hash/crc64"
	"os"
	"testing"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/storage"
)

// goldenLayout is one entry of testdata/manifests.golden.json: the layout
// manifest a build of the fixture wrote, the disk pages it allocated and
// the CRC-64 (ECMA) of the whole disk image.
type goldenLayout struct {
	Manifest   json.RawMessage
	Pages      int64
	ImageCRC64 uint64
}

// TestManifestsPinned pins the on-disk layouts of all six scheme×codec
// combinations to the manifests and images committed in
// testdata/manifests.golden.json: a build of the fixture must write the
// same manifest and the same image bytes, and the committed manifest must
// reopen over that image and answer every (cell, node) with the fixture's
// V-data exactly. A layout change that would strand saved databases at
// the same format version fails here.
func TestManifestsPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/manifests.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]goldenLayout
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	vis := dyadicVisData(t, 60, 4, 4, 0.25, 3)
	n := 0
	for _, codec := range []bool{false, true} {
		for _, s := range []Scheme{SchemeIndexedVertical, SchemeVertical, SchemeHorizontal} {
			name := s.String()
			if codec {
				name += "+codec"
			}
			want, ok := golden[name]
			if !ok {
				t.Fatalf("%s: no golden entry", name)
			}
			n++
			d := storage.NewDisk(0, storage.DefaultCostModel())
			l, err := Build(d, vis, s, Options{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(l.LayoutManifest())
			if err != nil {
				t.Fatal(err)
			}
			var compact bytes.Buffer
			if err := json.Compact(&compact, want.Manifest); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, compact.Bytes()) {
				t.Errorf("%s: manifest\n%s\nwant\n%s", name, got, compact.Bytes())
			}
			tab := crc64.MakeTable(crc64.ECMA)
			var sum uint64
			for p := int64(0); p < d.NumPages(); p++ {
				b, err := d.PeekBytes(storage.PageID(p), d.PageSize())
				if err != nil {
					t.Fatal(err)
				}
				sum = crc64.Update(sum, tab, b)
			}
			if d.NumPages() != want.Pages || sum != want.ImageCRC64 {
				t.Errorf("%s: image of %d pages, CRC %d; want %d pages, CRC %d", name, d.NumPages(), sum, want.Pages, want.ImageCRC64)
			}

			var m Manifest
			if err := json.Unmarshal(want.Manifest, &m); err != nil {
				t.Fatal(err)
			}
			re, err := Open(d, vis.Grid, m)
			if err != nil {
				t.Fatalf("%s: golden manifest does not open: %v", name, err)
			}
			v := re.View(d.NewClient())
			for c := 0; c < vis.Grid.NumCells(); c++ {
				cell := cells.CellID(c)
				if err := v.SetCell(cell); err != nil {
					t.Fatal(err)
				}
				for id := 0; id < vis.NumNodes; id++ {
					vd, ok, err := v.NodeVD(core.NodeID(id), nil)
					wantVD := vis.PerCell[cell][id]
					if err != nil || ok != (wantVD != nil) || len(vd) != len(wantVD) {
						t.Fatalf("%s cell %d node %d: %d entries, ok %v, err %v; want %d", name, c, id, len(vd), ok, err, len(wantVD))
					}
					for i := range vd {
						if vd[i] != wantVD[i] {
							t.Fatalf("%s cell %d node %d entry %d: %+v, want %+v", name, c, id, i, vd[i], wantVD[i])
						}
					}
				}
			}
		}
	}
	if n != len(golden) {
		t.Fatalf("golden file has %d layouts, the test checked %d", len(golden), n)
	}
}
