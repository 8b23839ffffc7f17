package vstore

import (
	"testing"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/storage"
)

func manifestFixture(t *testing.T) (*storage.Disk, *cells.Grid, Layout, Layout, Layout) {
	t.Helper()
	vis := sparseVisData(t, 50, 4, 4, 0.3, 5)
	d := storage.NewDisk(0, storage.DefaultCostModel())
	h, err := Build(d, vis, SchemeHorizontal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := Build(d, vis, SchemeVertical, Options{})
	if err != nil {
		t.Fatal(err)
	}
	iv, err := Build(d, vis, SchemeIndexedVertical, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d, vis.Grid, h, v, iv
}

func TestManifestRoundTripsServeIdenticalVD(t *testing.T) {
	d, grid, h, v, iv := manifestFixture(t)
	h2, err := Open(d, grid, h.LayoutManifest())
	if err != nil {
		t.Fatal(err)
	}
	v2, err := Open(d, grid, v.LayoutManifest())
	if err != nil {
		t.Fatal(err)
	}
	iv2, err := Open(d, grid, iv.LayoutManifest())
	if err != nil {
		t.Fatal(err)
	}
	io := d.NewClient()
	pairs := []struct{ a, b core.VStore }{{h.View(io), h2.View(io)}, {v.View(io), v2.View(io)}, {iv.View(io), iv2.View(io)}}
	for _, pair := range pairs {
		for c := 0; c < grid.NumCells(); c++ {
			if err := pair.a.SetCell(cells.CellID(c)); err != nil {
				t.Fatal(err)
			}
			if err := pair.b.SetCell(cells.CellID(c)); err != nil {
				t.Fatal(err)
			}
			for id := 0; id < 50; id++ {
				va, oka, ea := pair.a.NodeVD(core.NodeID(id), nil)
				vb, okb, eb := pair.b.NodeVD(core.NodeID(id), nil)
				if (ea == nil) != (eb == nil) || oka != okb || len(va) != len(vb) {
					t.Fatalf("%s: reopened scheme diverges at cell %d node %d", pair.a.Name(), c, id)
				}
				for i := range va {
					if va[i] != vb[i] {
						t.Fatalf("%s: VD differs at cell %d node %d", pair.a.Name(), c, id)
					}
				}
			}
		}
		if pair.a.SizeBytes() != pair.b.SizeBytes() {
			t.Fatalf("%s: size changed across manifest round trip", pair.a.Name())
		}
	}
}

func TestManifestValidation(t *testing.T) {
	d, grid, h, v, iv := manifestFixture(t)

	badSlots := h.LayoutManifest()
	badSlots.Horizontal.Slots.SlotBytes = 0
	if _, err := Open(d, grid, badSlots); err == nil {
		t.Fatal("bad slot table accepted")
	}
	badH := h.LayoutManifest()
	badH.Horizontal.NumNodes = 0
	if _, err := Open(d, grid, badH); err == nil {
		t.Fatal("zero nodes accepted")
	}
	badV := v.LayoutManifest()
	badV.Vertical.SegPages = 0
	if _, err := Open(d, grid, badV); err == nil {
		t.Fatal("zero segment pages accepted")
	}
	badV2 := v.LayoutManifest()
	badV2.Vertical.VPageBytes = 1
	if _, err := Open(d, grid, badV2); err == nil {
		t.Fatal("tiny V-page accepted")
	}
	badIV := iv.LayoutManifest()
	badIV.Indexed.Dir = badIV.Indexed.Dir[:1]
	if _, err := Open(d, grid, badIV); err == nil {
		t.Fatal("directory/cell mismatch accepted")
	}
	badIV2 := iv.LayoutManifest()
	badIV2.Indexed.Slots.PerPage = -1
	if _, err := Open(d, grid, badIV2); err == nil {
		t.Fatal("negative per-page accepted")
	}
	// Names and flip counters exist for the reopened schemes too.
	iv2, err := Open(d, grid, iv.LayoutManifest())
	if err != nil {
		t.Fatal(err)
	}
	if iv2.Name() != "indexed-vertical" || iv2.View(d.NewClient()).(*flipCursor).Flips() != 0 {
		t.Fatal("reopened scheme metadata wrong")
	}
	v2, err := Open(d, grid, v.LayoutManifest())
	if err != nil {
		t.Fatal(err)
	}
	if v2.Name() != "vertical" || v2.View(d.NewClient()).(*flipCursor).Flips() != 0 {
		t.Fatal("reopened vertical metadata wrong")
	}
	_ = geom.V(0, 0, 0) // keep geom imported for fixture growth
}

// TestLayoutBuildOpen: Build lays out exactly the requested scheme, and
// Open over its LayoutManifest restores that scheme with the same
// footprint and V-data; a manifest whose scheme and layout disagree is
// refused.
func TestLayoutBuildOpen(t *testing.T) {
	vis := sparseVisData(t, 50, 4, 4, 0.3, 5)
	for _, codec := range []bool{false, true} {
		for _, s := range []Scheme{SchemeIndexedVertical, SchemeVertical, SchemeHorizontal} {
			d := storage.NewDisk(0, storage.DefaultCostModel())
			l, err := Build(d, vis, s, Options{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			m := l.LayoutManifest()
			if l.Scheme() != s || l.Name() != s.String() || m.Scheme != s || l.Codec() != codec {
				t.Fatalf("%v codec=%v: built %v (%s), manifest %v, codec=%v", s, codec, l.Scheme(), l.Name(), m.Scheme, l.Codec())
			}
			re, err := Open(d, vis.Grid, m)
			if err != nil {
				t.Fatal(err)
			}
			if re.Scheme() != s || re.SizeBytes() != l.SizeBytes() || re.Codec() != codec {
				t.Fatalf("%v codec=%v: reopened as %v, %d vs %d bytes", s, codec, re.Scheme(), re.SizeBytes(), l.SizeBytes())
			}
			lv, rv := l.View(d.NewClient()), re.View(d.NewClient())
			for c := 0; c < vis.Grid.NumCells(); c++ {
				if err := lv.SetCell(cells.CellID(c)); err != nil {
					t.Fatal(err)
				}
				if err := rv.SetCell(cells.CellID(c)); err != nil {
					t.Fatal(err)
				}
				for id := 0; id < 50; id++ {
					va, oka, ea := lv.NodeVD(core.NodeID(id), nil)
					vb, okb, eb := rv.NodeVD(core.NodeID(id), nil)
					if ea != nil || eb != nil || oka != okb || len(va) != len(vb) {
						t.Fatalf("%v: reopened layout diverges at cell %d node %d", s, c, id)
					}
					for i := range va {
						if va[i] != vb[i] {
							t.Fatalf("%v: reopened layout diverges at cell %d node %d entry %d", s, c, id, i)
						}
					}
				}
			}
			if _, err := m.PageRanges(vis.Grid.NumCells(), d.PagesFor); err != nil {
				t.Fatal(err)
			}
			bad := m
			bad.Scheme = (s + 1) % 3
			if _, err := Open(d, vis.Grid, bad); err == nil {
				t.Fatalf("%v: manifest relabelled %v opened", s, bad.Scheme)
			}
			if _, err := bad.PageRanges(vis.Grid.NumCells(), d.PagesFor); err == nil {
				t.Fatalf("%v: manifest relabelled %v listed page ranges", s, bad.Scheme)
			}
		}
	}
	if _, err := Build(storage.NewDisk(0, storage.DefaultCostModel()), vis, Scheme(7), Options{}); err == nil {
		t.Fatal("unknown scheme built")
	}
}
