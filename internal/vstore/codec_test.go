package vstore

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/storage"
)

// dyadicVisData fabricates a sparse visibility field whose DoV values are
// exact dyadic fractions (multiples of 2^-16), as the build-time
// quantizer produces: the codec packs these in quantized mode.
func dyadicVisData(t *testing.T, numNodes, nx, ny int, visibleFrac float64, seed int64) *core.VisData {
	t.Helper()
	vis := sparseVisData(t, numNodes, nx, ny, visibleFrac, seed)
	for _, perNode := range vis.PerCell {
		for _, vd := range perNode {
			for i := range vd {
				u := math.Round(math.Ldexp(vd[i].DoV, 16))
				if u < 1 {
					u = 1
				}
				vd[i].DoV = math.Ldexp(u, -16)
			}
		}
	}
	return vis
}

func TestCodecVPageUnitRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		vd   []core.VD
		mode byte // expected header mode byte
	}{
		{"quantized", []core.VD{{DoV: 0.5, NVO: 3}, {DoV: 0.001953125, NVO: 1}, {DoV: 0, NVO: 0}}, 9},
		{"raw64", []core.VD{{DoV: 0.1, NVO: 2}, {DoV: 1e-7, NVO: 9}}, codecModeRaw},
		{"single", []core.VD{{DoV: 0.25, NVO: 1}}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf, err := EncodeVPageC(tc.vd)
			if err != nil {
				t.Fatal(err)
			}
			if buf[2] != tc.mode {
				t.Fatalf("mode byte %02x, want %02x", buf[2], tc.mode)
			}
			got, err := DecodeVPageC(nil, buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.vd) {
				t.Fatalf("len %d, want %d", len(got), len(tc.vd))
			}
			for i := range tc.vd {
				if got[i] != tc.vd[i] {
					t.Fatalf("entry %d: %+v != %+v", i, got[i], tc.vd[i])
				}
			}
		})
	}

	// The empty unit decodes to nil — the scheme treats it as invisible.
	buf, err := EncodeVPageC(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeVPageC(nil, buf); got != nil || err != nil {
		t.Fatalf("empty unit: got %v, %v", got, err)
	}
}

// Quantized mode must round-trip any multiple of 2^-shift bit-exactly —
// the property the byte-identity guarantee rests on.
func TestCodecVPageQuantExactness(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		shift := uint(1 + r.Intn(40))
		n := 1 + r.Intn(20)
		vd := make([]core.VD, n)
		for i := range vd {
			vd[i] = core.VD{
				DoV: math.Ldexp(float64(1+r.Intn(1<<16)), -int(shift)),
				NVO: int32(r.Intn(1 << 20)),
			}
		}
		buf, err := EncodeVPageC(vd)
		if err != nil {
			t.Fatal(err)
		}
		if buf[2] == codecModeRaw {
			t.Fatalf("trial %d: dyadic data fell back to raw64", trial)
		}
		got, err := DecodeVPageC(nil, buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vd {
			if got[i] != vd[i] {
				t.Fatalf("trial %d entry %d: %v != %v", trial, i, got[i], vd[i])
			}
		}
	}
}

func TestCodecPointerSegmentRoundTrip(t *testing.T) {
	const numNodes = 37
	lens := make([]int64, numNodes)
	var blockBytes int64
	for id := range lens {
		lens[id] = -1
		if id%3 == 0 {
			lens[id] = int64(codecMinUnitBytes + id)
			blockBytes += lens[id]
		}
	}
	buf, err := EncodePointerSegmentC(numNodes, lens)
	if err != nil {
		t.Fatal(err)
	}
	const base = int64(1 << 20)
	var tbl cellTable
	if err := DecodePointerSegmentC(buf, numNodes, base, blockBytes, &tbl); err != nil {
		t.Fatal(err)
	}
	next := base
	for id := 0; id < numNodes; id++ {
		loc, ok := tbl.get(core.NodeID(id))
		if lens[id] < 0 {
			if ok {
				t.Fatalf("node %d: invisible but offset %d", id, loc.at)
			}
			continue
		}
		if !ok || loc.at != next || int64(loc.n) != lens[id] {
			t.Fatalf("node %d: (%d,%d), want (%d,%d)", id, loc.at, loc.n, next, lens[id])
		}
		next += lens[id]
	}
	// Wrong scheme width is rejected.
	if err := DecodePointerSegmentC(buf, numNodes+1, base, blockBytes, &tbl); !IsCodecError(err) {
		t.Fatalf("node-count mismatch accepted: %v", err)
	}
	// A shrunken block bound catches out-of-range prefix sums.
	if err := DecodePointerSegmentC(buf, numNodes, base, blockBytes-1, &tbl); !IsCodecError(err) {
		t.Fatalf("overflowing block accepted: %v", err)
	}
}

func TestCodecIndexSegmentRoundTrip(t *testing.T) {
	const numNodes = 100
	ids := []int{2, 3, 17, 64, 99}
	lens := []int64{10, 12, 9, 40, 8}
	var blockBytes int64
	for _, ln := range lens {
		blockBytes += ln
	}
	const base = int64(1 << 20)
	buf, err := EncodeIndexSegmentC(ids, lens)
	if err != nil {
		t.Fatal(err)
	}
	var tbl cellTable
	if err := DecodeIndexSegmentC(buf, numNodes, base, blockBytes, &tbl); err != nil {
		t.Fatal(err)
	}
	m := tableEntries(&tbl)
	if len(m) != len(ids) {
		t.Fatalf("%d entries, want %d", len(m), len(ids))
	}
	next := base
	for i, id := range ids {
		ref, ok := m[core.NodeID(id)]
		if !ok {
			t.Fatalf("node %d missing", id)
		}
		if ref.at != next || int64(ref.n) != lens[i] {
			t.Fatalf("node %d: (%d,%d), want (%d,%d)", id, ref.at, ref.n, next, lens[i])
		}
		next += lens[i]
	}
	// Out-of-range id rejected.
	if err := DecodeIndexSegmentC(buf, 99, base, blockBytes, &tbl); !IsCodecError(err) {
		t.Fatalf("out-of-range node accepted: %v", err)
	}
	// Non-ascending ids rejected at encode time.
	if _, err := EncodeIndexSegmentC([]int{5, 5}, []int64{8, 8}); err == nil {
		t.Fatal("duplicate ids accepted")
	}
}

// buildBothLayouts builds raw and codec variants of all three schemes on
// one disk.
func buildBothLayouts(t *testing.T, vis *core.VisData) (d *storage.Disk, raw, codec [3]core.VStore) {
	t.Helper()
	d = storage.NewDisk(0, storage.DefaultCostModel())
	h, err := BuildHorizontal(d, vis, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := BuildVertical(d, vis, 0)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := BuildIndexedVertical(d, vis, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := BuildHorizontalOpts(d, vis, Options{Codec: true})
	if err != nil {
		t.Fatal(err)
	}
	cv, err := BuildVerticalOpts(d, vis, Options{Codec: true})
	if err != nil {
		t.Fatal(err)
	}
	civ, err := BuildIndexedVerticalOpts(d, vis, Options{Codec: true})
	if err != nil {
		t.Fatal(err)
	}
	return d, [3]core.VStore{h, v, iv}, [3]core.VStore{ch, cv, civ}
}

// TestViewCopiesLayoutNotCursor checks every scheme's View field by
// field: a view shares all of the layout, charges its own client, and
// starts with an empty cursor and empty flip tables even when the base
// store has flipped — View must not read the cursor, which a concurrent
// query may be moving.
func TestViewCopiesLayoutNotCursor(t *testing.T) {
	vis := dyadicVisData(t, 60, 4, 4, 0.25, 3)
	d, raw, codec := buildBothLayouts(t, vis)
	c := d.NewClient()
	for _, s := range append(raw[:], codec[:]...) {
		if err := s.SetCell(3); err != nil {
			t.Fatal(err)
		}
		view := s.(core.VStoreViewer).View(c)
		var want, got any
		switch b := s.(type) {
		case *Horizontal:
			w := *b
			w.io, w.cur, w.hasCell = c, 0, false
			want, got = w, *view.(*Horizontal)
		case *Vertical:
			w := *b
			w.io, w.cur, w.hasCell, w.flips = c, 0, false, 0
			w.table, w.spare = cellTable{}, cellTable{}
			want, got = w, *view.(*Vertical)
		case *IndexedVertical:
			w := *b
			w.io, w.cur, w.hasCell, w.flips = c, 0, false, 0
			w.table, w.spare = cellTable{}, cellTable{}
			want, got = w, *view.(*IndexedVertical)
		default:
			t.Fatalf("unexpected scheme %T", s)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s (codec %v): view differs from the base layout with an empty cursor",
				s.Name(), s.(interface{ Codec() bool }).Codec())
		}
	}
}

// Codec schemes must answer every (cell, node) query identically to their
// raw counterparts — on dyadic (quantized-mode) and arbitrary
// (raw64-fallback-mode) visibility data alike.
func TestCodecSchemesMatchRaw(t *testing.T) {
	for _, tc := range []struct {
		name string
		vis  *core.VisData
	}{
		{"dyadic", dyadicVisData(t, 150, 5, 5, 0.2, 3)},
		{"raw64", sparseVisData(t, 150, 5, 5, 0.2, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, raw, codec := buildBothLayouts(t, tc.vis)
			for c := 0; c < tc.vis.Grid.NumCells(); c++ {
				cell := cells.CellID(c)
				for i := range raw {
					if err := raw[i].SetCell(cell); err != nil {
						t.Fatal(err)
					}
					if err := codec[i].SetCell(cell); err != nil {
						t.Fatal(err)
					}
				}
				for id := 0; id < tc.vis.NumNodes; id++ {
					for i := range raw {
						want, okW, err := raw[i].NodeVD(core.NodeID(id), nil)
						if err != nil {
							t.Fatal(err)
						}
						got, okG, err := codec[i].NodeVD(core.NodeID(id), nil)
						if err != nil {
							t.Fatalf("%s cell %d node %d: %v", codec[i].Name(), cell, id, err)
						}
						if okW != okG || len(want) != len(got) {
							t.Fatalf("%s cell %d node %d: visibility mismatch", codec[i].Name(), cell, id)
						}
						for ei := range want {
							if want[ei] != got[ei] {
								t.Fatalf("%s cell %d node %d entry %d: %+v != %+v",
									codec[i].Name(), cell, id, ei, want[ei], got[ei])
							}
						}
					}
				}
			}
		})
	}
}

// The codec layout must be dramatically smaller than the raw slot layout:
// the ISSUE gate is >= 3x fewer bytes per stored V-page.
func TestCodecFootprintReduction(t *testing.T) {
	vis := dyadicVisData(t, 400, 8, 8, 0.1, 9)
	_, raw, codec := buildBothLayouts(t, vis)
	for i := range raw {
		ru, rb := raw[i].(interface{ VPageFootprint() (int64, int64) }).VPageFootprint()
		cu, cb := codec[i].(interface{ VPageFootprint() (int64, int64) }).VPageFootprint()
		if ru != cu {
			t.Fatalf("%s: unit counts differ: %d vs %d", raw[i].Name(), ru, cu)
		}
		if rb < 3*cb {
			t.Fatalf("%s: raw %d bytes vs codec %d — reduction below 3x", raw[i].Name(), rb, cb)
		}
		if codec[i].SizeBytes() >= raw[i].SizeBytes() {
			t.Fatalf("%s: codec SizeBytes %d not below raw %d",
				raw[i].Name(), codec[i].SizeBytes(), raw[i].SizeBytes())
		}
	}
}

// Codec schemes must survive the manifest save/open round trip and answer
// identically afterwards.
func TestCodecManifestRoundTrip(t *testing.T) {
	vis := dyadicVisData(t, 120, 4, 4, 0.25, 5)
	d, _, codec := buildBothLayouts(t, vis)
	ch, cv, civ := codec[0].(*Horizontal), codec[1].(*Vertical), codec[2].(*IndexedVertical)

	oh, err := OpenHorizontal(d, vis.Grid, ch.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	ov, err := OpenVertical(d, vis.Grid, cv.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	oiv, err := OpenIndexedVertical(d, vis.Grid, civ.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	reopened := [3]core.VStore{oh, ov, oiv}
	for i, s := range reopened {
		if !s.(interface{ Codec() bool }).Codec() {
			t.Fatalf("%s: codec flag lost in manifest", s.Name())
		}
		if s.SizeBytes() != codec[i].SizeBytes() {
			t.Fatalf("%s: size changed through manifest", s.Name())
		}
	}
	for c := 0; c < vis.Grid.NumCells(); c++ {
		cell := cells.CellID(c)
		for i := range codec {
			if err := codec[i].SetCell(cell); err != nil {
				t.Fatal(err)
			}
			if err := reopened[i].SetCell(cell); err != nil {
				t.Fatal(err)
			}
		}
		for id := 0; id < vis.NumNodes; id++ {
			for i := range codec {
				want, okW, err := codec[i].NodeVD(core.NodeID(id), nil)
				if err != nil {
					t.Fatal(err)
				}
				got, okG, err := reopened[i].NodeVD(core.NodeID(id), nil)
				if err != nil {
					t.Fatal(err)
				}
				if okW != okG || len(want) != len(got) {
					t.Fatalf("%s cell %d node %d: mismatch after reopen", reopened[i].Name(), cell, id)
				}
				for ei := range want {
					if want[ei] != got[ei] {
						t.Fatalf("%s cell %d node %d entry %d mismatch", reopened[i].Name(), cell, id, ei)
					}
				}
			}
		}
	}
}

// CodecCheck must pin tampered heap bytes to their pages, and must excuse
// pages already parked in the disk's quarantine set (known damage).
func TestCodecCheckDetectsTamper(t *testing.T) {
	vis := dyadicVisData(t, 120, 4, 4, 0.25, 8)
	d, _, codec := buildBothLayouts(t, vis)
	type checker interface {
		CodecCheck() ([]storage.PageID, []string)
	}
	for _, s := range codec {
		bad, problems := s.(checker).CodecCheck()
		if len(bad) != 0 || len(problems) != 0 {
			t.Fatalf("%s: pristine scheme reported damage: %v %v", s.Name(), bad, problems)
		}
	}

	cv := codec[1].(*Vertical)
	page, err := d.PeekBytes(cv.heapBase, d.PageSize())
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), page...)
	for i := 2; i < 12; i++ {
		tampered[i] ^= 0x5A
	}
	if err := d.WritePage(cv.heapBase, tampered); err != nil {
		t.Fatal(err)
	}
	bad, problems := cv.CodecCheck()
	if len(bad) == 0 || len(problems) == 0 {
		t.Fatal("tampered heap page not detected")
	}
	for _, id := range bad {
		d.Quarantine(id)
	}
	if bad2, problems2 := cv.CodecCheck(); len(bad2) != 0 || len(problems2) != 0 {
		t.Fatalf("quarantined damage re-reported: %v %v", bad2, problems2)
	}
	d.ClearQuarantine()
	if err := d.WritePage(cv.heapBase, page); err != nil {
		t.Fatal(err)
	}
}
