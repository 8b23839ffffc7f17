package vstore

import (
	"fmt"
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
func buildBothLayouts(t *testing.T, vis *core.VisData) (d *storage.Disk, raw, codec [3]Layout) {
	t.Helper()
	d = storage.NewDisk(0, storage.DefaultCostModel())
	for i, s := range []Scheme{SchemeHorizontal, SchemeVertical, SchemeIndexedVertical} {
		var err error
		if raw[i], err = Build(d, vis, s, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range []Scheme{SchemeHorizontal, SchemeVertical, SchemeIndexedVertical} {
		var err error
		if codec[i], err = Build(d, vis, s, Options{Codec: true}); err != nil {
			t.Fatal(err)
		}
	}
	return d, raw, codec
}

// views opens one view of each layout, all charging io.
func views(ls [3]Layout, io *storage.Client) [3]core.VStore {
	return [3]core.VStore{ls[0].View(io), ls[1].View(io), ls[2].View(io)}
}

// TestViewCopiesLayoutNotCursor checks every scheme's View: two views of
// one layout share all of it, each charges its own client, and a fresh
// view starts with an empty cursor, empty flip tables and no read buffer
// even when its sibling has flipped and read — the cursor and the read
// buffer are per view: a view that shared another's buffer would
// overwrite bytes the other is decoding.
func TestViewCopiesLayoutNotCursor(t *testing.T) {
	vis := dyadicVisData(t, 60, 4, 4, 0.25, 3)
	d, raw, codec := buildBothLayouts(t, vis)
	for _, l := range append(raw[:], codec[:]...) {
		readAll := func(s core.VStore) {
			if err := s.SetCell(3); err != nil {
				t.Fatal(err)
			}
			for id := 0; id < vis.NumNodes; id++ {
				if _, _, err := s.NodeVD(core.NodeID(id), nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		c1, c2 := d.NewClient(), d.NewClient()
		first := l.View(c1)
		readAll(first)
		view := l.View(c2)
		var want, got any
		var baseBuf, viewBuf *readBuf
		switch b := first.(type) {
		case *horizontalView:
			if b.horizontal != l || view.(*horizontalView).horizontal != l {
				t.Fatalf("%s: a view does not share its layout", l.Name())
			}
			w := *b
			w.io, w.cur, w.hasCell, w.rbuf = c2, 0, false, nil
			want, got = w, *view.(*horizontalView)
			baseBuf, viewBuf = &b.rbuf, &view.(*horizontalView).rbuf
		case *flipCursor:
			if b.flipLayout != l || view.(*flipCursor).flipLayout != l {
				t.Fatalf("%s: a view does not share its layout", l.Name())
			}
			w := *b
			w.io, w.cur, w.hasCell, w.flips, w.rbuf = c2, 0, false, 0, nil
			w.table, w.spare = cellTable{}, cellTable{}
			want, got = w, *view.(*flipCursor)
			baseBuf, viewBuf = &b.rbuf, &view.(*flipCursor).rbuf
		default:
			t.Fatalf("unexpected view %T", first)
		}
		name := fmt.Sprintf("%s (codec %v)", l.Name(), l.Codec())
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: a fresh view differs from its sibling with an empty cursor and no read buffer", name)
		}
		if cap(*baseBuf) == 0 {
			t.Fatalf("%s: the first view read without its read buffer; the check saw nothing", name)
		}
		readAll(view)
		if cap(*viewBuf) == 0 {
			t.Fatalf("%s: the view read without its read buffer", name)
		}
		if &(*baseBuf)[:1][0] == &(*viewBuf)[:1][0] {
			t.Errorf("%s: the view reads into its sibling's buffer", name)
		}
		if c1.Stats().LightReads == 0 || c2.Stats().LightReads == 0 {
			t.Errorf("%s: a view did not charge its own client", name)
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
			d, rawL, codecL := buildBothLayouts(t, tc.vis)
			raw, codec := views(rawL, d.NewClient()), views(codecL, d.NewClient())
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
		ru, rb := raw[i].VPageFootprint()
		cu, cb := codec[i].VPageFootprint()
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
	d, _, codecL := buildBothLayouts(t, vis)
	var reopenedL [3]Layout
	for i, l := range codecL {
		var err error
		if reopenedL[i], err = Open(d, vis.Grid, l.LayoutManifest()); err != nil {
			t.Fatal(err)
		}
		if !reopenedL[i].Codec() {
			t.Fatalf("%s: codec flag lost in manifest", l.Name())
		}
		if reopenedL[i].SizeBytes() != l.SizeBytes() {
			t.Fatalf("%s: size changed through manifest", l.Name())
		}
	}
	codec, reopened := views(codecL, d.NewClient()), views(reopenedL, d.NewClient())
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
	for _, s := range codec {
		bad, problems := s.CodecCheck()
		if len(bad) != 0 || len(problems) != 0 {
			t.Fatalf("%s: pristine scheme reported damage: %v %v", s.Name(), bad, problems)
		}
	}

	cv := codec[1]
	heapBase := cv.(*flipLayout).units.heapBase
	page, err := d.PeekBytes(heapBase, d.PageSize())
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), page...)
	for i := 2; i < 12; i++ {
		tampered[i] ^= 0x5A
	}
	if err := d.WritePage(heapBase, tampered); err != nil {
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
	if err := d.WritePage(heapBase, page); err != nil {
		t.Fatal(err)
	}
}
