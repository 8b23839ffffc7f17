package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"

	"repro/internal/scene"
	"repro/internal/storage"
)

// FuzzDecodeNodeRecord drives the on-disk record parser with arbitrary
// bytes: ParseNodeRecord (the view the query path reads in place) and
// DecodeNodeRecord must accept exactly the same inputs, never panic or
// over-allocate, and agree on every field of what they accept.
func FuzzDecodeNodeRecord(f *testing.F) {
	// Seed with valid records of each node shape.
	sc, d := fuzzFixture(f)
	_ = d
	for _, n := range sc.Nodes {
		f.Add(n.EncodeRecord())
	}
	f.Add([]byte{})
	f.Add([]byte{0x48, 0x44, 0x4f, 0x56})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, verr := ParseNodeRecord(data)
		n, err := DecodeNodeRecord(data)
		if (verr == nil) != (err == nil) {
			t.Fatalf("view error %v, decode error %v: the two disagree on acceptance", verr, err)
		}
		if err != nil {
			return
		}
		if n == nil {
			t.Fatal("nil node with nil error")
		}
		if err := viewMatchesNode(v, n); err != nil {
			t.Fatal(err)
		}
		// Decoded nodes must be internally consistent enough to
		// re-encode without panicking.
		_ = n.RecordSize()
		_ = n.EncodeRecord()
	})
}

// viewMatchesNode reports the first field on which a record view and
// the node decoded from the same bytes differ.
func viewMatchesNode(v NodeView, n *Node) error {
	if v.ID() != n.ID || v.Leaf() != n.Leaf || v.SubtreeHeight() != n.SubtreeHeight ||
		v.LeafDescendants() != n.LeafDescendants || v.NumEntries() != len(n.Entries) ||
		v.NumLoD() != len(n.InternalExtents) || len(n.InternalPolys) != len(n.InternalExtents) {
		return fmt.Errorf("header differs: view id %d leaf %v height %d desc %d entries %d lods %d, node %+v",
			v.ID(), v.Leaf(), v.SubtreeHeight(), v.LeafDescendants(), v.NumEntries(), v.NumLoD(), n)
	}
	for l := range n.InternalExtents {
		if ext, polys := v.LoD(l); ext != n.InternalExtents[l] || polys != n.InternalPolys[l] {
			return fmt.Errorf("internal LoD %d: view %v/%d, node %v/%d", l, ext, polys, n.InternalExtents[l], n.InternalPolys[l])
		}
	}
	for i, e := range n.Entries {
		if !sameBits(v.EntryMBR(i), e.MBR) {
			return fmt.Errorf("entry %d MBR: view %v, node %v", i, v.EntryMBR(i), e.MBR)
		}
		if v.EntryChild(i) != e.ChildID || v.EntryObject(i) != e.ObjectID ||
			v.EntryDescCount(i) != e.DescCount || v.EntryDescPolys(i) != e.DescPolys {
			return fmt.Errorf("entry %d: view child %d object %d count %d polys %d, node %+v",
				i, v.EntryChild(i), v.EntryObject(i), v.EntryDescCount(i), v.EntryDescPolys(i), e)
		}
		wantRefs := 0
		if !n.Leaf {
			wantRefs = v.NumLoD()
		}
		if len(e.LoDRefs) != wantRefs || len(e.LoDPolys) != wantRefs {
			return fmt.Errorf("entry %d: node has %d/%d LoD refs, view %d", i, len(e.LoDRefs), len(e.LoDPolys), wantRefs)
		}
		for l := 0; l < wantRefs; l++ {
			if ext, polys := v.EntryLoD(i, l); ext != e.LoDRefs[l] || polys != e.LoDPolys[l] {
				return fmt.Errorf("entry %d LoD %d: view %v/%d, node %v/%d", i, l, ext, polys, e.LoDRefs[l], e.LoDPolys[l])
			}
		}
	}
	return nil
}

// sameBits compares two boxes bit for bit, so fuzzed NaN coordinates
// compare equal when both sides decoded the same pattern.
func sameBits(a, b geom.AABB) bool {
	x := [6]float64{a.Min.X, a.Min.Y, a.Min.Z, a.Max.X, a.Max.Y, a.Max.Z}
	y := [6]float64{b.Min.X, b.Min.Y, b.Min.Z, b.Max.X, b.Max.Y, b.Max.Z}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// fuzzFixture builds one small tree for seeding.
func fuzzFixture(f *testing.F) (*Tree, int) {
	f.Helper()
	sc := scene.Generate(func() scene.CityParams {
		p := scene.DefaultCityParams()
		p.BlocksX, p.BlocksY = 1, 1
		p.BuildingsPerBlock = 4
		p.BlobsPerBlock = 1
		p.BlobDetail = 6
		p.NominalBytes = 0
		return p
	}())
	d := storage.NewDisk(0, storage.DefaultCostModel())
	bp := DefaultBuildParams()
	bp.DirsPerViewpoint = 64
	bp.SamplesPerCell = 1
	tr, _, err := Build(sc, d, bp)
	if err != nil {
		f.Fatal(err)
	}
	return tr, 0
}
