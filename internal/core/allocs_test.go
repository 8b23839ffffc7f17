//go:build !race

package core

import (
	"fmt"
	"testing"

	"repro/internal/rtree"
	"repro/internal/storage"
)

// synthNode builds a node of the given fan-out with nLoD LoD refs per
// entry (internal nodes) and per node.
func synthNode(fanout, nLoD int, leaf bool) *Node {
	n := &Node{ID: 7, Leaf: leaf, SubtreeHeight: 2, LeafDescendants: fanout * 3}
	refs := func(seed int) ([]Extent, []int) {
		ex := make([]Extent, nLoD)
		ps := make([]int, nLoD)
		for j := range ex {
			ex[j] = Extent{Start: storage.PageID(100 + seed*nLoD + j), NominalBytes: 4096, RealBytes: int64(seed + j)}
			ps[j] = seed*10 + j
		}
		return ex, ps
	}
	for i := 0; i < fanout; i++ {
		e := NodeEntry{ChildID: NodeID(i), ObjectID: int64(i), DescCount: 3, DescPolys: 90}
		if !leaf {
			e.LoDRefs, e.LoDPolys = refs(i + 1)
		}
		n.Entries = append(n.Entries, e)
	}
	n.InternalExtents, n.InternalPolys = refs(0)
	return n
}

// TestDecodeNodeRecordFixedAllocations: a record decodes in at most four
// allocations whatever its fan-out, every entry's ref slices are capped
// sub-slices of the shared arrays, and the decode round-trips. The
// hotalloc lint keeps per-entry make out of the loop; this holds the
// total. (Race builds are excluded: instrumentation changes what
// allocates.)
func TestDecodeNodeRecordFixedAllocations(t *testing.T) {
	for _, leaf := range []bool{true, false} {
		for _, fanout := range []int{1, 8, 64, 400} {
			t.Run(fmt.Sprintf("leaf=%v/fanout=%d", leaf, fanout), func(t *testing.T) {
				src := synthNode(fanout, 3, leaf)
				buf := src.EncodeRecord()
				got, err := DecodeNodeRecord(buf)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got.Entries, got.InternalExtents, got.InternalPolys) !=
					fmt.Sprint(src.Entries, src.InternalExtents, src.InternalPolys) {
					t.Fatal("decoded record differs from the encoded node")
				}
				for i, e := range got.Entries {
					if cap(e.LoDRefs) != len(e.LoDRefs) || cap(e.LoDPolys) != len(e.LoDPolys) {
						t.Fatalf("entry %d ref slices not capped: len %d cap %d", i, len(e.LoDRefs), cap(e.LoDRefs))
					}
				}
				allocs := testing.AllocsPerRun(50, func() {
					if _, err := DecodeNodeRecord(buf); err != nil {
						t.Fatal(err)
					}
				})
				if allocs > 4 {
					t.Fatalf("DecodeNodeRecord allocates %v times, want <= 4", allocs)
				}
			})
		}
	}
}

// BenchmarkDecodeNodeRecord measures one node-record decode at the
// default R-tree fan-out — what OpenTree pays per node; a query reads
// the record in place instead (run with -benchmem, or read allocs/op:
// ReportAllocs is on).
func BenchmarkDecodeNodeRecord(b *testing.B) {
	for _, leaf := range []bool{true, false} {
		b.Run(fmt.Sprintf("leaf=%v", leaf), func(b *testing.B) {
			buf := synthNode(rtree.DefaultMaxEntries, 3, leaf).EncodeRecord()
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				if _, err := DecodeNodeRecord(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
