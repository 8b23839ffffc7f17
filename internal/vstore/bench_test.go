//go:build !race

package vstore

import (
	"testing"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/storage"
)

// benchLayout is one layout under benchmark: a session view of it, and
// the visible nodes of benchCell in that layout's answer.
type benchLayout struct {
	name    string
	view    core.VStore
	visible []core.NodeID
}

// benchCell is the cell BenchmarkNodeVD reads.
const benchCell = cells.CellID(17)

// benchLayouts lays the package fixture's visibility data out in all six
// layouts (three schemes, raw and codec) on one pooled disk and returns a
// session view of each, pool-warm: every cell has been flipped and every
// visible node read once, so the benchmarks time the CPU work of a warm
// query, not media.
func benchLayouts(b *testing.B) []benchLayout {
	b.Helper()
	_, vis := fixture(b)
	d := storage.NewDisk(0, storage.DefaultCostModel())
	var out []benchLayout
	for _, codec := range []bool{false, true} {
		for _, s := range []Scheme{SchemeHorizontal, SchemeVertical, SchemeIndexedVertical} {
			l, err := Build(d, vis, s, Options{Codec: codec})
			if err != nil {
				b.Fatal(err)
			}
			name := s.String()
			if codec {
				name += "+codec"
			}
			out = append(out, benchLayout{name: name, view: l.View(d.NewClient())})
		}
	}
	d.SetCacheSize(1 << 16)
	var buf []core.VD
	for i := range out {
		v := out[i].view
		for c := 0; c < vis.Grid.NumCells(); c++ {
			if err := v.SetCell(cells.CellID(c)); err != nil {
				b.Fatal(err)
			}
			for id := 0; id < vis.NumNodes; id++ {
				vd, ok, err := v.NodeVD(core.NodeID(id), buf[:0])
				if err != nil {
					b.Fatal(err)
				}
				buf = vd
				if ok && cells.CellID(c) == benchCell {
					out[i].visible = append(out[i].visible, core.NodeID(id))
				}
			}
		}
		if len(out[i].visible) == 0 {
			b.Fatalf("%s: no node visible in cell %d", out[i].name, benchCell)
		}
	}
	return out
}

// BenchmarkSetCell times one cell flip of a pool-warm session view —
// the cell lookup per scheme: free for horizontal, a flip-segment read
// and decode into the view's table for the vertical schemes. Each op
// flips to a different cell than the last.
func BenchmarkSetCell(b *testing.B) {
	for _, l := range benchLayouts(b) {
		b.Run(l.name, func(b *testing.B) {
			_, vis := fixture(b)
			n := vis.Grid.NumCells()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.view.SetCell(cells.CellID(i % n)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNodeVD times one visible node's V-data read on a pool-warm
// session view: the V-page lookup, the pool hit and the decode into a
// caller-owned buffer. The ops cycle over the nodes visible in one cell.
func BenchmarkNodeVD(b *testing.B) {
	for _, l := range benchLayouts(b) {
		b.Run(l.name, func(b *testing.B) {
			if err := l.view.SetCell(benchCell); err != nil {
				b.Fatal(err)
			}
			var buf []core.VD
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vd, ok, err := l.view.NodeVD(l.visible[i%len(l.visible)], buf[:0])
				if err != nil || !ok {
					b.Fatalf("visible node %d: ok %v, err %v", l.visible[i%len(l.visible)], ok, err)
				}
				buf = vd
			}
		})
	}
}
