// Package cells partitions the viewpoint space into disjoint viewing cells,
// the precomputation granularity of the paper: "we adopt a similar strategy
// of partitioning the viewpoint space into disjoint cells" (§3). DoV values
// are precomputed per cell using the conservative region definition
// DoV(R, X) = max over p in R of DoV(p, X) (equation 2), approximated by
// sampling a deterministic set of viewpoints inside each cell.
package cells

import (
	"fmt"

	"repro/internal/geom"
)

// Grid is a uniform partition of a horizontal slab of viewpoint space into
// nx × ny cells. Walkthrough viewpoints move at roughly constant eye height
// in the city, so a 2D grid over the ground plane (extruded from ZMin to
// ZMax) matches the paper's "pre-determined cells".
type Grid struct {
	Bounds geom.AABB // region of viewpoint space covered
	NX, NY int
}

// CellID identifies a viewing cell; IDs are dense in [0, NumCells).
type CellID int32

// NoCell is returned by Locate for viewpoints outside the grid.
const NoCell CellID = -1

// NewGrid covers the XY footprint of bounds with nx × ny cells spanning the
// full Z range of bounds. Non-positive cell counts are clamped to 1; use
// NewGridChecked when degenerate inputs should be an error instead.
func NewGrid(bounds geom.AABB, nx, ny int) *Grid {
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	return &Grid{Bounds: bounds, NX: nx, NY: ny}
}

// NewGridChecked is NewGrid for untrusted inputs (manifests, flags): zero
// or negative cell counts and empty bounds are rejected rather than
// silently clamped.
func NewGridChecked(bounds geom.AABB, nx, ny int) (*Grid, error) {
	g := &Grid{Bounds: bounds, NX: nx, NY: ny}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// NumCells returns the total number of cells (the c of §4's cost formulas).
func (g *Grid) NumCells() int { return g.NX * g.NY }

// CellSize returns the extents of one cell.
func (g *Grid) CellSize() geom.Vec3 {
	s := g.Bounds.Size()
	return geom.V(s.X/float64(g.NX), s.Y/float64(g.NY), s.Z)
}

// Locate returns the cell containing viewpoint p, or NoCell if p is outside
// the grid. Points on the shared boundary of two cells belong to the cell
// with the higher index along that axis, except on the outer maximum
// boundary, which belongs to the last cell — so the cells are disjoint and
// cover the region exactly.
func (g *Grid) Locate(p geom.Vec3) CellID {
	if !g.Bounds.ContainsPoint(p) {
		return NoCell
	}
	cs := g.CellSize()
	ix := int((p.X - g.Bounds.Min.X) / cs.X)
	iy := int((p.Y - g.Bounds.Min.Y) / cs.Y)
	if ix >= g.NX {
		ix = g.NX - 1
	}
	if iy >= g.NY {
		iy = g.NY - 1
	}
	return CellID(iy*g.NX + ix)
}

// CellBounds returns the AABB of cell id.
func (g *Grid) CellBounds(id CellID) geom.AABB {
	ix := int(id) % g.NX
	iy := int(id) / g.NX
	cs := g.CellSize()
	min := geom.V(
		g.Bounds.Min.X+float64(ix)*cs.X,
		g.Bounds.Min.Y+float64(iy)*cs.Y,
		g.Bounds.Min.Z,
	)
	return geom.Box(min, min.Add(cs))
}

// Center returns the center point of cell id.
func (g *Grid) Center(id CellID) geom.Vec3 {
	return g.CellBounds(id).Center()
}

// SamplePoints returns a deterministic set of viewpoints inside cell id used
// to approximate the region DoV maximum of equation 2: the cell center plus
// the centers of the 2×2×1 (or n×n×1) sub-cells. More samples tighten the
// approximation at proportional precomputation cost — the paper reports
// 1.02 s per cell for its GPU pipeline; our knob is this n.
func (g *Grid) SamplePoints(id CellID, n int) []geom.Vec3 {
	if n < 1 {
		n = 1
	}
	b := g.CellBounds(id)
	if n == 1 {
		return []geom.Vec3{b.Center()}
	}
	pts := make([]geom.Vec3, 0, n*n+1)
	pts = append(pts, b.Center())
	s := b.Size()
	z := b.Center().Z
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			pts = append(pts, geom.V(
				b.Min.X+s.X*(float64(i)+0.5)/float64(n),
				b.Min.Y+s.Y*(float64(j)+0.5)/float64(n),
				z,
			))
		}
	}
	return pts
}

// Validate checks grid consistency.
func (g *Grid) Validate() error {
	if g.NX < 1 || g.NY < 1 {
		return fmt.Errorf("cells: grid %dx%d invalid", g.NX, g.NY)
	}
	if g.Bounds.IsEmpty() {
		return fmt.Errorf("cells: empty bounds")
	}
	return nil
}
