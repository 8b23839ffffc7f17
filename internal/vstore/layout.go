package vstore

import (
	"fmt"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/storage"
)

// Scheme names one of the three V-page layouts of §4. The zero value is
// indexed-vertical, the layout the paper recommends.
type Scheme int

const (
	SchemeIndexedVertical Scheme = iota
	SchemeVertical
	SchemeHorizontal
)

var schemeNames = [...]string{"indexed-vertical", "vertical", "horizontal"}

func (s Scheme) String() string {
	if s < 0 || int(s) >= len(schemeNames) {
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
	return schemeNames[s]
}

// Options configures a layout build. The zero value is the original
// fixed-slot layout.
type Options struct {
	// Codec selects the compressed V-page layout (DESIGN.md §13):
	// variable-length CRC-sealed units in a packed heap instead of
	// fixed slots. Query results are byte-identical either way.
	Codec bool
}

// Layout is the one V-page layout a database serves, immutable once
// built or opened. It never reads by itself: View returns the reader
// (core.VStore) that owns a cell cursor and charges one client. Build
// and Open are the only places that know which scheme stands behind it.
type Layout interface {
	core.VStoreLayout
	Scheme() Scheme
	// Name identifies the scheme in experiment output.
	Name() string
	// SizeBytes is the scheme's total disk footprint — the Table 2 value.
	SizeBytes() int64
	// Codec reports whether the layout stores compressed V-page units.
	Codec() bool
	// VPageFootprint reports the stored V-page count and their on-disk
	// bytes.
	VPageFootprint() (units, bytes int64)
	// CodecCheck decodes every codec segment and unit through the
	// unmetered peek path, returning the pages of units that fail
	// validation and one problem string per failure. A raw layout has
	// nothing to check.
	CodecCheck() ([]storage.PageID, []string)
	// LayoutManifest captures the layout for reopening over its image.
	LayoutManifest() Manifest
}

// layoutBase is what every layout holds: its scheme, geometry, V-pages
// and Table 2 footprint.
type layoutBase struct {
	scheme   Scheme
	grid     *cells.Grid
	numNodes int
	units    unitStore
	size     int64
}

// Scheme implements Layout.
func (b *layoutBase) Scheme() Scheme { return b.scheme }

// Name implements Layout.
func (b *layoutBase) Name() string { return b.scheme.String() }

// SizeBytes implements Layout.
func (b *layoutBase) SizeBytes() int64 { return b.size }

// Codec implements Layout.
func (b *layoutBase) Codec() bool { return b.units.codec }

// VPageFootprint implements Layout.
func (b *layoutBase) VPageFootprint() (units, bytes int64) { return b.units.VPageFootprint() }

// badCell reports a SetCell argument that failed the range check the
// views inline.
func badCell(cell cells.CellID) error { return fmt.Errorf("vstore: cell %d out of range", cell) }

// badNode reports why a NodeVD argument failed the check the views
// inline: no current cell, or a node out of range.
func (b *layoutBase) badNode(hasCell bool, id core.NodeID) error {
	if !hasCell {
		return fmt.Errorf("vstore: no current cell")
	}
	return fmt.Errorf("vstore: node %d out of range", id)
}

var (
	_ Layout = (*horizontal)(nil)
	_ Layout = (*flipLayout)(nil)
)

// Build lays out vis on d in the given scheme.
func Build(d *storage.Disk, vis *core.VisData, s Scheme, opts Options) (Layout, error) {
	var l Layout
	var err error
	switch s {
	case SchemeHorizontal:
		l, err = buildHorizontal(d, vis, opts.Codec)
	case SchemeVertical, SchemeIndexedVertical:
		if opts.Codec {
			l, err = buildFlipCodec(d, vis, s)
		} else {
			l, err = buildFlipRaw(d, vis, s)
		}
	default:
		return nil, fmt.Errorf("vstore: unknown scheme %v", s)
	}
	if err != nil {
		return nil, err
	}
	return l, nil
}

// Manifest reopens one layout over its disk image: the scheme plus that
// scheme's own manifest. The other two per-scheme manifests stay nil.
type Manifest struct {
	Scheme     Scheme
	Horizontal *HorizontalManifest      `json:",omitempty"`
	Vertical   *VerticalManifest        `json:",omitempty"`
	Indexed    *IndexedVerticalManifest `json:",omitempty"`
}

// schemeManifest is what every per-scheme manifest provides.
type schemeManifest interface {
	open(d *storage.Disk, grid *cells.Grid) (Layout, error)
	pageRanges(numCells int, pagesFor func(int64) int) []PageRange
}

// selected returns the manifest of m.Scheme, refusing a manifest that
// carries none, or a layout of another scheme beside it.
func (m Manifest) selected() (schemeManifest, error) {
	h, v, iv := m.Horizontal != nil, m.Vertical != nil, m.Indexed != nil
	switch {
	case m.Scheme == SchemeIndexedVertical && iv && !h && !v:
		return m.Indexed, nil
	case m.Scheme == SchemeVertical && v && !h && !iv:
		return m.Vertical, nil
	case m.Scheme == SchemeHorizontal && h && !v && !iv:
		return m.Horizontal, nil
	}
	return nil, fmt.Errorf("vstore: layout manifest for %v carries horizontal=%v vertical=%v indexed=%v",
		m.Scheme, h, v, iv)
}

// Open reattaches the layout m describes.
func Open(d *storage.Disk, grid *cells.Grid, m Manifest) (Layout, error) {
	sm, err := m.selected()
	if err != nil {
		return nil, err
	}
	return sm.open(d, grid)
}

// PageRange is one run of disk pages a layout manifest points at.
type PageRange struct {
	What  string
	Start storage.PageID
	Pages int
}

// PageRanges lists every page run m points at, so a loader can bounds-
// check them against an image before any is dereferenced. A run with
// Start == storage.NilPage and no pages is empty.
func (m Manifest) PageRanges(numCells int, pagesFor func(int64) int) ([]PageRange, error) {
	sm, err := m.selected()
	if err != nil {
		return nil, err
	}
	return sm.pageRanges(numCells, pagesFor), nil
}

// Codec reports whether m describes a codec layout.
func (m Manifest) Codec() bool {
	switch {
	case m.Horizontal != nil:
		return m.Horizontal.Codec
	case m.Vertical != nil:
		return m.Vertical.Codec
	case m.Indexed != nil:
		return m.Indexed.Codec
	}
	return false
}
