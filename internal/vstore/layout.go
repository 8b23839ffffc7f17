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

// Layout is the one V-page layout a database serves: the query-time
// core.VStore plus what persistence and fsck need from it. Build and
// Open are the only places that know which concrete scheme stands
// behind it.
type Layout interface {
	core.VStore
	Scheme() Scheme
	// Codec reports whether the layout stores compressed V-page units.
	Codec() bool
	// CodecCheck validates every codec unit (see the per-scheme docs).
	CodecCheck() ([]storage.PageID, []string)
	// LayoutManifest captures the layout for reopening over its image.
	LayoutManifest() Manifest
}

var (
	_ Layout = (*Horizontal)(nil)
	_ Layout = (*Vertical)(nil)
	_ Layout = (*IndexedVertical)(nil)
)

// Build lays out vis on d in the given scheme.
func Build(d *storage.Disk, vis *core.VisData, s Scheme, opts Options) (Layout, error) {
	switch s {
	case SchemeIndexedVertical:
		return layout(BuildIndexedVerticalOpts(d, vis, opts))
	case SchemeVertical:
		return layout(BuildVerticalOpts(d, vis, opts))
	case SchemeHorizontal:
		return layout(BuildHorizontalOpts(d, vis, opts))
	}
	return nil, fmt.Errorf("vstore: unknown scheme %v", s)
}

// layout converts a per-scheme constructor's result, keeping a failed
// build's typed nil out of the interface.
func layout[L Layout](l L, err error) (Layout, error) {
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

// pages is the number of disk pages the slot table spans.
func (s SlotTableManifest) pages() int {
	if s.PerPage <= 0 {
		return 0
	}
	return (s.Count + s.PerPage - 1) / s.PerPage
}

func (m *HorizontalManifest) open(d *storage.Disk, grid *cells.Grid) (Layout, error) {
	return layout(OpenHorizontal(d, grid, *m))
}

func (m *HorizontalManifest) pageRanges(numCells int, pagesFor func(int64) int) []PageRange {
	if !m.Codec {
		return []PageRange{{"horizontal V-pages", m.Slots.Base, m.Slots.pages()}}
	}
	return []PageRange{
		{"horizontal codec heap", m.HeapBase, pagesFor(m.HeapBytes)},
		{"horizontal codec directory", m.DirBase, pagesFor(8 * int64(m.NumNodes) * int64(numCells))},
	}
}

func (m *VerticalManifest) open(d *storage.Disk, grid *cells.Grid) (Layout, error) {
	return layout(OpenVertical(d, grid, *m))
}

func (m *VerticalManifest) pageRanges(numCells int, pagesFor func(int64) int) []PageRange {
	if m.Codec {
		return []PageRange{{"vertical codec heap", m.HeapBase, pagesFor(m.HeapBytes)}}
	}
	return []PageRange{
		{"vertical V-pages", m.Slots.Base, m.Slots.pages()},
		{"vertical segments", m.SegBase, m.SegPages * numCells},
	}
}

func (m *IndexedVerticalManifest) open(d *storage.Disk, grid *cells.Grid) (Layout, error) {
	return layout(OpenIndexedVertical(d, grid, *m))
}

func (m *IndexedVerticalManifest) pageRanges(numCells int, pagesFor func(int64) int) []PageRange {
	if m.Codec {
		return []PageRange{{"indexed codec heap", m.HeapBase, pagesFor(m.HeapBytes)}}
	}
	out := []PageRange{{"indexed V-pages", m.Slots.Base, m.Slots.pages()}}
	for cell, seg := range m.Dir {
		if seg.Start != storage.NilPage {
			out = append(out, PageRange{fmt.Sprintf("indexed segment for cell %d", cell), seg.Start, 1})
		}
	}
	return out
}

// Scheme implements Layout.
func (h *Horizontal) Scheme() Scheme { return SchemeHorizontal }

// Scheme implements Layout.
func (v *Vertical) Scheme() Scheme { return SchemeVertical }

// Scheme implements Layout.
func (iv *IndexedVertical) Scheme() Scheme { return SchemeIndexedVertical }

// LayoutManifest implements Layout.
func (h *Horizontal) LayoutManifest() Manifest {
	m := h.Manifest()
	return Manifest{Scheme: SchemeHorizontal, Horizontal: &m}
}

// LayoutManifest implements Layout.
func (v *Vertical) LayoutManifest() Manifest {
	m := v.Manifest()
	return Manifest{Scheme: SchemeVertical, Vertical: &m}
}

// LayoutManifest implements Layout.
func (iv *IndexedVertical) LayoutManifest() Manifest {
	m := iv.Manifest()
	return Manifest{Scheme: SchemeIndexedVertical, Indexed: &m}
}
