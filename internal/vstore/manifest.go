package vstore

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cells"
	"repro/internal/storage"
)

// SlotTableManifest serializes a V-page slot table's layout.
type SlotTableManifest struct {
	Base      storage.PageID
	SlotBytes int
	PerPage   int
	Count     int
}

func (t slotTable) manifest() SlotTableManifest {
	return SlotTableManifest{Base: t.base, SlotBytes: t.slotBytes, PerPage: t.perPage, Count: t.count}
}

// pages is the number of disk pages the slot table spans.
func (s SlotTableManifest) pages() int {
	if s.PerPage <= 0 {
		return 0
	}
	return (s.Count + s.PerPage - 1) / s.PerPage
}

func (m SlotTableManifest) table() (slotTable, error) {
	if m.SlotBytes < 1 || m.PerPage < 1 || m.Count < 0 || m.Base < 0 {
		return slotTable{}, fmt.Errorf("vstore: bad slot-table manifest %+v", m)
	}
	return slotTable{base: m.Base, slotBytes: m.SlotBytes, perPage: m.PerPage, count: m.Count}, nil
}

// CodecSegManifest serializes one codec directory entry: the cell's heap
// block (segment offset + length, then the units region length).
type CodecSegManifest struct {
	Off      int64
	SegLen   int32
	UnitsLen int64
}

func codecSegManifests(cdir []codecSeg) []CodecSegManifest {
	out := make([]CodecSegManifest, len(cdir))
	for i, s := range cdir {
		out[i] = CodecSegManifest{Off: s.off, SegLen: s.segLen, UnitsLen: s.unitsLen}
	}
	return out
}

// codecDir validates and converts a manifest directory against the heap
// bounds.
func codecDir(ms []CodecSegManifest, numCells int, heapBytes int64) ([]codecSeg, error) {
	if len(ms) != numCells {
		return nil, fmt.Errorf("vstore: codec directory has %d segments for %d cells", len(ms), numCells)
	}
	out := make([]codecSeg, len(ms))
	for i, s := range ms {
		if s.Off == nilSlot {
			if s.SegLen != 0 || s.UnitsLen != 0 {
				return nil, fmt.Errorf("vstore: codec directory entry %d: empty cell with nonzero extent", i)
			}
		} else if s.Off < 0 || s.SegLen < codecMinUnitBytes || s.UnitsLen < 0 ||
			s.Off+int64(s.SegLen)+s.UnitsLen > heapBytes {
			return nil, fmt.Errorf("vstore: codec directory entry %d out of range: %+v (heap %d bytes)", i, s, heapBytes)
		}
		out[i] = codecSeg{off: s.Off, segLen: s.SegLen, unitsLen: s.UnitsLen}
	}
	return out, nil
}

// openUnits reattaches the unit store of a saved layout: its slot table
// (raw) or its heap (codec).
func openUnits(d *storage.Disk, codec bool, slots SlotTableManifest, heapBase storage.PageID, heapBytes, units, unitBytes int64) (unitStore, error) {
	u := unitStore{disk: d, codec: codec, heapBase: heapBase, heapBytes: heapBytes, units: units, unitBytes: unitBytes}
	if codec {
		if heapBytes < 0 {
			return u, fmt.Errorf("vstore: codec heap of %d bytes", heapBytes)
		}
		return u, nil
	}
	var err error
	u.slots, err = slots.table()
	return u, err
}

// HorizontalManifest reopens a horizontal scheme over its disk image.
type HorizontalManifest struct {
	NumNodes   int
	VPageBytes int
	Slots      SlotTableManifest
	SizeBytes  int64
	// Codec layout (the Slots table is unused when set).
	Codec     bool
	HeapBase  storage.PageID
	HeapBytes int64
	DirBase   storage.PageID
	Units     int64
	UnitBytes int64
}

// LayoutManifest implements Layout.
func (h *horizontal) LayoutManifest() Manifest {
	u := &h.units
	return Manifest{Scheme: SchemeHorizontal, Horizontal: &HorizontalManifest{
		NumNodes:   h.numNodes,
		VPageBytes: u.slots.slotBytes,
		Slots:      u.slots.manifest(),
		SizeBytes:  h.size,
		Codec:      u.codec,
		HeapBase:   u.heapBase,
		HeapBytes:  u.heapBytes,
		DirBase:    h.dirBase,
		Units:      u.units,
		UnitBytes:  u.unitBytes,
	}}
}

// open reattaches a saved horizontal scheme. A codec layout reloads its
// persisted slot directory (one LE int64 offset per slot, -1 invisible)
// and reconstructs unit lengths from the offset deltas — exact, because
// the heap packs units with no padding in ascending slot order.
func (m *HorizontalManifest) open(d *storage.Disk, grid *cells.Grid) (Layout, error) {
	if m.NumNodes < 1 || !m.Codec && m.VPageBytes < 2 {
		return nil, fmt.Errorf("vstore: bad horizontal manifest %+v", *m)
	}
	units, err := openUnits(d, m.Codec, m.Slots, m.HeapBase, m.HeapBytes, m.Units, m.UnitBytes)
	if err != nil {
		return nil, err
	}
	h := &horizontal{
		layoutBase: layoutBase{scheme: SchemeHorizontal, grid: grid, numNodes: m.NumNodes, units: units, size: m.SizeBytes},
		dirBase:    m.DirBase,
	}
	if !m.Codec {
		return h, nil
	}
	nslots := m.NumNodes * grid.NumCells()
	dirBuf, err := d.PeekBytes(m.DirBase, 8*nslots)
	if err != nil {
		return nil, fmt.Errorf("vstore: horizontal codec directory: %w", err)
	}
	h.dir = make([]heapRef, nslots)
	prev := -1 // previous visible slot
	for i := 0; i <= nslots; i++ {
		off := m.HeapBytes // past the last slot: the heap end closes the last unit
		if i < nslots {
			off = int64(binary.LittleEndian.Uint64(dirBuf[i*8:]))
			if off == nilSlot {
				continue
			}
			if off < 0 || off >= m.HeapBytes {
				return nil, fmt.Errorf("vstore: horizontal codec directory slot %d offset %d outside heap (%d bytes)", i, off, m.HeapBytes)
			}
		}
		if prev >= 0 {
			n := off - h.dir[prev].off
			if n < codecMinUnitBytes || n > int64(1)<<31-1 {
				return nil, fmt.Errorf("vstore: horizontal codec directory slot %d: unit length %d out of range", prev, n)
			}
			h.dir[prev].n = int32(n)
		}
		if i < nslots {
			h.dir[i].off = off
			prev = i
		}
	}
	return h, nil
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

// VerticalManifest reopens a vertical scheme over its disk image.
type VerticalManifest struct {
	NumNodes   int
	VPageBytes int
	SegBase    storage.PageID
	SegPages   int
	Slots      SlotTableManifest
	SizeBytes  int64
	// Codec layout (SegBase/SegPages/Slots are unused when set).
	Codec     bool
	HeapBase  storage.PageID
	HeapBytes int64
	CDir      []CodecSegManifest
	Units     int64
	UnitBytes int64
}

func (m *VerticalManifest) open(d *storage.Disk, grid *cells.Grid) (Layout, error) {
	if m.NumNodes < 1 || !m.Codec && (m.VPageBytes < 2 || m.SegPages < 1) {
		return nil, fmt.Errorf("vstore: bad vertical manifest %+v", *m)
	}
	units, err := openUnits(d, m.Codec, m.Slots, m.HeapBase, m.HeapBytes, m.Units, m.UnitBytes)
	if err != nil {
		return nil, err
	}
	l := &flipLayout{
		layoutBase: layoutBase{scheme: SchemeVertical, grid: grid, numNodes: m.NumNodes, units: units, size: m.SizeBytes},
		segBase:    m.SegBase,
		segPages:   m.SegPages,
	}
	return l.openCDir(m.CDir)
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

// SegmentManifest serializes one indexed-vertical directory entry.
type SegmentManifest struct {
	Start storage.PageID
	Count int32
}

// IndexedVerticalManifest reopens an indexed-vertical scheme.
type IndexedVerticalManifest struct {
	NumNodes   int
	VPageBytes int
	Slots      SlotTableManifest
	Dir        []SegmentManifest
	SizeBytes  int64
	// Codec layout (Slots/Dir are unused when set).
	Codec     bool
	HeapBase  storage.PageID
	HeapBytes int64
	CDir      []CodecSegManifest
	Units     int64
	UnitBytes int64
}

func (m *IndexedVerticalManifest) open(d *storage.Disk, grid *cells.Grid) (Layout, error) {
	if m.NumNodes < 1 || !m.Codec && m.VPageBytes < 2 {
		return nil, fmt.Errorf("vstore: bad indexed-vertical manifest %+v", *m)
	}
	if !m.Codec && len(m.Dir) != grid.NumCells() {
		return nil, fmt.Errorf("vstore: directory has %d segments for %d cells", len(m.Dir), grid.NumCells())
	}
	units, err := openUnits(d, m.Codec, m.Slots, m.HeapBase, m.HeapBytes, m.Units, m.UnitBytes)
	if err != nil {
		return nil, err
	}
	l := &flipLayout{
		layoutBase: layoutBase{scheme: SchemeIndexedVertical, grid: grid, numNodes: m.NumNodes, units: units, size: m.SizeBytes},
		dir:        make([]segDesc, len(m.Dir)),
	}
	for i, s := range m.Dir {
		l.dir[i] = segDesc{start: s.Start, count: s.Count}
	}
	return l.openCDir(m.CDir)
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

// openCDir completes an opened flip layout: a codec layout loads its cell
// directory, validated against the heap.
func (l *flipLayout) openCDir(ms []CodecSegManifest) (Layout, error) {
	if l.units.codec {
		var err error
		if l.cdir, err = codecDir(ms, l.grid.NumCells(), l.units.heapBytes); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// LayoutManifest implements Layout.
func (l *flipLayout) LayoutManifest() Manifest {
	u := &l.units
	cdir := codecSegManifests(l.cdir)
	if !l.indexed() {
		return Manifest{Scheme: SchemeVertical, Vertical: &VerticalManifest{
			NumNodes:   l.numNodes,
			VPageBytes: u.slots.slotBytes,
			SegBase:    l.segBase,
			SegPages:   l.segPages,
			Slots:      u.slots.manifest(),
			SizeBytes:  l.size,
			Codec:      u.codec,
			HeapBase:   u.heapBase,
			HeapBytes:  u.heapBytes,
			CDir:       cdir,
			Units:      u.units,
			UnitBytes:  u.unitBytes,
		}}
	}
	dir := make([]SegmentManifest, len(l.dir))
	for i, s := range l.dir {
		dir[i] = SegmentManifest{Start: s.start, Count: s.count}
	}
	return Manifest{Scheme: SchemeIndexedVertical, Indexed: &IndexedVerticalManifest{
		NumNodes:   l.numNodes,
		VPageBytes: u.slots.slotBytes,
		Slots:      u.slots.manifest(),
		Dir:        dir,
		SizeBytes:  l.size,
		Codec:      u.codec,
		HeapBase:   u.heapBase,
		HeapBytes:  u.heapBytes,
		CDir:       cdir,
		Units:      u.units,
		UnitBytes:  u.unitBytes,
	}}
}
