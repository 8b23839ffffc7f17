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

// Manifest captures the scheme's layout for saving.
func (h *Horizontal) Manifest() HorizontalManifest {
	return HorizontalManifest{
		NumNodes:   h.numNodes,
		VPageBytes: h.vpageBytes,
		Slots:      h.slots.manifest(),
		SizeBytes:  h.sizeBytes,
		Codec:      h.codec,
		HeapBase:   h.heapBase,
		HeapBytes:  h.heapBytes,
		DirBase:    h.dirBase,
		Units:      h.units,
		UnitBytes:  h.unitBytes,
	}
}

// OpenHorizontal reattaches a saved horizontal scheme.
func OpenHorizontal(d *storage.Disk, grid *cells.Grid, m HorizontalManifest) (*Horizontal, error) {
	if m.Codec {
		return openHorizontalCodec(d, grid, m)
	}
	slots, err := m.Slots.table()
	if err != nil {
		return nil, err
	}
	if m.NumNodes < 1 || m.VPageBytes < 2 {
		return nil, fmt.Errorf("vstore: bad horizontal manifest %+v", m)
	}
	return &Horizontal{
		disk:       d,
		io:         d,
		grid:       grid,
		numNodes:   m.NumNodes,
		slots:      slots,
		vpageBytes: m.VPageBytes,
		sizeBytes:  m.SizeBytes,
		units:      m.Units,
		unitBytes:  m.UnitBytes,
	}, nil
}

// openHorizontalCodec reloads the persisted slot directory (one LE int64
// offset per slot, -1 invisible) and reconstructs unit lengths from the
// offset deltas — exact, because the heap packs units with no padding in
// ascending slot order.
func openHorizontalCodec(d *storage.Disk, grid *cells.Grid, m HorizontalManifest) (*Horizontal, error) {
	if m.NumNodes < 1 || m.HeapBytes < 0 {
		return nil, fmt.Errorf("vstore: bad horizontal codec manifest %+v", m)
	}
	nslots := m.NumNodes * grid.NumCells()
	dirBuf, err := d.PeekBytes(m.DirBase, 8*nslots)
	if err != nil {
		return nil, fmt.Errorf("vstore: horizontal codec directory: %w", err)
	}
	dir := make([]heapRef, nslots)
	prev := -1 // previous visible slot
	for i := 0; i < nslots; i++ {
		off := int64(binary.LittleEndian.Uint64(dirBuf[i*8:]))
		if off == nilSlot {
			continue
		}
		if off < 0 || off >= m.HeapBytes {
			return nil, fmt.Errorf("vstore: horizontal codec directory slot %d offset %d outside heap (%d bytes)", i, off, m.HeapBytes)
		}
		if prev >= 0 {
			n := off - dir[prev].off
			if n < codecMinUnitBytes || n > int64(1)<<31-1 {
				return nil, fmt.Errorf("vstore: horizontal codec directory slot %d: unit length %d out of range", prev, n)
			}
			dir[prev].n = int32(n)
		}
		dir[i].off = off
		prev = i
	}
	if prev >= 0 {
		n := m.HeapBytes - dir[prev].off
		if n < codecMinUnitBytes || n > int64(1)<<31-1 {
			return nil, fmt.Errorf("vstore: horizontal codec directory slot %d: unit length %d out of range", prev, n)
		}
		dir[prev].n = int32(n)
	}
	return &Horizontal{
		disk:      d,
		io:        d,
		grid:      grid,
		numNodes:  m.NumNodes,
		sizeBytes: m.SizeBytes,
		codec:     true,
		heapBase:  m.HeapBase,
		heapBytes: m.HeapBytes,
		dirBase:   m.DirBase,
		dir:       dir,
		units:     m.Units,
		unitBytes: m.UnitBytes,
	}, nil
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

// Manifest captures the scheme's layout for saving.
func (v *Vertical) Manifest() VerticalManifest {
	return VerticalManifest{
		NumNodes:   v.numNodes,
		VPageBytes: v.vpageBytes,
		SegBase:    v.segBase,
		SegPages:   v.segPages,
		Slots:      v.slots.manifest(),
		SizeBytes:  v.size,
		Codec:      v.codec,
		HeapBase:   v.heapBase,
		HeapBytes:  v.heapBytes,
		CDir:       codecSegManifests(v.cdir),
		Units:      v.units,
		UnitBytes:  v.unitBytes,
	}
}

// OpenVertical reattaches a saved vertical scheme.
func OpenVertical(d *storage.Disk, grid *cells.Grid, m VerticalManifest) (*Vertical, error) {
	if m.Codec {
		if m.NumNodes < 1 || m.HeapBytes < 0 {
			return nil, fmt.Errorf("vstore: bad vertical codec manifest %+v", m)
		}
		cdir, err := codecDir(m.CDir, grid.NumCells(), m.HeapBytes)
		if err != nil {
			return nil, err
		}
		return &Vertical{
			disk:      d,
			io:        d,
			grid:      grid,
			numNodes:  m.NumNodes,
			size:      m.SizeBytes,
			codec:     true,
			heapBase:  m.HeapBase,
			heapBytes: m.HeapBytes,
			cdir:      cdir,
			units:     m.Units,
			unitBytes: m.UnitBytes,
		}, nil
	}
	slots, err := m.Slots.table()
	if err != nil {
		return nil, err
	}
	if m.NumNodes < 1 || m.VPageBytes < 2 || m.SegPages < 1 {
		return nil, fmt.Errorf("vstore: bad vertical manifest %+v", m)
	}
	return &Vertical{
		disk:       d,
		io:         d,
		grid:       grid,
		numNodes:   m.NumNodes,
		segBase:    m.SegBase,
		segPages:   m.SegPages,
		slots:      slots,
		vpageBytes: m.VPageBytes,
		size:       m.SizeBytes,
		units:      m.Units,
		unitBytes:  m.UnitBytes,
	}, nil
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

// Manifest captures the scheme's layout for saving.
func (iv *IndexedVertical) Manifest() IndexedVerticalManifest {
	dir := make([]SegmentManifest, len(iv.dir))
	for i, s := range iv.dir {
		dir[i] = SegmentManifest{Start: s.start, Count: s.count}
	}
	return IndexedVerticalManifest{
		NumNodes:   iv.numNodes,
		VPageBytes: iv.vpageBytes,
		Slots:      iv.slots.manifest(),
		Dir:        dir,
		SizeBytes:  iv.size,
		Codec:      iv.codec,
		HeapBase:   iv.heapBase,
		HeapBytes:  iv.heapBytes,
		CDir:       codecSegManifests(iv.cdir),
		Units:      iv.units,
		UnitBytes:  iv.unitBytes,
	}
}

// OpenIndexedVertical reattaches a saved indexed-vertical scheme.
func OpenIndexedVertical(d *storage.Disk, grid *cells.Grid, m IndexedVerticalManifest) (*IndexedVertical, error) {
	if m.Codec {
		if m.NumNodes < 1 || m.HeapBytes < 0 {
			return nil, fmt.Errorf("vstore: bad indexed-vertical codec manifest %+v", m)
		}
		cdir, err := codecDir(m.CDir, grid.NumCells(), m.HeapBytes)
		if err != nil {
			return nil, err
		}
		return &IndexedVertical{
			disk:      d,
			io:        d,
			grid:      grid,
			numNodes:  m.NumNodes,
			size:      m.SizeBytes,
			codec:     true,
			heapBase:  m.HeapBase,
			heapBytes: m.HeapBytes,
			cdir:      cdir,
			units:     m.Units,
			unitBytes: m.UnitBytes,
		}, nil
	}
	slots, err := m.Slots.table()
	if err != nil {
		return nil, err
	}
	if m.NumNodes < 1 || m.VPageBytes < 2 {
		return nil, fmt.Errorf("vstore: bad indexed-vertical manifest %+v", m)
	}
	if len(m.Dir) != grid.NumCells() {
		return nil, fmt.Errorf("vstore: directory has %d segments for %d cells", len(m.Dir), grid.NumCells())
	}
	dir := make([]segDesc, len(m.Dir))
	for i, s := range m.Dir {
		dir[i] = segDesc{start: s.Start, count: s.Count}
	}
	return &IndexedVertical{
		disk:       d,
		io:         d,
		grid:       grid,
		numNodes:   m.NumNodes,
		slots:      slots,
		vpageBytes: m.VPageBytes,
		dir:        dir,
		size:       m.SizeBytes,
		units:      m.Units,
		unitBytes:  m.UnitBytes,
	}, nil
}
