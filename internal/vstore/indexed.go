package vstore

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/storage"
)

// IndexedVertical is the §4.3 scheme: segments of the V-page-index store
// only the (offset, V-page pointer) pairs of *visible* nodes, so both the
// index size and the flip cost drop from O(N_node) to O(N_vnode). Segments
// are variable-length; a one-to-one directory (cell → segment extent),
// itself tiny, locates them.
//
// Storage cost: (size_pointer + size_integer) · N_vnode · c +
// size_vpage · N_vnode · c, plus the directory.
type IndexedVertical struct {
	disk *storage.Disk
	// io is the read handle flips and V-page accesses charge to (the disk
	// for the base scheme, a session's client for views).
	io         storage.Reader
	grid       *cells.Grid
	numNodes   int
	slots      slotTable
	vpageBytes int

	// dir[cell] locates the cell's segment. Loaded at open time and kept
	// resident, like a file's inode table; its disk footprint counts
	// toward SizeBytes.
	dir []segDesc

	cur     cells.CellID
	hasCell bool
	// table holds the flipped cell's V-page locations (slots, or codec
	// heap references); spare is filled by the next flip and swapped in
	// only once it decodes, so a failed flip leaves the current cell
	// intact. rbuf is where flips and V-page reads land.
	table, spare cellTable
	rbuf         readBuf
	flips        int64
	size         int64

	// Codec layout (DESIGN.md §13): like vertical's, one contiguous
	// block per cell, but the flip segment lists only visible nodes as
	// (id delta, unit length) varint pairs — the §4.3 index with both
	// columns delta/varint packed.
	codec     bool
	heapBase  storage.PageID
	heapBytes int64
	cdir      []codecSeg // per cell; off == nilSlot when no visible nodes
	units     int64
	unitBytes int64
}

type segDesc struct {
	start storage.PageID
	count int32 // visible nodes in the segment
}

// segEntryBytes: u32 node offset + i64 V-page pointer — the paper's
// (size_integer + size_pointer).
const segEntryBytes = 4 + 8

// BuildIndexedVertical lays out and writes the indexed-vertical scheme in
// the original fixed-slot layout.
func BuildIndexedVertical(d *storage.Disk, vis *core.VisData, vpageBytes int) (*IndexedVertical, error) {
	return BuildIndexedVerticalOpts(d, vis, Options{VPageBytes: vpageBytes})
}

// buildIndexedVerticalCodec lays out the codec variant: one block per
// cell — index segment followed by the cell's V-page units in node order.
func buildIndexedVerticalCodec(d *storage.Disk, vis *core.VisData) (*IndexedVertical, error) {
	c := vis.Grid.NumCells()
	iv := &IndexedVertical{
		disk:     d,
		io:       d,
		grid:     vis.Grid,
		numNodes: vis.NumNodes,
		codec:    true,
		cdir:     make([]codecSeg, c),
	}
	var hw heapWriter
	for cell := 0; cell < c; cell++ {
		perNode := vis.PerCell[cells.CellID(cell)]
		visible := visibleIDs(perNode)
		if len(visible) == 0 {
			iv.cdir[cell] = codecSeg{off: nilSlot}
			continue
		}
		units := make([][]byte, len(visible))
		lens := make([]int64, len(visible))
		var unitsLen int64
		for i, id := range visible {
			unit, err := EncodeVPageC(perNode[id])
			if err != nil {
				return nil, err
			}
			units[i] = unit
			lens[i] = int64(len(unit))
			unitsLen += int64(len(unit))
			iv.units++
			iv.unitBytes += int64(len(unit))
		}
		seg, err := EncodeIndexSegmentC(visible, lens)
		if err != nil {
			return nil, err
		}
		off := hw.append(seg)
		for _, unit := range units {
			hw.append(unit)
		}
		iv.cdir[cell] = codecSeg{off: off, segLen: int32(len(seg)), unitsLen: unitsLen}
	}
	base, heapBytes, err := hw.flush(d)
	if err != nil {
		return nil, err
	}
	iv.heapBase, iv.heapBytes = base, heapBytes
	iv.size = heapBytes + codecSegBytes*int64(c)
	return iv, nil
}

// BuildIndexedVerticalOpts lays out and writes the indexed-vertical
// scheme.
func BuildIndexedVerticalOpts(d *storage.Disk, vis *core.VisData, opts Options) (*IndexedVertical, error) {
	if opts.Codec {
		return buildIndexedVerticalCodec(d, vis)
	}
	vpb := resolveVPageBytes(d, opts.VPageBytes)
	c := vis.Grid.NumCells()
	totalVisible := 0
	for cell := 0; cell < c; cell++ {
		totalVisible += vis.VisibleNodes(cells.CellID(cell))
	}
	iv := &IndexedVertical{
		disk:       d,
		io:         d,
		grid:       vis.Grid,
		numNodes:   vis.NumNodes,
		vpageBytes: vpb,
		slots:      newSlotTable(d, vpb, totalVisible),
		dir:        make([]segDesc, c),
	}

	next := int64(0)
	for cell := 0; cell < c; cell++ {
		perNode := vis.PerCell[cells.CellID(cell)]
		visible := visibleIDs(perNode)
		if len(visible) == 0 {
			iv.dir[cell] = segDesc{start: storage.NilPage}
			continue
		}
		seg := make([]byte, segEntryBytes*len(visible))
		for i, id := range visible {
			buf, err := encodeVPage(perNode[id], vpb)
			if err != nil {
				return nil, err
			}
			if err := iv.slots.write(d, next, buf); err != nil {
				return nil, err
			}
			binary.LittleEndian.PutUint32(seg[i*segEntryBytes:], uint32(id))
			binary.LittleEndian.PutUint64(seg[i*segEntryBytes+4:], uint64(next))
			next++
		}
		segPages := d.PagesFor(int64(len(seg)))
		segStart := d.AllocPages(segPages)
		if err := d.WriteBytes(segStart, seg); err != nil {
			return nil, err
		}
		iv.dir[cell] = segDesc{start: segStart, count: int32(len(visible))}
		// Logical footprint per §4.3: (size_pointer + size_integer) ·
		// N_vnode per cell.
		iv.size += int64(len(seg))
	}
	iv.size += int64(vpb) * int64(totalVisible)
	// The directory itself: 12 bytes per cell, stored once.
	dirPages := d.PagesFor(int64(12 * c))
	d.AllocPages(dirPages)
	iv.size += int64(12 * c)
	iv.units = int64(totalVisible)
	iv.unitBytes = iv.units * int64(vpb)
	return iv, nil
}

// Name implements core.VStore.
func (iv *IndexedVertical) Name() string { return "indexed-vertical" }

// View implements core.VStoreViewer: a per-session view sharing the
// on-disk layout and directory but owning its flipped segment map and
// charging reads to io. It copies only the layout, which is immutable
// after build or open: the cursor belongs to whichever query owns iv and
// may be moving right now.
func (iv *IndexedVertical) View(io *storage.Client) core.VStore {
	return &IndexedVertical{
		disk:       iv.disk,
		io:         io,
		grid:       iv.grid,
		numNodes:   iv.numNodes,
		slots:      iv.slots,
		vpageBytes: iv.vpageBytes,
		dir:        iv.dir,
		size:       iv.size,
		codec:      iv.codec,
		heapBase:   iv.heapBase,
		heapBytes:  iv.heapBytes,
		cdir:       iv.cdir,
		units:      iv.units,
		unitBytes:  iv.unitBytes,
	}
}

// SizeBytes implements core.VStore.
func (iv *IndexedVertical) SizeBytes() int64 { return iv.size }

// Flips returns the number of segment flips performed (test hook).
func (iv *IndexedVertical) Flips() int64 { return iv.flips }

// SetCell implements core.VStore: flipping reads only the visible nodes'
// (offset, pointer) pairs — O(N_vnode) I/O (§4.3).
func (iv *IndexedVertical) SetCell(cell cells.CellID) error {
	if int(cell) < 0 || int(cell) >= iv.grid.NumCells() {
		return fmt.Errorf("vstore: cell %d out of range", cell)
	}
	if iv.hasCell && iv.cur == cell {
		return nil
	}
	if iv.codec {
		return iv.setCellCodec(cell)
	}
	desc := iv.dir[cell]
	if desc.start == storage.NilPage || desc.count <= 0 {
		iv.spare.reset(iv.numNodes)
	} else {
		buf, err := iv.rbuf.read(iv.io, desc.start, segEntryBytes*int(desc.count))
		if err != nil {
			return err
		}
		if err := decodeIndexSegment(buf, int(desc.count), iv.numNodes, int64(iv.slots.count), &iv.spare); err != nil {
			return err
		}
	}
	iv.flipTo(cell)
	return nil
}

// flipTo makes the freshly filled spare table the current cell's.
func (iv *IndexedVertical) flipTo(cell cells.CellID) {
	iv.table, iv.spare = iv.spare, iv.table
	iv.cur = cell
	iv.hasCell = true
	iv.flips++
}

// setCellCodec flips to cell in the codec layout: read the cell's index
// segment and decode it straight to absolute heap references. A cell with
// no visible nodes flips with no I/O.
func (iv *IndexedVertical) setCellCodec(cell cells.CellID) error {
	desc := iv.cdir[cell]
	if desc.off == nilSlot {
		iv.spare.reset(iv.numNodes)
	} else {
		buf, err := readHeapUnit(iv.io, iv.heapBase, iv.heapBytes, heapRef{off: desc.off, n: desc.segLen}, &iv.rbuf)
		if err != nil {
			return err
		}
		if err := DecodeIndexSegmentC(buf, iv.numNodes, desc.unitsBase(), desc.unitsLen, &iv.spare); err != nil {
			return err
		}
	}
	iv.flipTo(cell)
	return nil
}

// NodeVD implements core.VStore.
func (iv *IndexedVertical) NodeVD(id core.NodeID, dst []core.VD) ([]core.VD, bool, error) {
	if !iv.hasCell {
		return nil, false, fmt.Errorf("vstore: no current cell")
	}
	if int(id) < 0 || int(id) >= iv.numNodes {
		return nil, false, fmt.Errorf("vstore: node %d out of range", id)
	}
	loc, ok := iv.table.get(id)
	if !ok {
		return dst, false, nil
	}
	var buf []byte
	var err error
	if iv.codec {
		buf, err = readHeapUnit(iv.io, iv.heapBase, iv.heapBytes, heapRef{off: loc.at, n: loc.n}, &iv.rbuf)
	} else {
		buf, err = iv.slots.read(iv.io, loc.at, &iv.rbuf)
	}
	if err != nil {
		return nil, false, err
	}
	vd, err := decodeUnit(iv.codec, dst, buf)
	if err != nil {
		return nil, false, err
	}
	if len(vd) == len(dst) {
		return nil, false, fmt.Errorf("vstore: node %d pointer to empty V-page", id)
	}
	return vd, true, nil
}

// Codec reports whether this scheme uses the compressed V-page layout.
func (iv *IndexedVertical) Codec() bool { return iv.codec }

// VPageFootprint reports the stored V-page count and total on-disk bytes.
func (iv *IndexedVertical) VPageFootprint() (units, bytes int64) { return iv.units, iv.unitBytes }

// CodecCheck decodes every codec segment and unit through the unmetered
// peek path, returning the pages of failing units and a problem string
// per failure.
func (iv *IndexedVertical) CodecCheck() ([]storage.PageID, []string) {
	if !iv.codec {
		return nil, nil
	}
	var bad []storage.PageID
	var problems []string
	var tbl cellTable
	psz := int64(iv.disk.PageSize())
	for cell, desc := range iv.cdir {
		if desc.off == nilSlot {
			continue
		}
		segRef := heapRef{off: desc.off, n: desc.segLen}
		buf, err := peekHeapUnit(iv.disk, iv.heapBase, iv.heapBytes, segRef)
		if err == nil {
			err = DecodeIndexSegmentC(buf, iv.numNodes, desc.unitsBase(), desc.unitsLen, &tbl)
		}
		if err != nil {
			if !skipQuarantined(err) {
				problems = append(problems, fmt.Sprintf("indexed-vertical cell %d segment: %v", cell, err))
				bad = heapUnitPages(bad, iv.heapBase, psz, segRef)
			}
			continue
		}
		for id := 0; id < iv.numNodes; id++ {
			loc, ok := tbl.get(core.NodeID(id))
			if !ok {
				continue
			}
			ref := heapRef{off: loc.at, n: loc.n}
			ubuf, err := peekHeapUnit(iv.disk, iv.heapBase, iv.heapBytes, ref)
			if err == nil {
				_, err = DecodeVPageC(nil, ubuf)
			}
			if err != nil && !skipQuarantined(err) {
				problems = append(problems, fmt.Sprintf("indexed-vertical cell %d node %d: %v", cell, id, err))
				bad = heapUnitPages(bad, iv.heapBase, psz, ref)
			}
		}
	}
	return bad, problems
}
