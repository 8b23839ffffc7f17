package vstore

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/storage"
)

// flipLayout is the layout of the two flip schemes. Both keep a V-page
// index of one segment per cell, which a view reads into memory when the
// viewer changes cells ("flipping"), and both store a cell's V-pages
// together in depth-first node order, so a query's V-page reads scan
// nearly sequentially. They differ only in the segment's format and, in
// the raw layout, where a segment lives:
//
//   - vertical (§4.2): every segment holds N_node V-page pointers (nilSlot
//     for invisible nodes), in fixed-size segments from segBase. A flip
//     reads size_pointer · N_node bytes. Storage cost: size_pointer ·
//     N_node · c + size_vpage · N_vnode · c.
//   - indexed-vertical (§4.3): a segment holds only the (offset, V-page
//     pointer) pairs of visible nodes, so both the index and the flip cost
//     drop from O(N_node) to O(N_vnode). Segments are variable-length; a
//     resident one-to-one directory (cell → segment extent) locates them.
//     Storage cost: (size_pointer + size_integer) · N_vnode · c +
//     size_vpage · N_vnode · c, plus the directory.
//
// In the codec layout (DESIGN.md §13) each cell is one contiguous heap
// block — [flip segment][V-page units…] — located by cdir, so a flip plus
// the query's V-page reads is a single forward scan: one seek where the
// slot layout pays one for the segment extent and one for the slot run.
// The vertical segment is a visibility bitmap plus unit lengths; the
// indexed one lists only visible nodes as (id delta, unit length) varint
// pairs — the §4.3 index with both columns delta/varint packed.
type flipLayout struct {
	layoutBase
	// Raw V-page index: vertical's segments of segPages pages each from
	// segBase, or indexed-vertical's segments located by dir. dir is
	// loaded at open time and kept resident, like a file's inode table;
	// its disk footprint counts toward SizeBytes.
	segBase  storage.PageID
	segPages int
	dir      []segDesc
	// Codec V-page index: each cell's heap block.
	cdir []codecSeg
}

type segDesc struct {
	start storage.PageID
	count int32 // visible nodes in the segment
}

// indexed reports whether the layout is indexed-vertical's (§4.3).
func (l *flipLayout) indexed() bool { return l.scheme == SchemeIndexedVertical }

// buildFlipRaw lays out a flip scheme for vis in the fixed-slot layout:
// each cell's V-pages at consecutive slots, then its segment.
func buildFlipRaw(d *storage.Disk, vis *core.VisData, s Scheme) (*flipLayout, error) {
	vpb := vpageBytes(d)
	c := vis.Grid.NumCells()
	totalVisible := 0
	for cell := 0; cell < c; cell++ {
		totalVisible += vis.VisibleNodes(cells.CellID(cell))
	}
	l := &flipLayout{layoutBase: layoutBase{
		scheme:   s,
		grid:     vis.Grid,
		numNodes: vis.NumNodes,
		units: unitStore{
			disk:      d,
			slots:     newSlotTable(d, vpb, totalVisible),
			units:     int64(totalVisible),
			unitBytes: int64(totalVisible) * int64(vpb),
		},
		size: int64(vpb) * int64(totalVisible),
	}}
	if l.indexed() {
		l.dir = make([]segDesc, c)
	} else {
		segBytes := pointerBytes * vis.NumNodes
		l.segPages = d.PagesFor(int64(segBytes))
		l.segBase = d.AllocPages(l.segPages * c)
		l.size += int64(segBytes) * int64(c)
	}
	next := int64(0)
	for cell := 0; cell < c; cell++ {
		perNode := vis.PerCell[cells.CellID(cell)]
		visible := visibleIDs(perNode)
		first := next
		for _, id := range visible {
			buf, err := encodeVPage(perNode[id], vpb)
			if err != nil {
				return nil, err
			}
			if err := l.units.slots.write(d, next, buf); err != nil {
				return nil, err
			}
			next++
		}
		if err := l.writeSegment(d, cells.CellID(cell), visible, first); err != nil {
			return nil, err
		}
	}
	if l.indexed() {
		// The directory itself: 12 bytes per cell, stored once.
		d.AllocPages(d.PagesFor(int64(12 * c)))
		l.size += int64(12 * c)
	}
	return l, nil
}

// writeSegment writes cell's raw segment, whose visible nodes' V-pages
// sit at consecutive slots from first.
func (l *flipLayout) writeSegment(d *storage.Disk, cell cells.CellID, visible []int, first int64) error {
	if !l.indexed() {
		seg := make([]byte, pointerBytes*l.numNodes)
		nilPtr := nilSlot
		for i := range l.numNodes {
			binary.LittleEndian.PutUint64(seg[i*pointerBytes:], uint64(nilPtr))
		}
		for i, id := range visible {
			binary.LittleEndian.PutUint64(seg[id*pointerBytes:], uint64(first+int64(i)))
		}
		return d.WriteBytes(l.segBase+storage.PageID(int(cell)*l.segPages), seg)
	}
	if len(visible) == 0 {
		l.dir[cell] = segDesc{start: storage.NilPage}
		return nil
	}
	seg := make([]byte, segEntryBytes*len(visible))
	for i, id := range visible {
		binary.LittleEndian.PutUint32(seg[i*segEntryBytes:], uint32(id))
		binary.LittleEndian.PutUint64(seg[i*segEntryBytes+4:], uint64(first+int64(i)))
	}
	start := d.AllocPages(d.PagesFor(int64(len(seg))))
	if err := d.WriteBytes(start, seg); err != nil {
		return err
	}
	l.dir[cell] = segDesc{start: start, count: int32(len(visible))}
	// Logical footprint per §4.3: (size_pointer + size_integer) · N_vnode.
	l.size += int64(len(seg))
	return nil
}

// buildFlipCodec lays out a flip scheme for vis in the codec layout: one
// block per cell in cell-ID order, each a flip segment followed by the
// cell's V-page units in node order.
func buildFlipCodec(d *storage.Disk, vis *core.VisData, s Scheme) (*flipLayout, error) {
	c := vis.Grid.NumCells()
	l := &flipLayout{
		layoutBase: layoutBase{
			scheme:   s,
			grid:     vis.Grid,
			numNodes: vis.NumNodes,
			units:    unitStore{disk: d, codec: true},
		},
		cdir: make([]codecSeg, c),
	}
	var hw heapWriter
	for cell := 0; cell < c; cell++ {
		perNode := vis.PerCell[cells.CellID(cell)]
		visible := visibleIDs(perNode)
		if len(visible) == 0 {
			l.cdir[cell] = codecSeg{off: nilSlot}
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
		}
		seg, err := l.encodeCodecSegment(visible, lens)
		if err != nil {
			return nil, err
		}
		off := hw.append(seg)
		for _, unit := range units {
			hw.append(unit)
		}
		l.cdir[cell] = codecSeg{off: off, segLen: int32(len(seg)), unitsLen: unitsLen}
		l.units.units += int64(len(visible))
		l.units.unitBytes += unitsLen
	}
	base, heapBytes, err := hw.flush(d)
	if err != nil {
		return nil, err
	}
	l.units.heapBase, l.units.heapBytes = base, heapBytes
	l.size = heapBytes + codecSegBytes*int64(c)
	return l, nil
}

// encodeCodecSegment encodes a cell's codec flip segment from its visible
// nodes and their unit lengths.
func (l *flipLayout) encodeCodecSegment(visible []int, lens []int64) ([]byte, error) {
	if l.indexed() {
		return EncodeIndexSegmentC(visible, lens)
	}
	all := make([]int64, l.numNodes)
	for i := range all {
		all[i] = -1
	}
	for i, id := range visible {
		all[id] = lens[i]
	}
	return EncodePointerSegmentC(l.numNodes, all)
}

// visibleIDs returns the IDs with non-nil VD in ascending (DFS) order.
func visibleIDs(perNode [][]core.VD) []int {
	var ids []int
	for id, vd := range perNode {
		if vd != nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// segment locates cell's flip segment: n bytes starting skip bytes into
// page. n == 0 means the cell has no segment and flips with no I/O.
func (l *flipLayout) segment(cell cells.CellID) (page storage.PageID, skip, n int) {
	switch {
	case l.units.codec:
		desc := l.cdir[cell]
		if desc.off == nilSlot {
			return 0, 0, 0
		}
		page, skip = l.units.heapAt(desc.off)
		return page, skip, int(desc.segLen)
	case l.indexed():
		desc := l.dir[cell]
		if desc.start == storage.NilPage || desc.count <= 0 {
			return 0, 0, 0
		}
		return desc.start, 0, segEntryBytes * int(desc.count)
	}
	return l.segBase + storage.PageID(int(cell)*l.segPages), 0, pointerBytes * l.numNodes
}

// decodeSegment parses cell's flip segment into dst, validating every
// V-page location it yields against the unit store.
//
// hdov:hot-path
func (l *flipLayout) decodeSegment(cell cells.CellID, buf []byte, dst *cellTable) error {
	if l.units.codec {
		desc := l.cdir[cell]
		if l.indexed() {
			return DecodeIndexSegmentC(buf, l.numNodes, desc.unitsBase(), desc.unitsLen, dst)
		}
		return DecodePointerSegmentC(buf, l.numNodes, desc.unitsBase(), desc.unitsLen, dst)
	}
	if l.indexed() {
		return decodeIndexSegment(buf, int(l.dir[cell].count), l.numNodes, int64(l.units.slots.count), dst)
	}
	return decodePointerSegment(buf, l.numNodes, int64(l.units.slots.count), dst)
}

// View implements core.VStoreLayout.
func (l *flipLayout) View(io *storage.Client) core.VStore {
	return &flipCursor{flipLayout: l, io: io}
}

// CodecCheck implements Layout.
func (l *flipLayout) CodecCheck() ([]storage.PageID, []string) {
	c := codecCheck{u: &l.units}
	var tbl cellTable
	for cell, desc := range l.cdir {
		if desc.off == nilSlot {
			continue
		}
		seg := heapRef{off: desc.off, n: desc.segLen}
		decode := func(buf []byte) error { return l.decodeSegment(cells.CellID(cell), buf, &tbl) }
		if !c.unit(seg, decode, "%s cell %d segment", l.Name(), cell) {
			continue
		}
		for id := 0; id < l.numNodes; id++ {
			if loc, ok := tbl.get(core.NodeID(id)); ok {
				c.unit(heapRef{off: loc.at, n: loc.n}, checkVPage, "%s cell %d node %d", l.Name(), cell, id)
			}
		}
	}
	return c.bad, c.problems
}

// flipCursor reads a flip layout: the current cell's segment, flipped
// into memory, and the V-page reads it locates.
type flipCursor struct {
	*flipLayout
	io      *storage.Client
	cur     cells.CellID
	hasCell bool
	// table holds the flipped cell's V-page locations; spare is filled by
	// the next flip and swapped in only once it decodes, so a failed flip
	// leaves the current cell intact. rbuf is where flips and V-page
	// reads land.
	table, spare cellTable
	rbuf         readBuf
	flips        int64
}

// Flips returns how many segment flips have occurred (test hook).
func (c *flipCursor) Flips() int64 { return c.flips }

// SetCell implements core.VStore: flipping reads the new cell's segment —
// O(N_node) pages for vertical, O(N_vnode) for indexed-vertical — charged
// light.
func (c *flipCursor) SetCell(cell cells.CellID) error {
	if uint(cell) >= uint(c.grid.NumCells()) {
		return badCell(cell)
	}
	if c.hasCell && c.cur == cell {
		return nil
	}
	if page, skip, n := c.segment(cell); n == 0 {
		c.spare.reset(c.numNodes)
	} else {
		buf, err := c.rbuf.read(c.io, page, skip+n)
		if err != nil {
			return err
		}
		if err := c.decodeSegment(cell, buf[skip:skip+n], &c.spare); err != nil {
			return err
		}
	}
	c.table, c.spare = c.spare, c.table
	c.cur = cell
	c.hasCell = true
	c.flips++
	return nil
}

// NodeVD implements core.VStore. Invisible nodes are answered from the
// flipped segment with no I/O; visible nodes cost one V-page read.
//
// hdov:hot-path
func (c *flipCursor) NodeVD(id core.NodeID, dst []core.VD) ([]core.VD, bool, error) {
	if !c.hasCell || uint(id) >= uint(c.numNodes) {
		return nil, false, c.badNode(c.hasCell, id)
	}
	loc, ok := c.table.get(id)
	if !ok {
		return dst, false, nil
	}
	vd, err := c.units.readVD(c.io, loc.at, loc.n, dst, &c.rbuf)
	if err != nil {
		return nil, false, err
	}
	if len(vd) == len(dst) {
		return nil, false, fmt.Errorf("vstore: node %d pointer to empty V-page", id)
	}
	return vd, true, nil
}
