package vstore

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/storage"
)

// Vertical is the §4.2 scheme. A V-page-index file holds one segment per
// cell, each with N_node V-page pointers (nilSlot for invisible nodes).
// The current cell's segment lives in memory; changing cells "flips" the
// segment at size_pointer · N_node / size_page page reads. A cell's
// V-pages are laid out consecutively in depth-first node order, so the
// query's V-page accesses scan nearly sequentially.
//
// Storage cost: size_pointer · N_node · c + size_vpage · N_vnode · c.
type Vertical struct {
	disk *storage.Disk
	// io is the read handle flips and V-page accesses charge to (the disk
	// for the base scheme, a session's client for views).
	io         storage.Reader
	grid       *cells.Grid
	numNodes   int
	segBase    storage.PageID
	segPages   int // pages per segment
	slots      slotTable
	vpageBytes int

	cur     cells.CellID
	hasCell bool
	// table holds the flipped cell's V-page locations (slots, or codec
	// heap offsets); spare is filled by the next flip and swapped in only
	// once it decodes, so a failed flip leaves the current cell intact.
	// rbuf is where flips and V-page reads land.
	table, spare cellTable
	rbuf         readBuf
	flips        int64
	size         int64

	// Codec layout (DESIGN.md §13): each cell is one contiguous heap
	// block — [flip segment][V-page units…] — so a flip plus the query's
	// V-page reads is a single forward scan: one seek where the slot
	// layout pays one for the segment extent and one for the slot run.
	codec     bool
	heapBase  storage.PageID
	heapBytes int64
	cdir      []codecSeg // per cell; off == nilSlot when no visible nodes
	units     int64
	unitBytes int64
}

const pointerBytes = 8

// BuildVertical lays out and writes the vertical scheme for vis in the
// original fixed-slot layout.
func BuildVertical(d *storage.Disk, vis *core.VisData, vpageBytes int) (*Vertical, error) {
	return BuildVerticalOpts(d, vis, Options{VPageBytes: vpageBytes})
}

// buildVerticalCodec lays out the codec variant: one block per cell in
// cell-ID order, each block a pointer segment (visibility bitmap + unit
// lengths) followed immediately by the cell's V-page units in node order.
func buildVerticalCodec(d *storage.Disk, vis *core.VisData) (*Vertical, error) {
	c := vis.Grid.NumCells()
	v := &Vertical{
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
			v.cdir[cell] = codecSeg{off: nilSlot}
			continue
		}
		units := make([][]byte, len(visible))
		lens := make([]int64, vis.NumNodes)
		for i := range lens {
			lens[i] = -1
		}
		var unitsLen int64
		for i, id := range visible {
			unit, err := EncodeVPageC(perNode[id])
			if err != nil {
				return nil, err
			}
			units[i] = unit
			lens[id] = int64(len(unit))
			unitsLen += int64(len(unit))
			v.units++
			v.unitBytes += int64(len(unit))
		}
		seg, err := EncodePointerSegmentC(vis.NumNodes, lens)
		if err != nil {
			return nil, err
		}
		off := hw.append(seg)
		for _, unit := range units {
			hw.append(unit)
		}
		v.cdir[cell] = codecSeg{off: off, segLen: int32(len(seg)), unitsLen: unitsLen}
	}
	base, heapBytes, err := hw.flush(d)
	if err != nil {
		return nil, err
	}
	v.heapBase, v.heapBytes = base, heapBytes
	v.size = heapBytes + codecSegBytes*int64(c)
	return v, nil
}

// BuildVerticalOpts lays out and writes the vertical scheme for vis.
func BuildVerticalOpts(d *storage.Disk, vis *core.VisData, opts Options) (*Vertical, error) {
	if opts.Codec {
		return buildVerticalCodec(d, vis)
	}
	vpb := resolveVPageBytes(d, opts.VPageBytes)
	c := vis.Grid.NumCells()
	totalVisible := 0
	for cell := 0; cell < c; cell++ {
		totalVisible += vis.VisibleNodes(cells.CellID(cell))
	}
	v := &Vertical{
		disk:       d,
		io:         d,
		grid:       vis.Grid,
		numNodes:   vis.NumNodes,
		vpageBytes: vpb,
		slots:      newSlotTable(d, vpb, totalVisible),
	}
	segBytes := pointerBytes * vis.NumNodes
	v.segPages = d.PagesFor(int64(segBytes))
	v.segBase = d.AllocPages(v.segPages * c)
	// Logical footprint per §4.2.
	v.size = int64(segBytes)*int64(c) + int64(vpb)*int64(totalVisible)

	// Per cell: V-pages of visible nodes in node-ID (depth-first
	// preorder) order, at consecutive slots.
	next := int64(0)
	for cell := 0; cell < c; cell++ {
		perNode := vis.PerCell[cells.CellID(cell)]
		visible := visibleIDs(perNode)
		pointers := make([]int64, vis.NumNodes)
		for i := range pointers {
			pointers[i] = nilSlot
		}
		for _, id := range visible {
			buf, err := encodeVPage(perNode[id], vpb)
			if err != nil {
				return nil, err
			}
			if err := v.slots.write(d, next, buf); err != nil {
				return nil, err
			}
			pointers[id] = next
			next++
		}
		seg := make([]byte, segBytes)
		for i, p := range pointers {
			binary.LittleEndian.PutUint64(seg[i*pointerBytes:], uint64(p))
		}
		if err := d.WriteBytes(v.segPage(cells.CellID(cell)), seg); err != nil {
			return nil, err
		}
	}
	v.units = int64(totalVisible)
	v.unitBytes = v.units * int64(vpb)
	return v, nil
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

func (v *Vertical) segPage(cell cells.CellID) storage.PageID {
	return v.segBase + storage.PageID(int(cell)*v.segPages)
}

// Name implements core.VStore.
func (v *Vertical) Name() string { return "vertical" }

// View implements core.VStoreViewer: a per-session view sharing the
// on-disk layout but owning its flipped segment and charging reads to io.
// It copies only the layout, which is immutable after build or open: the
// cursor belongs to whichever query owns v and may be moving right now.
func (v *Vertical) View(io *storage.Client) core.VStore {
	return &Vertical{
		disk:       v.disk,
		io:         io,
		grid:       v.grid,
		numNodes:   v.numNodes,
		segBase:    v.segBase,
		segPages:   v.segPages,
		slots:      v.slots,
		vpageBytes: v.vpageBytes,
		size:       v.size,
		codec:      v.codec,
		heapBase:   v.heapBase,
		heapBytes:  v.heapBytes,
		cdir:       v.cdir,
		units:      v.units,
		unitBytes:  v.unitBytes,
	}
}

// SizeBytes implements core.VStore.
func (v *Vertical) SizeBytes() int64 { return v.size }

// Flips returns how many segment flips have occurred (test hook).
func (v *Vertical) Flips() int64 { return v.flips }

// SetCell implements core.VStore: flipping reads the new cell's segment,
// O(N_node) pages, charged light.
func (v *Vertical) SetCell(cell cells.CellID) error {
	if int(cell) < 0 || int(cell) >= v.grid.NumCells() {
		return fmt.Errorf("vstore: cell %d out of range", cell)
	}
	if v.hasCell && v.cur == cell {
		return nil
	}
	if v.codec {
		return v.setCellCodec(cell)
	}
	buf, err := v.rbuf.read(v.io, v.segPage(cell), pointerBytes*v.numNodes)
	if err != nil {
		return err
	}
	if err := decodePointerSegment(buf, v.numNodes, int64(v.slots.count), &v.spare); err != nil {
		return err
	}
	v.flipTo(cell)
	return nil
}

// flipTo makes the freshly filled spare table the current cell's.
func (v *Vertical) flipTo(cell cells.CellID) {
	v.table, v.spare = v.spare, v.table
	v.cur = cell
	v.hasCell = true
	v.flips++
}

// setCellCodec flips to cell in the codec layout: read the cell's flip
// segment (a short light run at the head of its block) and turn the unit
// lengths into absolute heap offsets. A cell with no visible nodes flips
// with no I/O at all.
func (v *Vertical) setCellCodec(cell cells.CellID) error {
	desc := v.cdir[cell]
	if desc.off == nilSlot {
		v.spare.reset(v.numNodes)
		v.flipTo(cell)
		return nil
	}
	buf, err := readHeapUnit(v.io, v.heapBase, v.heapBytes, heapRef{off: desc.off, n: desc.segLen}, &v.rbuf)
	if err != nil {
		return err
	}
	if err := DecodePointerSegmentC(buf, v.numNodes, desc.unitsBase(), desc.unitsLen, &v.spare); err != nil {
		return err
	}
	v.flipTo(cell)
	return nil
}

// NodeVD implements core.VStore. Invisible nodes are answered from the
// in-memory segment with no I/O; visible nodes cost one V-page read.
func (v *Vertical) NodeVD(id core.NodeID, dst []core.VD) ([]core.VD, bool, error) {
	if !v.hasCell {
		return nil, false, fmt.Errorf("vstore: no current cell")
	}
	if int(id) < 0 || int(id) >= v.numNodes {
		return nil, false, fmt.Errorf("vstore: node %d out of range", id)
	}
	loc, ok := v.table.get(id)
	if !ok {
		return dst, false, nil
	}
	var buf []byte
	var err error
	if v.codec {
		buf, err = readHeapUnit(v.io, v.heapBase, v.heapBytes, heapRef{off: loc.at, n: loc.n}, &v.rbuf)
	} else {
		buf, err = v.slots.read(v.io, loc.at, &v.rbuf)
	}
	if err != nil {
		return nil, false, err
	}
	vd, err := decodeUnit(v.codec, dst, buf)
	if err != nil {
		return nil, false, err
	}
	if len(vd) == len(dst) {
		return nil, false, fmt.Errorf("vstore: node %d pointer to empty V-page", id)
	}
	return vd, true, nil
}

// Codec reports whether this scheme uses the compressed V-page layout.
func (v *Vertical) Codec() bool { return v.codec }

// VPageFootprint reports the stored V-page count and total on-disk bytes.
func (v *Vertical) VPageFootprint() (units, bytes int64) { return v.units, v.unitBytes }

// CodecCheck decodes every codec segment and unit through the unmetered
// peek path, returning the pages of failing units and a problem string
// per failure.
func (v *Vertical) CodecCheck() ([]storage.PageID, []string) {
	if !v.codec {
		return nil, nil
	}
	var bad []storage.PageID
	var problems []string
	var tbl cellTable
	psz := int64(v.disk.PageSize())
	for cell, desc := range v.cdir {
		if desc.off == nilSlot {
			continue
		}
		segRef := heapRef{off: desc.off, n: desc.segLen}
		buf, err := peekHeapUnit(v.disk, v.heapBase, v.heapBytes, segRef)
		if err == nil {
			err = DecodePointerSegmentC(buf, v.numNodes, desc.unitsBase(), desc.unitsLen, &tbl)
		}
		if err != nil {
			if !skipQuarantined(err) {
				problems = append(problems, fmt.Sprintf("vertical cell %d segment: %v", cell, err))
				bad = heapUnitPages(bad, v.heapBase, psz, segRef)
			}
			continue
		}
		for id := 0; id < v.numNodes; id++ {
			loc, ok := tbl.get(core.NodeID(id))
			if !ok {
				continue
			}
			ref := heapRef{off: loc.at, n: loc.n}
			ubuf, err := peekHeapUnit(v.disk, v.heapBase, v.heapBytes, ref)
			if err == nil {
				_, err = DecodeVPageC(nil, ubuf)
			}
			if err != nil && !skipQuarantined(err) {
				problems = append(problems, fmt.Sprintf("vertical cell %d node %d: %v", cell, id, err))
				bad = heapUnitPages(bad, v.heapBase, psz, ref)
			}
		}
	}
	return bad, problems
}
