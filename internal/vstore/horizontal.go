package vstore

import (
	"encoding/binary"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/storage"
)

// horizontal is the §4.1 scheme: node-major V-page arrays indexed by cell.
// Storage cost: size_vpage · c · N_node. Query cost: one V-page access per
// node, but the V-pages of one cell are far apart on disk (stride c), so
// walking a cell's visible nodes seeks for every access — the reason the
// horizontal scheme "performs the worst" in Figure 7.
type horizontal struct {
	layoutBase
	// Codec layout (DESIGN.md §13): units packed into the heap in
	// node-major (ascending slot) order, located by a resident directory
	// instead of fixed slots. The directory is persisted at dirBase as one
	// little-endian int64 offset per slot (-1 for invisible); unit lengths
	// are reconstructed from the offset deltas, exact because the heap has
	// no padding.
	dirBase storage.PageID
	dir     []heapRef // slot → unit; n == 0 marks invisible
}

// buildHorizontal lays out and writes the horizontal scheme for vis.
func buildHorizontal(d *storage.Disk, vis *core.VisData, codec bool) (*horizontal, error) {
	c := vis.Grid.NumCells()
	h := &horizontal{layoutBase: layoutBase{
		scheme:   SchemeHorizontal,
		grid:     vis.Grid,
		numNodes: vis.NumNodes,
		units:    unitStore{disk: d, codec: codec},
	}}
	if codec {
		return h, h.buildCodec(d, vis)
	}
	vpb := vpageBytes(d)
	h.units.slots = newSlotTable(d, vpb, vis.NumNodes*c)
	// Table 2 reports the logical footprint: size_vpage · c · N_node.
	h.size = int64(vpb) * int64(c) * int64(vis.NumNodes)
	// Cells are laid down in ID order (not map order) so the build's
	// write sequence — and therefore the disk image byte stream — is
	// identical on every run.
	for ci := 0; ci < c; ci++ {
		cell := cells.CellID(ci)
		for id, vd := range vis.PerCell[cell] {
			if vd == nil {
				continue // invisible: the reserved V-page stays zero-filled
			}
			buf, err := encodeVPage(vd, vpb)
			if err != nil {
				return nil, err
			}
			if err := h.units.slots.write(d, h.slotOf(core.NodeID(id), cell), buf); err != nil {
				return nil, err
			}
		}
		h.units.units += int64(vis.VisibleNodes(cell))
	}
	h.units.unitBytes = h.units.units * int64(vpb)
	return h, nil
}

// buildCodec lays out the codec variant: units packed in node-major
// order — the same scatter character as the slot layout (one cell's units
// are still strided by c across the heap), just denser — and a resident
// directory persisted after the heap. Invisible (node, cell) pairs occupy
// no heap bytes at all, where the slot layout reserves a full V-page for
// them.
func (h *horizontal) buildCodec(d *storage.Disk, vis *core.VisData) error {
	c := vis.Grid.NumCells()
	h.dir = make([]heapRef, vis.NumNodes*c)
	var hw heapWriter
	for id := 0; id < vis.NumNodes; id++ {
		for ci := 0; ci < c; ci++ {
			perNode := vis.PerCell[cells.CellID(ci)]
			if id >= len(perNode) || perNode[id] == nil {
				continue
			}
			unit, err := EncodeVPageC(perNode[id])
			if err != nil {
				return err
			}
			off := hw.append(unit)
			h.dir[h.slotOf(core.NodeID(id), cells.CellID(ci))] = heapRef{off: off, n: int32(len(unit))}
			h.units.units++
			h.units.unitBytes += int64(len(unit))
		}
	}
	base, heapBytes, err := hw.flush(d)
	if err != nil {
		return err
	}
	h.units.heapBase, h.units.heapBytes = base, heapBytes
	// Persist the directory: 8 bytes per slot, -1 for invisible.
	dirBuf := make([]byte, 8*len(h.dir))
	for i, ref := range h.dir {
		off := ref.off
		if ref.n == 0 {
			off = nilSlot
		}
		binary.LittleEndian.PutUint64(dirBuf[i*8:], uint64(off))
	}
	h.dirBase = d.AllocPages(d.PagesFor(int64(len(dirBuf))))
	if err := d.WriteBytes(h.dirBase, dirBuf); err != nil {
		return err
	}
	h.size = heapBytes + int64(len(dirBuf))
	return nil
}

// slotOf returns the V-page slot for (node, cell): node-major layout, one
// slot per cell.
func (h *horizontal) slotOf(id core.NodeID, cell cells.CellID) int64 {
	return int64(id)*int64(h.grid.NumCells()) + int64(cell)
}

// View implements core.VStoreLayout.
func (h *horizontal) View(io *storage.Client) core.VStore {
	return &horizontalView{horizontal: h, io: io}
}

// CodecCheck implements Layout.
func (h *horizontal) CodecCheck() ([]storage.PageID, []string) {
	c := codecCheck{u: &h.units}
	for slot, ref := range h.dir {
		if ref.n != 0 {
			c.unit(ref, checkVPage, "horizontal slot %d", slot)
		}
	}
	return c.bad, c.problems
}

// horizontalView reads a horizontal layout. The scheme has no per-cell
// segment, so its cursor is just the current cell.
type horizontalView struct {
	*horizontal
	io      *storage.Client
	cur     cells.CellID
	hasCell bool
	rbuf    readBuf
}

// SetCell implements core.VStore: switching cells is free.
func (v *horizontalView) SetCell(cell cells.CellID) error {
	if uint(cell) >= uint(v.grid.NumCells()) {
		return badCell(cell)
	}
	v.cur = cell
	v.hasCell = true
	return nil
}

// NodeVD implements core.VStore: one V-page read per call (§4.1: "A
// visibility query to a node costs one V-page access only").
func (v *horizontalView) NodeVD(id core.NodeID, dst []core.VD) ([]core.VD, bool, error) {
	if !v.hasCell || uint(id) >= uint(v.numNodes) {
		return nil, false, v.badNode(v.hasCell, id)
	}
	at, n := v.slotOf(id, v.cur), int32(0)
	if v.dir != nil {
		// The codec directory answers invisible nodes with no I/O — the
		// slot layout's zero-filled V-page read disappears entirely.
		ref := v.dir[at]
		if ref.n == 0 {
			return dst, false, nil
		}
		at, n = ref.off, ref.n
	}
	vd, err := v.units.readVD(v.io, at, n, dst, &v.rbuf)
	if err != nil {
		return nil, false, err
	}
	return vd, len(vd) > len(dst), nil
}
