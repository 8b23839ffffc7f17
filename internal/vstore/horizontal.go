package vstore

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/storage"
)

// Horizontal is the §4.1 scheme: node-major V-page arrays indexed by cell.
// Storage cost: size_vpage · c · N_node. Query cost: one V-page access per
// node, but the V-pages of one cell are far apart on disk (stride c), so
// walking a cell's visible nodes seeks for every access — the reason the
// horizontal scheme "performs the worst" in Figure 7.
type Horizontal struct {
	disk *storage.Disk
	// io is the read handle V-page accesses charge to: the disk itself for
	// the base scheme, a session's client for views (see View).
	io         storage.Reader
	grid       *cells.Grid
	numNodes   int
	slots      slotTable
	vpageBytes int
	cur        cells.CellID
	hasCell    bool
	rbuf       readBuf // where V-page reads land
	sizeBytes  int64

	// Codec layout (DESIGN.md §13): variable-length units packed into a
	// byte heap in node-major (ascending slot) order, located by a
	// resident directory instead of fixed slots. The directory is
	// persisted at dirBase as one little-endian int64 offset per slot
	// (-1 for invisible); unit lengths are reconstructed from the offset
	// deltas, exact because the heap has no padding.
	codec     bool
	heapBase  storage.PageID
	heapBytes int64
	dirBase   storage.PageID
	dir       []heapRef // slot → unit; n == 0 marks invisible
	units     int64
	unitBytes int64
}

// BuildHorizontal lays out and writes the horizontal scheme for vis in
// the original fixed-slot layout.
func BuildHorizontal(d *storage.Disk, vis *core.VisData, vpageBytes int) (*Horizontal, error) {
	return BuildHorizontalOpts(d, vis, Options{VPageBytes: vpageBytes})
}

// BuildHorizontalOpts lays out and writes the horizontal scheme for vis.
func BuildHorizontalOpts(d *storage.Disk, vis *core.VisData, opts Options) (*Horizontal, error) {
	if opts.Codec {
		return buildHorizontalCodec(d, vis)
	}
	vpb := resolveVPageBytes(d, opts.VPageBytes)
	c := vis.Grid.NumCells()
	h := &Horizontal{
		disk:       d,
		io:         d,
		grid:       vis.Grid,
		numNodes:   vis.NumNodes,
		vpageBytes: vpb,
		slots:      newSlotTable(d, vpb, vis.NumNodes*c),
		// Table 2 reports the logical footprint: size_vpage · c · N_node.
		sizeBytes: int64(vpb) * int64(c) * int64(vis.NumNodes),
	}
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
			if err := h.slots.write(d, h.slotOf(core.NodeID(id), cell), buf); err != nil {
				return nil, err
			}
		}
		h.units += int64(vis.VisibleNodes(cell))
	}
	h.unitBytes = h.units * int64(vpb)
	return h, nil
}

// buildHorizontalCodec lays out the codec variant: units packed in
// node-major order — the same scatter character as the slot layout (one
// cell's units are still strided by c across the heap), just denser — and
// a resident directory persisted after the heap. Invisible (node, cell)
// pairs occupy no heap bytes at all, where the slot layout reserves a
// full V-page for them.
func buildHorizontalCodec(d *storage.Disk, vis *core.VisData) (*Horizontal, error) {
	c := vis.Grid.NumCells()
	h := &Horizontal{
		disk:     d,
		io:       d,
		grid:     vis.Grid,
		numNodes: vis.NumNodes,
		codec:    true,
		dir:      make([]heapRef, vis.NumNodes*c),
	}
	var hw heapWriter
	for id := 0; id < vis.NumNodes; id++ {
		for ci := 0; ci < c; ci++ {
			perNode := vis.PerCell[cells.CellID(ci)]
			if id >= len(perNode) || perNode[id] == nil {
				continue
			}
			unit, err := EncodeVPageC(perNode[id])
			if err != nil {
				return nil, err
			}
			off := hw.append(unit)
			h.dir[h.slotOf(core.NodeID(id), cells.CellID(ci))] = heapRef{off: off, n: int32(len(unit))}
			h.units++
			h.unitBytes += int64(len(unit))
		}
	}
	base, heapBytes, err := hw.flush(d)
	if err != nil {
		return nil, err
	}
	h.heapBase, h.heapBytes = base, heapBytes
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
		return nil, err
	}
	h.sizeBytes = heapBytes + int64(len(dirBuf))
	return h, nil
}

// slotOf returns the V-page slot for (node, cell): node-major layout, one
// slot per cell.
func (h *Horizontal) slotOf(id core.NodeID, cell cells.CellID) int64 {
	return int64(id)*int64(h.grid.NumCells()) + int64(cell)
}

// Name implements core.VStore.
func (h *Horizontal) Name() string { return "horizontal" }

// View implements core.VStoreViewer: a per-session view sharing the
// on-disk layout but owning its cell cursor and charging reads to io. It
// copies only the layout, which is immutable after build or open: the
// cursor belongs to whichever query owns h and may be moving right now.
func (h *Horizontal) View(io *storage.Client) core.VStore {
	return &Horizontal{
		disk:       h.disk,
		io:         io,
		grid:       h.grid,
		numNodes:   h.numNodes,
		slots:      h.slots,
		vpageBytes: h.vpageBytes,
		sizeBytes:  h.sizeBytes,
		codec:      h.codec,
		heapBase:   h.heapBase,
		heapBytes:  h.heapBytes,
		dirBase:    h.dirBase,
		dir:        h.dir,
		units:      h.units,
		unitBytes:  h.unitBytes,
	}
}

// SizeBytes implements core.VStore — the Table 2 storage cost.
func (h *Horizontal) SizeBytes() int64 { return h.sizeBytes }

// SetCell implements core.VStore. The horizontal scheme has no per-cell
// segment; switching cells is free.
func (h *Horizontal) SetCell(cell cells.CellID) error {
	if int(cell) < 0 || int(cell) >= h.grid.NumCells() {
		return fmt.Errorf("vstore: cell %d out of range", cell)
	}
	h.cur = cell
	h.hasCell = true
	return nil
}

// NodeVD implements core.VStore: one V-page read per call (§4.1: "A
// visibility query to a node costs one V-page access only").
func (h *Horizontal) NodeVD(id core.NodeID, dst []core.VD) ([]core.VD, bool, error) {
	if !h.hasCell {
		return nil, false, fmt.Errorf("vstore: no current cell")
	}
	if int(id) < 0 || int(id) >= h.numNodes {
		return nil, false, fmt.Errorf("vstore: node %d out of range", id)
	}
	slot := h.slotOf(id, h.cur)
	var buf []byte
	var err error
	if h.codec {
		// The resident directory answers invisible nodes with no I/O —
		// the slot layout's zero-filled V-page read disappears entirely.
		ref := h.dir[slot]
		if ref.n == 0 {
			return dst, false, nil
		}
		buf, err = readHeapUnit(h.io, h.heapBase, h.heapBytes, ref, &h.rbuf)
	} else {
		buf, err = h.slots.read(h.io, slot, &h.rbuf)
	}
	if err != nil {
		return nil, false, err
	}
	vd, err := decodeUnit(h.codec, dst, buf)
	if err != nil {
		return nil, false, err
	}
	return vd, len(vd) > len(dst), nil
}

// Codec reports whether this scheme uses the compressed V-page layout.
func (h *Horizontal) Codec() bool { return h.codec }

// VPageFootprint reports the stored V-page count and their total on-disk
// byte footprint — the numerator and denominator of the vpagecodec
// experiment's bytes-per-V-page metric.
func (h *Horizontal) VPageFootprint() (units, bytes int64) { return h.units, h.unitBytes }

// CodecCheck decodes every codec unit through the unmetered peek path,
// returning the disk pages of units that fail validation and one problem
// string per failure. Raw-layout schemes have nothing to check.
func (h *Horizontal) CodecCheck() ([]storage.PageID, []string) {
	if !h.codec {
		return nil, nil
	}
	var bad []storage.PageID
	var problems []string
	psz := int64(h.disk.PageSize())
	for slot, ref := range h.dir {
		if ref.n == 0 {
			continue
		}
		buf, err := peekHeapUnit(h.disk, h.heapBase, h.heapBytes, ref)
		if err == nil {
			_, err = DecodeVPageC(nil, buf)
		}
		if err != nil && !skipQuarantined(err) {
			problems = append(problems, fmt.Sprintf("horizontal slot %d: %v", slot, err))
			bad = heapUnitPages(bad, h.heapBase, psz, ref)
		}
	}
	return bad, problems
}
