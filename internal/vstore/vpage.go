// Package vstore implements the three on-disk layouts of the HDoV-tree's
// view-variant visibility data (§4 of the paper):
//
//   - Horizontal (§4.1): every node points to an array of V-pages indexed
//     by cell ID. One V-page access per node query, but storage is
//     size_vpage · c · N_node — V-pages exist even for cells where the
//     node is invisible, and the V-pages of one cell are scattered.
//   - Vertical (§4.2): a V-page-index holds, per cell, a segment of N_node
//     V-page pointers (nil for invisible nodes); the current cell's
//     segment is memory-resident and "flipped" on cell change at
//     O(N_node) I/O. V-pages of a cell are stored together in depth-first
//     node order, so a query's V-page reads are nearly sequential.
//   - Indexed-vertical (§4.3): like vertical, but segments store only
//     (offset, pointer) pairs of *visible* nodes, shrinking both the index
//     and the flip cost to O(N_vnode).
//
// V-pages are fixed-size records (DefaultVPageBytes) packed into disk
// pages without crossing page boundaries; accessing a V-page costs one
// disk-page read, matching the paper's "a visibility query to a node costs
// one V-page access". All three schemes serve the same core.VStore
// interface and return byte-identical VD data; integration tests assert
// exactly that.
//
// A database serves one layout. Build and Open are its single entry
// point: they take a Scheme (or a Manifest that records one) and return
// a Layout, so callers never switch on the scheme themselves. A Layout is
// immutable and never reads by itself: View returns the reader, a cell
// cursor and read buffer charging one storage.Client. The three schemes
// differ only in their V-page index — how a cell finds a node's V-page;
// the V-pages themselves, and how one is read, live in one unitStore,
// the only place that knows whether they are fixed slots or codec units.
package vstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/storage"
)

// vdBytes is the encoded size of one V-entry: f64 DoV + i32 NVO.
const vdBytes = 12

// DefaultVPageBytes is the fixed V-page record size: header plus room for
// 20 entries, comfortably above the default R-tree fan-out. The paper's
// Table 2 numbers imply V-pages of a few hundred bytes (4 GB = size_vpage
// · c · N_node with c ≈ 4000).
const DefaultVPageBytes = 256

// encodeVPage packs VD entries into a fixed-size V-page buffer:
// u16 count | count × (f64 DoV, u32 NVO).
func encodeVPage(vd []core.VD, pageBytes int) ([]byte, error) {
	need := 2 + len(vd)*vdBytes
	if need > pageBytes {
		return nil, fmt.Errorf("vstore: %d entries need %d bytes, V-page holds %d", len(vd), need, pageBytes)
	}
	buf := make([]byte, need)
	binary.LittleEndian.PutUint16(buf[0:], uint16(len(vd)))
	off := 2
	for _, v := range vd {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v.DoV))
		binary.LittleEndian.PutUint32(buf[off+8:], uint32(v.NVO))
		off += vdBytes
	}
	return buf, nil
}

// decodeVPage unpacks a V-page buffer, appending its entries to dst (a
// buffer the caller owns) and returning the extended slice. A zero count
// (including an all-zero, never-written page) appends nothing.
//
// hdov:hot-path
func decodeVPage(dst []core.VD, buf []byte) ([]core.VD, error) {
	if len(buf) < 2 {
		return nil, errors.New("vstore: V-page shorter than header")
	}
	n := int(binary.LittleEndian.Uint16(buf[0:]))
	if n == 0 {
		return dst, nil
	}
	if len(buf) < 2+n*vdBytes {
		return nil, fmt.Errorf("vstore: V-page truncated: %d entries, %d bytes", n, len(buf))
	}
	base := len(dst)
	vd := slices.Grow(dst, n)[:base+n]
	off := 2
	for i := base; i < len(vd); i++ {
		vd[i].DoV = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		vd[i].NVO = int32(binary.LittleEndian.Uint32(buf[off+8:]))
		off += vdBytes
	}
	return vd, nil
}

// vpageBytes is the fixed V-page size of the raw layout on d: the default,
// clamped to the disk page so a V-page never spans pages.
func vpageBytes(d *storage.Disk) int {
	return min(DefaultVPageBytes, d.PageSize())
}

// slotTable is a dense array of fixed-size V-page slots packed into disk
// pages so that no slot crosses a page boundary. Slot i lives in page
// base + i/perPage at byte offset (i%perPage)·slotBytes.
type slotTable struct {
	base      storage.PageID
	slotBytes int
	perPage   int
	count     int
}

// nilSlot marks "no V-page" in the schemes' pointer structures.
const nilSlot int64 = -1

// newSlotTable allocates a table of count slots on d.
func newSlotTable(d *storage.Disk, slotBytes, count int) slotTable {
	perPage := d.PageSize() / slotBytes
	if perPage < 1 {
		perPage = 1
	}
	pages := (count + perPage - 1) / perPage
	if pages < 1 {
		pages = 1
	}
	return slotTable{
		base:      d.AllocPages(pages),
		slotBytes: slotBytes,
		perPage:   perPage,
		count:     count,
	}
}

// page returns the disk page holding slot i.
func (t slotTable) page(i int64) storage.PageID {
	return t.base + storage.PageID(i/int64(t.perPage))
}

// offset returns the byte offset of slot i within its page.
func (t slotTable) offset(i int64) int {
	return int(i%int64(t.perPage)) * t.slotBytes
}

// write stores buf (at most slotBytes) into slot i, preserving the other
// slots of the same page.
func (t slotTable) write(d *storage.Disk, i int64, buf []byte) error {
	if i < 0 || i >= int64(t.count) {
		return fmt.Errorf("vstore: slot %d out of range (%d)", i, t.count)
	}
	if len(buf) > t.slotBytes {
		return fmt.Errorf("vstore: %d bytes exceed slot size %d", len(buf), t.slotBytes)
	}
	pageID := t.page(i)
	page, err := d.PeekBytes(pageID, d.PageSize())
	if err != nil {
		return err
	}
	copy(page[t.offset(i):], buf)
	return d.WritePage(pageID, page)
}

// readBuf is a view's one read buffer. Its flip-segment, slot-page and
// codec heap-unit reads all land in it and are decoded at once, before
// the view reads again, so no slice of it outlives the call that read
// it. Like the cell cursor it belongs to one view: a layout has none.
type readBuf []byte

// read reads length bytes from page start through io, charged light,
// into b. A pool frame is served in place and leaves b as it was.
func (b *readBuf) read(io *storage.Client, start storage.PageID, length int) ([]byte, error) {
	*b = slices.Grow((*b)[:0], length)
	return io.ReadBytes(start, length, storage.ClassLight, *b)
}

// unitStore holds a layout's V-pages and is the one place that knows how
// they are stored: as fixed-size slots (raw), or as variable-length,
// CRC-sealed units packed into a byte heap (codec, DESIGN.md §13). It
// locates, reads, peeks, decodes, sizes and checks a unit; the schemes
// only decide which unit a (node, cell) pair names. A unit is named by
// (at, n): a slot index with n == 0, or a heap offset and exact length.
type unitStore struct {
	disk      *storage.Disk
	codec     bool
	slots     slotTable      // raw
	heapBase  storage.PageID // codec
	heapBytes int64
	// units and unitBytes count the stored V-pages and their on-disk
	// bytes (VPageFootprint).
	units     int64
	unitBytes int64
}

// VPageFootprint reports the stored V-page count and their total on-disk
// byte footprint — the numerator and denominator of the vpagecodec
// experiment's bytes-per-V-page metric.
func (u *unitStore) VPageFootprint() (units, bytes int64) { return u.units, u.unitBytes }

// heapAt returns the page holding heap byte off and off's offset in it.
func (u *unitStore) heapAt(off int64) (storage.PageID, int) {
	psz := int64(u.disk.PageSize())
	return u.heapBase + storage.PageID(off/psz), int(off % psz)
}

// inHeap validates a codec unit reference against the heap bounds.
func (u *unitStore) inHeap(ref heapRef) error {
	if ref.off < 0 || ref.n < int32(codecMinUnitBytes) || ref.off+int64(ref.n) > u.heapBytes {
		return codecErrf("heap unit [%d,%d) outside heap (%d bytes)", ref.off, ref.off+int64(ref.n), u.heapBytes)
	}
	return nil
}

// readVD reads unit (at, n) through io into b and appends its entries to
// dst. A raw slot costs one light page read; a codec unit is one short
// sequential light run starting at its first page, so the simulated
// transfer cost is paid on encoded bytes.
//
// hdov:hot-path
func (u *unitStore) readVD(io *storage.Client, at int64, n int32, dst []core.VD, b *readBuf) ([]core.VD, error) {
	var page storage.PageID
	var skip, span int
	if u.codec {
		if err := u.inHeap(heapRef{off: at, n: n}); err != nil {
			return nil, err
		}
		page, skip = u.heapAt(at)
		span = skip + int(n)
	} else {
		if at < 0 || at >= int64(u.slots.count) {
			return nil, fmt.Errorf("vstore: slot %d out of range (%d)", at, u.slots.count)
		}
		page, skip, n = u.slots.page(at), u.slots.offset(at), int32(u.slots.slotBytes)
		span = io.PageSize()
	}
	buf, err := b.read(io, page, span)
	if err != nil {
		return nil, err
	}
	buf = buf[skip : skip+int(n) : skip+int(n)]
	if u.codec {
		return DecodeVPageC(dst, buf)
	}
	return decodeVPage(dst, buf)
}

// peek is a codec heap read against the disk's unmetered PeekBytes —
// fsck's codec walk must not pollute the experiment counters.
func (u *unitStore) peek(ref heapRef) ([]byte, error) {
	if err := u.inHeap(ref); err != nil {
		return nil, err
	}
	page, skip := u.heapAt(ref.off)
	buf, err := u.disk.PeekBytes(page, skip+int(ref.n))
	if err != nil {
		return nil, err
	}
	return buf[skip:], nil
}

// codecCheck collects what a layout's CodecCheck walk finds: the pages
// of units that fail validation and one problem string per failure.
type codecCheck struct {
	u        *unitStore
	bad      []storage.PageID
	problems []string
}

// unit peeks the codec unit at ref and decodes it, recording a failure
// under the label format/args. A fail-fast read of an already
// quarantined page is known, neutralized damage and is not re-reported.
// unit reports whether the unit decoded.
func (c *codecCheck) unit(ref heapRef, decode func([]byte) error, format string, args ...any) bool {
	buf, err := c.u.peek(ref)
	if err == nil {
		err = decode(buf)
	}
	if err == nil {
		return true
	}
	if !skipQuarantined(err) {
		c.problems = append(c.problems, fmt.Sprintf(format+": %v", append(args, err)...))
		psz := int64(c.u.disk.PageSize())
		first := c.u.heapBase + storage.PageID(ref.off/psz)
		last := c.u.heapBase + storage.PageID((ref.off+int64(ref.n)-1)/psz)
		for p := first; p <= last; p++ {
			if !slices.Contains(c.bad, p) {
				c.bad = append(c.bad, p)
			}
		}
	}
	return false
}

// checkVPage decodes one codec V-page unit, discarding its entries.
func checkVPage(buf []byte) error {
	_, err := DecodeVPageC(nil, buf)
	return err
}
