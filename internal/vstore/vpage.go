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
// a Layout, so callers never switch on the scheme themselves. The
// per-scheme constructors remain for experiments that compare the three
// side by side.
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

// decodeUnit appends the entries of one V-page, in the codec or the
// fixed-slot layout, to dst.
//
// hdov:hot-path
func decodeUnit(codec bool, dst []core.VD, buf []byte) ([]core.VD, error) {
	if codec {
		return DecodeVPageC(dst, buf)
	}
	return decodeVPage(dst, buf)
}

// resolveVPageBytes applies the default V-page size and clamps it to the
// disk page size so a V-page never spans pages.
func resolveVPageBytes(d *storage.Disk, vpageBytes int) int {
	if vpageBytes <= 0 {
		vpageBytes = DefaultVPageBytes
	}
	if vpageBytes > d.PageSize() {
		vpageBytes = d.PageSize()
	}
	return vpageBytes
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

// read fetches slot i through r (the building disk, or a session's
// client) into b, charging one light page read.
func (t slotTable) read(r storage.Reader, i int64, b *readBuf) ([]byte, error) {
	if i < 0 || i >= int64(t.count) {
		return nil, fmt.Errorf("vstore: slot %d out of range (%d)", i, t.count)
	}
	page, err := b.read(r, t.page(i), r.PageSize())
	if err != nil {
		return nil, err
	}
	off := t.offset(i)
	return page[off : off+t.slotBytes : off+t.slotBytes], nil
}

// readBuf is a scheme's one read buffer. Its flip-segment, slot-page and
// codec heap-unit reads all land in it and are decoded at once, before
// the scheme reads again, so no view over it outlives the call that read
// it. Like the cell cursor it belongs to one scheme value: a View starts
// with its own.
type readBuf []byte

// read reads length bytes from page start through r, charged light, into
// b. A pool frame is served in place and leaves b as it was.
func (b *readBuf) read(r storage.Reader, start storage.PageID, length int) ([]byte, error) {
	*b = slices.Grow((*b)[:0], length)
	return r.ReadBytes(start, length, storage.ClassLight, *b)
}
