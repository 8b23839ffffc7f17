package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Epoch delta image: the pages an incremental update appended, serialized
// so a dynamic database can commit an epoch without rewriting its base
// image. The update path only ever writes freshly allocated pages, so the
// pages at IDs >= the previous epoch's allocation watermark are exactly
// the epoch's changes; applying them to the reopened base reproduces the
// post-update disk bit for bit.
//
//	u32 magic | u16 version | u16 reserved | u32 pageSize
//	u64 from (allocation watermark the delta starts at)
//	u64 allocated (total allocation after the delta)
//	u64 storedPages
//	storedPages × (u64 pageID | pageSize bytes)
//	u32 crc32(IEEE) of everything above
const (
	deltaMagic      = 0x45564448 // "HDVE"
	deltaVersion    = 1
	deltaHeaderSize = 4 + 2 + 2 + 4 + 8 + 8
)

// ErrBadDelta is wrapped into all delta-format errors.
var ErrBadDelta = errors.New("storage: bad epoch delta")

// DeltaInfo summarizes a parsed epoch delta.
type DeltaInfo struct {
	PageSize    int
	From        PageID // allocation watermark the delta applies on top of
	Allocated   PageID // total allocation after applying
	StoredPages int
}

// WriteDeltaTo serializes every stored page with ID >= from, plus the
// current allocation size, in the deterministic ascending-ID layout of the
// full image writer. Like WriteTo it snapshots only the geometry under
// the structural lock; page enumeration and reads go to the media
// backend, streamed through a page-aligned bufio.Writer.
func (d *Disk) WriteDeltaTo(w io.Writer, from PageID) (int64, error) {
	d.mu.RLock()
	allocated := d.allocated
	pageSize := d.pageSize
	d.mu.RUnlock()
	if from < 0 || from > allocated {
		return 0, fmt.Errorf("%w: watermark %d outside [0, %d]", ErrBadDelta, from, allocated)
	}
	ids := d.storedPages(from, allocated)

	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), imageBufSize(pageSize))
	var written int64
	put := func(buf []byte) error {
		n, err := bw.Write(buf)
		written += int64(n)
		return err
	}
	var hdr [deltaHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], deltaMagic)
	binary.LittleEndian.PutUint16(hdr[4:], deltaVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(pageSize))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(from))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(allocated))
	if err := put(hdr[:]); err != nil {
		return written, err
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(len(ids)))
	if err := put(cnt[:]); err != nil {
		return written, err
	}
	var idbuf [8]byte
	page := make([]byte, pageSize)
	for _, id := range ids {
		binary.LittleEndian.PutUint64(idbuf[:], uint64(id))
		if err := put(idbuf[:]); err != nil {
			return written, err
		}
		if err := d.media.ReadPage(id, page); err != nil {
			return written, fmt.Errorf("storage: delta write: page %d: %w", id, err)
		}
		if err := put(page); err != nil {
			return written, err
		}
	}
	if err := bw.Flush(); err != nil {
		return written, err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	n, err := w.Write(sum[:])
	written += int64(n)
	return written, err
}

// parseDelta validates a delta image (checksum, geometry, page range) and
// returns its info plus the raw body positioned at the page list.
func parseDelta(raw []byte) (DeltaInfo, []byte, error) {
	var info DeltaInfo
	if len(raw) < deltaHeaderSize+8+4 {
		return info, nil, fmt.Errorf("%w: %d bytes is too short", ErrBadDelta, len(raw))
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return info, nil, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrBadDelta, got, want)
	}
	if binary.LittleEndian.Uint32(body[0:]) != deltaMagic {
		return info, nil, fmt.Errorf("%w: magic mismatch", ErrBadDelta)
	}
	if v := binary.LittleEndian.Uint16(body[4:]); v != deltaVersion {
		return info, nil, fmt.Errorf("%w: unsupported version %d", ErrBadDelta, v)
	}
	info.PageSize = int(binary.LittleEndian.Uint32(body[8:]))
	info.From = PageID(binary.LittleEndian.Uint64(body[12:]))
	info.Allocated = PageID(binary.LittleEndian.Uint64(body[20:]))
	if info.PageSize <= 0 || info.PageSize > 1<<26 || info.From < 0 || info.Allocated < info.From {
		return info, nil, fmt.Errorf("%w: implausible geometry (pageSize=%d, from=%d, allocated=%d)",
			ErrBadDelta, info.PageSize, info.From, info.Allocated)
	}
	stored := binary.LittleEndian.Uint64(body[deltaHeaderSize:])
	if stored > uint64(info.Allocated-info.From) {
		return info, nil, fmt.Errorf("%w: %d stored pages exceed the %d-page window",
			ErrBadDelta, stored, info.Allocated-info.From)
	}
	info.StoredPages = int(stored)
	need := uint64(deltaHeaderSize) + 8 + stored*uint64(8+info.PageSize)
	if uint64(len(body)) != need {
		return info, nil, fmt.Errorf("%w: body is %d bytes, want %d", ErrBadDelta, len(body), need)
	}
	return info, body[deltaHeaderSize+8:], nil
}

// ReadDeltaInfo validates a serialized epoch delta (checksum and
// structure) without a disk to apply it to — the fsck path.
func ReadDeltaInfo(r io.Reader) (DeltaInfo, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return DeltaInfo{}, fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	info, _, err := parseDelta(raw)
	return info, err
}

// ApplyDelta applies a serialized epoch delta to the disk. The delta must
// chain exactly: its watermark must equal the disk's current allocation
// (deltas are applied in epoch order on top of the base image), its page
// size must match, and every stored page must fall inside the window. On
// success the disk's allocation advances to the delta's.
func (d *Disk) ApplyDelta(r io.Reader) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	info, pages, err := parseDelta(raw)
	if err != nil {
		return err
	}
	d.mu.Lock()
	if info.PageSize != d.pageSize {
		d.mu.Unlock()
		return fmt.Errorf("%w: page size %d, disk has %d", ErrBadDelta, info.PageSize, d.pageSize)
	}
	if info.From != d.allocated {
		from := d.allocated
		d.mu.Unlock()
		return fmt.Errorf("%w: watermark %d does not chain onto %d allocated pages",
			ErrBadDelta, info.From, from)
	}
	d.allocated = info.Allocated
	d.mu.Unlock()
	// Media writes outside the lock (interface calls). ApplyDelta runs on
	// the open path before the database serves traffic, so the window
	// between advancing the watermark and landing the pages is benign.
	if err := d.media.Allocate(int64(info.Allocated)); err != nil {
		return fmt.Errorf("%w: media allocate: %v", ErrBadDelta, err)
	}
	off := 0
	for i := 0; i < info.StoredPages; i++ {
		id := PageID(binary.LittleEndian.Uint64(pages[off:]))
		off += 8
		if id < info.From || id >= info.Allocated {
			return fmt.Errorf("%w: page id %d outside window [%d, %d)", ErrBadDelta, id, info.From, info.Allocated)
		}
		if err := d.media.WritePage(id, pages[off:off+info.PageSize]); err != nil {
			return fmt.Errorf("%w: media write page %d: %v", ErrBadDelta, id, err)
		}
		off += info.PageSize
	}
	return nil
}
