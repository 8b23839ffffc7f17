package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Page run format: the one serialized form of a disk's pages, so a built
// HDoV database can be saved and reopened (package dbfile). A run holds
// the pages stored at IDs in [from, allocated); never-written pages are
// not stored, but the allocation is, so page accounting after reopen is
// identical. Run 0 (from 0) is a whole disk. The update path only ever
// writes freshly allocated pages, so the run from the previous
// allocation watermark holds exactly an update epoch's changes; applying
// the runs in order reproduces the disk bit for bit.
//
//	u32 magic | u16 version | u16 reserved | u32 pageSize
//	u64 from (allocation watermark the run starts at)
//	u64 allocated (total allocation after the run)
//	u64 storedPages
//	storedPages × (u64 pageID | pageSize bytes), IDs ascending
//	u32 crc32(IEEE) of everything above
const (
	runMagic      = 0x45564448 // "HDVE"
	runVersion    = 1
	runHeaderSize = 4 + 2 + 2 + 4 + 8 + 8 + 8
)

// ErrBadRun is wrapped into all page-run format errors.
var ErrBadRun = errors.New("storage: bad page run")

// runBufSize picks the bufio.Writer size for run serialization: a whole
// number of pages, at least 64 KiB and at most 1 MiB, so the writer's
// flushes are page-aligned streaming writes rather than one syscall per
// page — which is what matters once real files are the destination.
func runBufSize(pageSize int) int {
	n := 256 * pageSize
	if n < 64<<10 {
		n = 64 << 10
	}
	if n > 1<<20 {
		n = (1 << 20) / pageSize * pageSize
		if n < pageSize {
			n = pageSize
		}
	}
	return n
}

// WriteRunTo serializes every stored page with ID in [from, allocated),
// plus the current allocation size, in ascending ID order. The
// structural lock is held only long enough to snapshot the geometry —
// page enumeration and reads go straight to the media backend (which
// does its own locking), so no I/O happens under d.mu (the lockorder
// invariant, DESIGN.md §11). Pages stream through a page-aligned
// bufio.Writer; nothing is buffered whole.
func (d *Disk) WriteRunTo(w io.Writer, from PageID) (int64, error) {
	d.mu.RLock()
	allocated := d.allocated
	pageSize := d.pageSize
	d.mu.RUnlock()
	if from < 0 || from > allocated {
		return 0, fmt.Errorf("%w: watermark %d outside [0, %d]", ErrBadRun, from, allocated)
	}
	ids := d.storedPages(from, allocated)

	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), runBufSize(pageSize))
	var written int64
	put := func(buf []byte) error {
		n, err := bw.Write(buf)
		written += int64(n)
		return err
	}
	var hdr [runHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], runMagic)
	binary.LittleEndian.PutUint16(hdr[4:], runVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(pageSize))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(from))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(allocated))
	binary.LittleEndian.PutUint64(hdr[28:], uint64(len(ids)))
	if err := put(hdr[:]); err != nil {
		return written, err
	}
	var idbuf [8]byte
	page := make([]byte, pageSize)
	for _, id := range ids {
		binary.LittleEndian.PutUint64(idbuf[:], uint64(id))
		if err := put(idbuf[:]); err != nil {
			return written, err
		}
		if err := d.media.ReadPages(id, 1, page); err != nil {
			return written, fmt.Errorf("storage: run write: page %d: %w", id, err)
		}
		if err := put(page); err != nil {
			return written, err
		}
	}
	if err := bw.Flush(); err != nil {
		return written, err
	}
	// The checksum covers everything before itself.
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	n, err := w.Write(sum[:])
	written += int64(n)
	return written, err
}

// Run is a parsed, checksum-verified page run (ParseRun).
type Run struct {
	PageSize int
	// From is the allocation watermark the run applies on top of;
	// Allocated is the total allocation after applying it.
	From, Allocated PageID
	// pages is the stored-page list: (u64 id | page) records, IDs
	// ascending inside [From, Allocated).
	pages []byte
}

// ParseRun validates a serialized page run — checksum, magic, version,
// geometry, length and every page ID — without a disk to apply it to.
// The returned run aliases raw.
func ParseRun(raw []byte) (Run, error) {
	var r Run
	if len(raw) < runHeaderSize+4 {
		return r, fmt.Errorf("%w: %d bytes is too short", ErrBadRun, len(raw))
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return r, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrBadRun, got, want)
	}
	if binary.LittleEndian.Uint32(body[0:]) != runMagic {
		return r, fmt.Errorf("%w: magic mismatch", ErrBadRun)
	}
	if v := binary.LittleEndian.Uint16(body[4:]); v != runVersion {
		return r, fmt.Errorf("%w: unsupported version %d", ErrBadRun, v)
	}
	r.PageSize = int(binary.LittleEndian.Uint32(body[8:]))
	r.From = PageID(binary.LittleEndian.Uint64(body[12:]))
	r.Allocated = PageID(binary.LittleEndian.Uint64(body[20:]))
	if r.PageSize <= 0 || r.PageSize > 1<<26 || r.From < 0 || r.Allocated < r.From {
		return r, fmt.Errorf("%w: implausible geometry (pageSize=%d, from=%d, allocated=%d)",
			ErrBadRun, r.PageSize, r.From, r.Allocated)
	}
	stored := binary.LittleEndian.Uint64(body[28:])
	if stored > uint64(r.Allocated-r.From) {
		return r, fmt.Errorf("%w: %d stored pages exceed the %d-page window",
			ErrBadRun, stored, r.Allocated-r.From)
	}
	rec := uint64(8 + r.PageSize)
	// Divide rather than multiply: stored × rec may overflow.
	if have := uint64(len(body) - runHeaderSize); have%rec != 0 || have/rec != stored {
		return r, fmt.Errorf("%w: body is %d bytes, want %d pages of %d", ErrBadRun, len(body), stored, r.PageSize)
	}
	r.pages = body[runHeaderSize:]
	next := r.From
	for off := 0; off < len(r.pages); off += int(rec) {
		id := PageID(binary.LittleEndian.Uint64(r.pages[off:]))
		if id < next || id >= r.Allocated {
			return r, fmt.Errorf("%w: page id %d outside window [%d, %d) or out of order",
				ErrBadRun, id, next, r.Allocated)
		}
		next = id + 1
	}
	return r, nil
}

// ApplyRun applies a parsed run to the disk. The run must chain exactly:
// its page size must match the disk's and its watermark must equal the
// disk's current allocation (a fresh disk takes run 0, then each epoch's
// run in commit order). On success the disk's allocation advances to the
// run's. The disk writes the run's page bytes to its media without
// copying them.
func (d *Disk) ApplyRun(r Run) error {
	d.mu.Lock()
	if r.PageSize != d.pageSize {
		d.mu.Unlock()
		return fmt.Errorf("%w: page size %d, disk has %d", ErrBadRun, r.PageSize, d.pageSize)
	}
	if r.From != d.allocated {
		from := d.allocated
		d.mu.Unlock()
		return fmt.Errorf("%w: watermark %d does not chain onto %d allocated pages",
			ErrBadRun, r.From, from)
	}
	d.allocated = r.Allocated
	d.mu.Unlock()
	// Media writes outside the lock (interface calls). ApplyRun runs on
	// the open path before the database serves traffic, so the window
	// between advancing the watermark and landing the pages is benign.
	if err := d.media.Allocate(int64(r.Allocated)); err != nil {
		return fmt.Errorf("%w: media allocate: %v", ErrBadRun, err)
	}
	rec := 8 + r.PageSize
	for off := 0; off < len(r.pages); off += rec {
		id := PageID(binary.LittleEndian.Uint64(r.pages[off:]))
		if err := d.media.WritePage(id, r.pages[off+8:off+rec]); err != nil {
			return fmt.Errorf("%w: media write page %d: %v", ErrBadRun, id, err)
		}
	}
	return nil
}
