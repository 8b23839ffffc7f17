package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Disk image format: the database's pages serialized to a real file, so a
// built HDoV database can be saved and reopened (package dbfile). Sparse
// (never-written) pages are not stored; the allocation size is, so page
// accounting after reopen is identical.
//
//	u32 magic | u16 version | u16 reserved | u32 pageSize | u64 allocated
//	u64 storedPages
//	storedPages × (u64 pageID | pageSize bytes)
//	u32 crc32(IEEE) of everything above
const (
	imageMagic      = 0x44564448 // "HDVD"
	imageVersion    = 1
	imageHeaderSize = 4 + 2 + 2 + 4 + 8
)

// ErrBadImage is wrapped into all image-format errors.
var ErrBadImage = errors.New("storage: bad disk image")

// imageBufSize picks the bufio.Writer size for image/delta serialization:
// a whole number of pages, at least 64 KiB and at most 1 MiB, so the
// writer's flushes are page-aligned streaming writes rather than one
// syscall per page — which is what matters once real files are the
// destination.
func imageBufSize(pageSize int) int {
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

// WriteTo serializes the disk's pages. It implements io.WriterTo. The
// structural lock is held only long enough to snapshot the geometry —
// page enumeration and reads go straight to the media backend (which
// does its own locking), so no I/O happens under d.mu (the lockorder
// invariant, DESIGN.md §11). Pages stream through a page-aligned
// bufio.Writer; nothing is buffered whole.
func (d *Disk) WriteTo(w io.Writer) (int64, error) {
	d.mu.RLock()
	allocated := d.allocated
	pageSize := d.pageSize
	d.mu.RUnlock()
	ids := d.storedPages(0, allocated)

	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), imageBufSize(pageSize))
	var written int64

	put := func(buf []byte) error {
		n, err := bw.Write(buf)
		written += int64(n)
		return err
	}
	var hdr [imageHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], imageMagic)
	binary.LittleEndian.PutUint16(hdr[4:], imageVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(pageSize))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(allocated))
	if err := put(hdr[:]); err != nil {
		return written, err
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(len(ids)))
	if err := put(cnt[:]); err != nil {
		return written, err
	}
	// Deterministic layout: StoredPages returns ascending page IDs.
	var idbuf [8]byte
	page := make([]byte, pageSize)
	for _, id := range ids {
		binary.LittleEndian.PutUint64(idbuf[:], uint64(id))
		if err := put(idbuf[:]); err != nil {
			return written, err
		}
		if err := d.media.ReadPage(id, page); err != nil {
			return written, fmt.Errorf("storage: image write: page %d: %w", id, err)
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

// ReadImage deserializes a disk image produced by WriteTo into an
// in-memory simulated disk, verifying its checksum.
func ReadImage(r io.Reader, cost CostModel) (*Disk, error) {
	return ReadImageInto(r, cost, nil)
}

// ReadImageInto deserializes a disk image produced by WriteTo, verifying
// its checksum, and materializes the pages into a media backend built by
// newBackend (nil means in-memory simulated media — ReadImage). The
// returned disk uses the given cost model and starts with zeroed
// statistics. The whole image is buffered in memory while parsing — it
// contains only the database's written pages, which are laptop-scale by
// design.
func ReadImageInto(r io.Reader, cost CostModel, newBackend func(pageSize int, pages int64) (Backend, error)) (*Disk, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadImage, err)
	}
	if len(raw) < imageHeaderSize+8+4 {
		return nil, fmt.Errorf("%w: %d bytes is too short", ErrBadImage, len(raw))
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrBadImage, got, want)
	}
	if binary.LittleEndian.Uint32(body[0:]) != imageMagic {
		return nil, fmt.Errorf("%w: magic mismatch", ErrBadImage)
	}
	if v := binary.LittleEndian.Uint16(body[4:]); v != imageVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadImage, v)
	}
	pageSize := int(binary.LittleEndian.Uint32(body[8:]))
	allocated := PageID(binary.LittleEndian.Uint64(body[12:]))
	if pageSize <= 0 || pageSize > 1<<26 || allocated < 0 {
		return nil, fmt.Errorf("%w: implausible geometry (pageSize=%d, pages=%d)", ErrBadImage, pageSize, allocated)
	}
	stored := binary.LittleEndian.Uint64(body[imageHeaderSize:])
	if stored > uint64(allocated) {
		return nil, fmt.Errorf("%w: %d stored pages exceed %d allocated", ErrBadImage, stored, allocated)
	}
	need := uint64(imageHeaderSize) + 8 + stored*uint64(8+pageSize)
	if uint64(len(body)) != need {
		return nil, fmt.Errorf("%w: body is %d bytes, want %d", ErrBadImage, len(body), need)
	}

	var b Backend
	if newBackend == nil {
		b = NewMemBackend(pageSize)
	} else {
		b, err = newBackend(pageSize, int64(allocated))
		if err != nil {
			return nil, fmt.Errorf("storage: image backend: %w", err)
		}
		if b.PageSize() != pageSize {
			_ = b.Close()
			return nil, fmt.Errorf("%w: backend page size %d, image has %d", ErrBadImage, b.PageSize(), pageSize)
		}
	}
	fail := func(err error) (*Disk, error) {
		_ = b.Close()
		return nil, err
	}
	if err := b.Allocate(int64(allocated)); err != nil {
		return fail(fmt.Errorf("storage: image backend: %w", err))
	}
	off := imageHeaderSize + 8
	for i := uint64(0); i < stored; i++ {
		id := PageID(binary.LittleEndian.Uint64(body[off:]))
		off += 8
		if id < 0 || id >= allocated {
			return fail(fmt.Errorf("%w: page id %d out of range", ErrBadImage, id))
		}
		if err := b.WritePage(id, body[off:off+pageSize]); err != nil {
			return fail(fmt.Errorf("storage: image backend: page %d: %w", id, err))
		}
		off += pageSize
	}
	if err := b.Sync(); err != nil {
		return fail(fmt.Errorf("storage: image backend: sync: %w", err))
	}
	d := NewDiskOn(b, cost)
	d.allocated = allocated
	return d, nil
}
