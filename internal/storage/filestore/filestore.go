// Package filestore is the real-hardware page media behind
// storage.Backend (DESIGN.md §17): a page-granular OS file, read through
// a shared read-only mmap window when the platform supports it and plain
// preads otherwise, written with pwrites and made durable by fsync. The
// Disk's vectored reads land here as single syscalls — one pread (or one
// memcpy out of the mapping) per extent or coalesced batch, however many
// pages it spans — which is what turns the codec's byte reduction and the
// buffer pool's warm path into wall-clock wins.
//
// The file is sparse: Allocate only truncates (with headroom, so builds
// that grow page by page do not remap per allocation), never-written
// pages read back as holes (zeros), and Release punches holes. A
// written-page set is kept in memory for StoredPages — the store always
// starts empty (Create truncates) and is repopulated by replaying the
// database's page runs, so the set is exact. Shard stores share the one file through
// views of the database disk (storage.Disk.View).
package filestore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"repro/internal/storage"
)

// sortPageIDs orders page IDs ascending (the StoredPages contract).
func sortPageIDs(ids []storage.PageID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// Options shapes a Store.
type Options struct {
	// NoMmap forces the pread path even where mmap is available.
	NoMmap bool
}

// minPages is the initial/minimum file capacity (in pages) a store is
// truncated to, so tiny databases do not remap on every allocation.
const minPages = 1024

// Store is a page file implementing storage.Backend. Safe for concurrent
// use: the OS serializes preads/pwrites on the shared fd, and the
// written set, capacity, and mmap window are guarded by mu. The mmap
// window is MAP_SHARED, so pwrites through the fd are coherently visible
// to mapped reads.
type Store struct {
	path     string
	pageSize int
	f        *os.File
	nommap   bool

	// mu guards written, capPages, and mm. Mapped-window copies happen
	// under the read lock so remapping (which unmaps the old window) is
	// safe under the write lock.
	mu       sync.RWMutex
	written  map[storage.PageID]struct{}
	capPages int64 // file capacity in pages (>= the disk's watermark)
	mm       []byte
	closed   bool
}

// Create creates (or truncates) the page file at path and returns a
// store over it. The caller owns the path; Close closes the fd.
func Create(path string, pageSize int, opts Options) (*Store, error) {
	if pageSize <= 0 {
		pageSize = storage.DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("filestore: %w", err)
	}
	s := &Store{
		path:     path,
		pageSize: pageSize,
		f:        f,
		nommap:   opts.NoMmap,
		written:  make(map[storage.PageID]struct{}),
	}
	if err := s.Allocate(minPages); err != nil {
		_ = f.Close()
		return nil, err
	}
	return s, nil
}

// Path returns the backing file's path.
func (s *Store) Path() string { return s.path }

// PageSize returns the page size in bytes.
func (s *Store) PageSize() int { return s.pageSize }

// Mapped reports whether reads are currently served from an mmap window
// (false when mmap is unavailable, disabled, or the map failed).
func (s *Store) Mapped() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.mm != nil
}

// ReadPages fills dst with n consecutive pages starting at start — one
// memcpy out of the mmap window when it covers the range, one pread
// otherwise. This is the vectored path: however many pages the Disk
// coalesced, the media sees one operation.
func (s *Store) ReadPages(start storage.PageID, n int, dst []byte) error {
	if n <= 0 {
		return nil
	}
	want := n * s.pageSize
	if len(dst) < want {
		return fmt.Errorf("filestore: read [%d,+%d): dst holds %d bytes, want %d", start, n, len(dst), want)
	}
	if start < 0 {
		return fmt.Errorf("filestore: read [%d,+%d): negative page", start, n)
	}
	off := int64(start) * int64(s.pageSize)
	end := off + int64(want)
	s.mu.RLock()
	if s.mm != nil && end <= int64(len(s.mm)) {
		// Copy while holding the read lock: a concurrent Allocate remaps
		// (and unmaps the old window) only under the write lock, so the
		// window cannot vanish mid-copy.
		copy(dst[:want], s.mm[off:end])
		s.mu.RUnlock()
		return nil
	}
	s.mu.RUnlock()
	return s.pread(off, dst[:want])
}

// pread issues one positioned read, zero-filling past EOF (pages beyond
// the file's current size are unwritten holes by definition).
func (s *Store) pread(off int64, dst []byte) error {
	n, err := s.f.ReadAt(dst, off)
	if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
		clear(dst[n:])
		err = nil
	}
	if err != nil {
		return fmt.Errorf("filestore: pread %d bytes at %d: %w", len(dst), off, err)
	}
	return nil
}

// WritePage stores one full page with a single pwrite.
func (s *Store) WritePage(id storage.PageID, data []byte) error {
	if len(data) != s.pageSize {
		return fmt.Errorf("filestore: write page %d: %d bytes, want %d", id, len(data), s.pageSize)
	}
	if id < 0 {
		return fmt.Errorf("filestore: write page %d: negative page", id)
	}
	if _, err := s.f.WriteAt(data, int64(id)*int64(s.pageSize)); err != nil {
		return fmt.Errorf("filestore: write page %d: %w", id, err)
	}
	s.mu.Lock()
	s.written[id] = struct{}{}
	s.mu.Unlock()
	return nil
}

// Allocate grows the file to hold at least totalPages pages. Growth is
// chunked (doubling, floor minPages) so page-by-page build allocations
// truncate and remap a handful of times, not thousands; the extra tail
// is sparse and invisible to readers (holes read zero either way).
func (s *Store) Allocate(totalPages int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if totalPages <= s.capPages {
		return nil
	}
	grow := s.capPages * 2
	if grow < totalPages {
		grow = totalPages
	}
	if grow < minPages {
		grow = minPages
	}
	if err := s.f.Truncate(grow * int64(s.pageSize)); err != nil {
		return fmt.Errorf("filestore: grow to %d pages: %w", grow, err)
	}
	s.capPages = grow
	s.remapLocked()
	return nil
}

// remapLocked rebuilds the mmap window over the file's current capacity.
// Requires mu held for writing. A failed (or unavailable) map silently
// degrades to the pread path — mmap is an optimization, never
// load-bearing.
func (s *Store) remapLocked() {
	if s.nommap {
		return
	}
	if s.mm != nil {
		_ = munmapFile(s.mm)
		s.mm = nil
	}
	size := s.capPages * int64(s.pageSize)
	if size <= 0 {
		return
	}
	mm, err := mmapFile(s.f, int(size))
	if err != nil {
		return
	}
	s.mm = mm
}

// Release punches the given pages out of the file (falling back to
// writing zeros where hole-punching is unsupported), returning how many
// held data.
func (s *Store) Release(ids []storage.PageID) int {
	n := 0
	s.mu.Lock()
	defer s.mu.Unlock()
	var zeros []byte
	for _, id := range ids {
		if _, ok := s.written[id]; !ok {
			continue
		}
		delete(s.written, id)
		n++
		off := int64(id) * int64(s.pageSize)
		if err := punchHole(s.f, off, int64(s.pageSize)); err != nil {
			if zeros == nil {
				zeros = make([]byte, s.pageSize)
			}
			// Zero-write fallback keeps read-back semantics identical
			// even where the blocks stay allocated.
			_, _ = s.f.WriteAt(zeros, off)
		}
	}
	return n
}

// StoredPages returns the written page IDs >= from, ascending.
func (s *Store) StoredPages(from storage.PageID) []storage.PageID {
	s.mu.RLock()
	ids := make([]storage.PageID, 0, len(s.written))
	for id := range s.written {
		if id >= from {
			ids = append(ids, id)
		}
	}
	s.mu.RUnlock()
	// Insertion sort would be quadratic at database scale; keep it simple
	// with the stdlib.
	sortPageIDs(ids)
	return ids
}

// Sync fsyncs the file.
func (s *Store) Sync() error {
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("filestore: sync %s: %w", s.path, err)
	}
	return nil
}

// Timed reports true: this media does real I/O, so the Disk charges
// wall-clock MeasuredTime beside the simulated cost.
func (s *Store) Timed() bool { return true }

// Close unmaps the window and closes the file. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.mm != nil {
		_ = munmapFile(s.mm)
		s.mm = nil
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("filestore: close %s: %w", s.path, err)
	}
	return nil
}
