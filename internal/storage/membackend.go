package storage

import (
	"fmt"
	"sort"
	"sync"
)

// MemBackend is the in-memory simulated media: a sparse page map with no
// real I/O. It is the Backend every Disk uses unless a real one is
// supplied (NewDiskOn), and preserves the historical simulated-disk
// semantics exactly — written pages hold real bytes, and allocated-but-
// never-written extents read back zero-filled.
type MemBackend struct {
	mu       sync.RWMutex
	pageSize int
	data     map[PageID][]byte
}

// NewMemBackend returns an empty in-memory media with the given page size
// (DefaultPageSize if non-positive).
func NewMemBackend(pageSize int) *MemBackend {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &MemBackend{
		pageSize: pageSize,
		data:     make(map[PageID][]byte),
	}
}

// PageSize returns the page size in bytes.
func (b *MemBackend) PageSize() int { return b.pageSize }

// ReadPages fills dst with n consecutive pages starting at start.
func (b *MemBackend) ReadPages(start PageID, n int, dst []byte) error {
	if n <= 0 {
		return nil
	}
	if want := n * b.pageSize; len(dst) < want {
		return fmt.Errorf("storage: mem read [%d,+%d): dst holds %d bytes, want %d", start, n, len(dst), want)
	}
	b.mu.RLock()
	for i := 0; i < n; i++ {
		out := dst[i*b.pageSize : (i+1)*b.pageSize]
		if p, ok := b.data[start+PageID(i)]; ok {
			copy(out, p)
		} else {
			clear(out)
		}
	}
	b.mu.RUnlock()
	return nil
}

// WritePage stores one full page, taking ownership of data.
func (b *MemBackend) WritePage(id PageID, data []byte) error {
	if len(data) != b.pageSize {
		return fmt.Errorf("storage: mem write page %d: %d bytes, want %d", id, len(data), b.pageSize)
	}
	b.mu.Lock()
	b.data[id] = data
	b.mu.Unlock()
	return nil
}

// Allocate is a no-op: the map is sparse by design, and the Disk keeps
// the allocation watermark.
func (b *MemBackend) Allocate(int64) error { return nil }

// Release drops the materialized content of the given pages.
func (b *MemBackend) Release(ids []PageID) int {
	n := 0
	b.mu.Lock()
	for _, id := range ids {
		if _, ok := b.data[id]; ok {
			delete(b.data, id)
			n++
		}
	}
	b.mu.Unlock()
	return n
}

// StoredPages returns the materialized page IDs >= from, ascending.
func (b *MemBackend) StoredPages(from PageID) []PageID {
	b.mu.RLock()
	ids := make([]PageID, 0, len(b.data))
	for id := range b.data {
		if id >= from {
			ids = append(ids, id)
		}
	}
	b.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Sync is a no-op: memory is as durable as this media gets.
func (b *MemBackend) Sync() error { return nil }

// Timed reports false: simulated media has no wall-clock latency worth
// measuring, which keeps Stats deterministic.
func (b *MemBackend) Timed() bool { return false }

// Close is a no-op.
func (b *MemBackend) Close() error { return nil }
