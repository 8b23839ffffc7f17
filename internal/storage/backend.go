package storage

// Backend is the page-media contract beneath a Disk (DESIGN.md §17). The
// Disk owns policy — cost accounting, light/heavy classification, the
// buffer pool, fault injection, quarantine, per-session attribution — and
// delegates the physical bytes to a Backend: the in-memory simulated
// media (NewMemBackend, the historical behavior) or a real OS file
// (package filestore) with mmap/pread reads and fsync durability.
//
// Contract:
//
//   - Pages are pageSize bytes; page IDs are dense from 0. Pages inside
//     the allocated range that were never written read back zero-filled
//     (sparse extents).
//   - ReadPages is vectored: it fills dst with n consecutive pages in one
//     media operation — a single pread/memcpy on real hardware — which is
//     what turns coalesced reads and payload extents into single
//     syscalls.
//   - WritePage takes ownership of data (exactly one full page); callers
//     never mutate the slice afterwards.
//   - A Backend may be shared by several Disks: a source and its views
//     (Disk.View). Only the source writes, and only above every view's
//     watermark, so a committed page never changes under a reader.
//   - Allocate is grow-only: a call with a smaller total than a previous
//     one is a no-op, so concurrent growers may land out of order.
//   - The Disk performs all range, quarantine, and fault checks before
//     touching the media; a Backend only moves bytes.
//
// Lock discipline: the Disk's media field is immutable after
// construction and every Backend call is made outside d.mu and
// d.statsMu — an interface call under a held Disk lock is a lockorder
// violation (DESIGN.md §11). Backends do their own internal locking.
type Backend interface {
	// PageSize returns the media's page size in bytes.
	PageSize() int
	// ReadPages fills dst from the n consecutive pages starting at start
	// — the one media read. It copies min(len(dst), n*PageSize()) bytes,
	// so a read that needs only a prefix of the extent's last page
	// copies only that prefix.
	ReadPages(start PageID, n int, dst []byte) error
	// WritePage durably stores one full page, taking ownership of data.
	WritePage(id PageID, data []byte) error
	// Allocate grows the media to hold at least totalPages pages
	// (grow-only; shrinking requests are ignored).
	Allocate(totalPages int64) error
	// Release drops the materialized content of the given pages (they
	// read back zero-filled afterwards), returning how many held data.
	Release(ids []PageID) int
	// StoredPages returns the IDs of materialized pages >= from, in
	// ascending order — the page-run writer's enumeration.
	StoredPages(from PageID) []PageID
	// Sync flushes buffered writes to durable media. The in-memory
	// backend is a no-op; the file backend fsyncs, which is what makes
	// the dbfile rename commit point durable.
	Sync() error
	// Timed reports whether operations perform real I/O whose wall-clock
	// latency is worth measuring. The Disk charges Stats.MeasuredTime
	// only for timed backends, so simulated accounting stays
	// deterministic.
	Timed() bool
	// Close releases OS resources. The Disk must not be used afterwards.
	Close() error
}
