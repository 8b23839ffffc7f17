package storage

// Reader is the read-side surface of the simulated disk, implemented by
// both *Disk (global accounting only) and *Client (per-session
// attribution on top). Query-path code takes a Reader so one open
// database can serve many sessions, each charged exactly for its own
// traffic.
type Reader interface {
	// ReadBytes reads length bytes starting at page start, charged as one
	// sequential run of the given class (unless served by the buffer
	// pool). A pool-served single-page extent is the frame itself
	// (capacity capped at length), shared with every other reader: the
	// returned slice is read-only and must never be written.
	ReadBytes(start PageID, length int, class Class) ([]byte, error)
	// ReadExtent charges n sequential page reads without materializing
	// data.
	ReadExtent(start PageID, n int, class Class) error
	// PageSize returns the disk page size in bytes.
	PageSize() int
	// PagesFor returns how many pages hold n bytes.
	PagesFor(n int64) int
}

var (
	_ Reader = (*Disk)(nil)
	_ Reader = (*Client)(nil)
)
