// Package storage provides the paged-disk substrate under the HDoV-tree's
// storage schemes. It simulates a 2003-era disk with an explicit cost
// model (seek + per-page transfer), counts every page access, and
// classifies I/O as light-weight (tree nodes, V-pages, V-page-index — the
// traffic of Figure 8(b)) or heavy-weight (model payload — included in
// Figure 8(a)).
//
// Pages with written content hold real bytes; extents that were allocated
// but never written read back as zero-filled pages. This keeps the
// simulated database sparse in memory while preserving exact page-level
// layout, so the gigabyte-scale nominal datasets of the paper's Figure 9
// produce the same page counts they would on a real disk (DESIGN.md §3.4).
//
// The physical bytes live behind the Backend interface (backend.go): the
// in-memory simulated media above is one implementation (MemBackend), a
// real OS file with mmap/pread reads is another (package filestore). The
// Disk is the policy layer either way — the same accounting, pool,
// quarantine and fault machinery runs over both, and for timed backends
// every media operation's wall-clock latency is charged to
// Stats.MeasuredTime beside the simulated cost (DESIGN.md §17).
//
// Concurrency: a Disk is safe for concurrent readers and writers. The
// quarantine set and fault injector are guarded by d.mu; the cost-model
// accounting (stats, stream heads) by d.statsMu; the optional buffer
// pool by per-shard locks; the media backend does its own locking and is
// only ever called with no Disk lock held. No two of these locks are
// ever held at once, so the locking order is trivial (DESIGN.md §10).
// Per-session I/O attribution is exact via Client handles: every read
// charged to the global Stats is also charged to the calling session's
// Client, so concurrent sessions each see only their own traffic.
package storage

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// PageID addresses a page on the simulated disk. The zero page is valid;
// NilPage is the sentinel "no page" value (the nil V-page pointer of §4.2).
type PageID int64

// NilPage is the null page pointer.
const NilPage PageID = -1

// Class labels an I/O for the paper's light/heavy accounting split.
type Class uint8

const (
	// ClassLight covers index traffic: tree nodes, V-pages, V-page-index
	// segments. Figure 8(b) reports exactly this.
	ClassLight Class = iota
	// ClassHeavy covers model payload (LoD mesh records). Figure 8(a)
	// reports light + heavy.
	ClassHeavy
)

// DefaultPageSize is the disk page size in bytes. 4 KiB matches the
// filesystem pages of the paper's era and is the V-page granularity.
const DefaultPageSize = 4096

// CostModel is the simulated time cost of disk operations. Defaults are
// typical of a 7200 rpm disk circa 2003: ~9 ms average seek+rotation, and
// ~40 MB/s sustained transfer (≈0.1 ms per 4 KiB page).
type CostModel struct {
	Seek         time.Duration // cost of a non-sequential access
	TransferPage time.Duration // cost per page transferred
}

// DefaultCostModel returns the 2003-era disk parameters used by all
// experiments unless overridden.
func DefaultCostModel() CostModel {
	return CostModel{
		Seek:         9 * time.Millisecond,
		TransferPage: 100 * time.Microsecond,
	}
}

// Stats is the I/O accounting snapshot of a Disk or a Client.
type Stats struct {
	Reads      int64 // total pages read
	Writes     int64 // total pages written
	Seeks      int64 // non-sequential repositionings
	LightReads int64 // pages read with ClassLight
	HeavyReads int64 // pages read with ClassHeavy
	// Retries counts re-read attempts issued for faulted pages while a
	// fault-injection policy is installed (see InjectFaults). Retries are
	// not added to Reads so the paper's I/O figures stay comparable; their
	// time cost is charged to SimTime.
	Retries int64
	SimTime time.Duration
	// MeasuredTime is the wall-clock time spent inside media operations,
	// charged only when the backend performs real I/O (Backend.Timed).
	// The simulated in-memory backend charges exactly zero, so
	// deterministic accounting stays deterministic; on the file backend
	// SimTime (the fitted model's prediction) and MeasuredTime (what the
	// hardware actually took) sit side by side in every snapshot.
	MeasuredTime time.Duration
	// Buffer-pool counters, split by class (zero with no pool installed).
	// Pool hits cost no seek, transfer or SimTime — the cost model charges
	// only misses, which appear in Reads as real page I/O.
	PoolLightHits, PoolLightMisses int64
	PoolHeavyHits, PoolHeavyMisses int64
	PoolEvictions                  int64
	// CoalescedReads counts buffer-pool misses that piggybacked on an
	// in-flight read of the same page instead of hitting the media —
	// N sessions entering the same cell pay one physical read, not N.
	// A coalesced read costs no seek, transfer, or SimTime.
	CoalescedReads int64
}

// Sub returns s - o, for measuring a window of activity.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:           s.Reads - o.Reads,
		Writes:          s.Writes - o.Writes,
		Seeks:           s.Seeks - o.Seeks,
		LightReads:      s.LightReads - o.LightReads,
		HeavyReads:      s.HeavyReads - o.HeavyReads,
		Retries:         s.Retries - o.Retries,
		SimTime:         s.SimTime - o.SimTime,
		MeasuredTime:    s.MeasuredTime - o.MeasuredTime,
		PoolLightHits:   s.PoolLightHits - o.PoolLightHits,
		PoolLightMisses: s.PoolLightMisses - o.PoolLightMisses,
		PoolHeavyHits:   s.PoolHeavyHits - o.PoolHeavyHits,
		PoolHeavyMisses: s.PoolHeavyMisses - o.PoolHeavyMisses,
		PoolEvictions:   s.PoolEvictions - o.PoolEvictions,
		CoalescedReads:  s.CoalescedReads - o.CoalescedReads,
	}
}

// Add returns s + o, for charging a read's delta and for aggregating
// accounting across shard stores.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Reads:           s.Reads + o.Reads,
		Writes:          s.Writes + o.Writes,
		Seeks:           s.Seeks + o.Seeks,
		LightReads:      s.LightReads + o.LightReads,
		HeavyReads:      s.HeavyReads + o.HeavyReads,
		Retries:         s.Retries + o.Retries,
		SimTime:         s.SimTime + o.SimTime,
		MeasuredTime:    s.MeasuredTime + o.MeasuredTime,
		PoolLightHits:   s.PoolLightHits + o.PoolLightHits,
		PoolLightMisses: s.PoolLightMisses + o.PoolLightMisses,
		PoolHeavyHits:   s.PoolHeavyHits + o.PoolHeavyHits,
		PoolHeavyMisses: s.PoolHeavyMisses + o.PoolHeavyMisses,
		PoolEvictions:   s.PoolEvictions + o.PoolEvictions,
		CoalescedReads:  s.CoalescedReads + o.CoalescedReads,
	}
}

// numStreams is how many concurrent sequential read streams the disk
// model recognizes. A real OS issues readahead per open file, so a query
// that interleaves node-record reads with V-page reads still enjoys
// sequential transfer within each file; modeling a handful of stream heads
// reproduces that without a full file abstraction. Concurrent sessions
// share the heads, like processes share one disk arm: heavy interleaving
// from many clients degrades sequentiality, which is exactly what a real
// drive would see.
const numStreams = 8

// Disk is a paged disk — the policy layer (accounting, pool, faults,
// quarantine, sessions) over a pluggable page media — safe for
// concurrent use.
type Disk struct {
	// media holds the physical pages. Immutable after construction, so
	// reading the field needs no lock; calls into it are interface calls
	// and therefore must never happen while d.mu or d.statsMu is held
	// (the lockorder invariant, DESIGN.md §11).
	media Backend
	// timed caches media.Timed(): charge wall-clock MeasuredTime per
	// media operation iff the backend does real I/O.
	timed bool
	// view marks a disk sharing another disk's media (View): it never
	// writes or closes it.
	view bool

	// mu guards the structural state: corruption and quarantine sets,
	// the allocation watermark, and the pool/faults pointers.
	mu        sync.RWMutex
	pageSize  int
	allocated PageID // next free page
	// growErr records a failed media Allocate (disk full); subsequent
	// writes surface it instead of writing past the media's end.
	growErr error
	corrupt map[PageID]bool
	// quarantined pages fail immediately with no seek or retry cost —
	// callers that detected damage park the page here so repeated frames
	// stop re-seeking it (see Quarantine).
	quarantined map[PageID]bool
	// faults is the optional deterministic fault injector (InjectFaults).
	faults *faultInjector
	cost   CostModel
	// pool is the optional buffer pool (see SetCacheSize).
	pool *bufferPool
	// inflight coalesces concurrent pool misses on the same page: one
	// reader performs the media read, the rest wait for its result and
	// count a CoalescedRead instead of a second physical I/O.
	inflight flight
	// breaker is the optional per-region circuit breaker (SetBreaker): a
	// region with repeated permanent media faults fails fast instead of
	// being re-probed on every query.
	breaker *breaker
	// xfer recycles readExtent's discard buffers (*[]byte of xferPages
	// pages): the payload bytes are read and dropped, so one buffer can
	// serve every extent instead of a fresh zeroed one per call.
	xfer sync.Pool

	// statsMu guards the cost-model accounting below.
	statsMu sync.Mutex
	stats   Stats
	// streams holds the positions of recent sequential runs (see
	// numStreams); streamAge implements LRU replacement.
	streams   [numStreams]PageID
	streamAge [numStreams]int64
	clock     int64
}

// NewDisk creates an empty simulated disk with the given page size
// (DefaultPageSize if non-positive) and cost model, backed by in-memory
// media.
func NewDisk(pageSize int, cost CostModel) *Disk {
	return NewDiskOn(NewMemBackend(pageSize), cost)
}

// NewDiskOn creates an empty disk over the given media backend. The page
// size comes from the backend; the cost model still drives the simulated
// accounting (on a calibrated file backend, SimTime is the fitted model's
// prediction and MeasuredTime the hardware's answer).
func NewDiskOn(b Backend, cost CostModel) *Disk {
	d := &Disk{
		media:       b,
		timed:       b.Timed(),
		pageSize:    b.PageSize(),
		corrupt:     make(map[PageID]bool),
		quarantined: make(map[PageID]bool),
		cost:        cost,
		inflight:    flight{calls: make(map[PageID]*flightCall)},
	}
	// All stream heads start parked: the first access is always a seek.
	for i := range d.streams {
		d.streams[i] = -2
	}
	return d
}

// Timed reports whether the media backend performs real I/O (and the
// disk therefore charges Stats.MeasuredTime).
func (d *Disk) Timed() bool { return d.timed }

// Sync flushes the media to durable storage — a no-op for the simulated
// backend, an fsync for the file backend. The dbfile commit protocol
// calls it before the manifest rename so the commit point is durable.
func (d *Disk) Sync() error {
	if !d.timed {
		return d.media.Sync()
	}
	t0 := time.Now()
	err := d.media.Sync()
	d.charge(Stats{MeasuredTime: time.Since(t0)}, nil)
	return err
}

// Close releases the media backend's OS resources (no-op for the
// simulated backend, and for a view, whose media belongs to its source).
// The disk must not be used afterwards.
func (d *Disk) Close() error {
	if d.view {
		return nil
	}
	return d.media.Close()
}

// mediaRead performs the physical backend read — outside every Disk
// lock — charging wall-clock MeasuredTime when the backend is real
// hardware.
func (d *Disk) mediaRead(start PageID, n int, dst []byte, sink *Client) error {
	if !d.timed {
		return d.media.ReadPages(start, n, dst)
	}
	t0 := time.Now()
	err := d.media.ReadPages(start, n, dst)
	d.charge(Stats{MeasuredTime: time.Since(t0)}, sink)
	return err
}

// mediaWrite mirrors mediaRead for page writes.
func (d *Disk) mediaWrite(id PageID, page []byte) error {
	if !d.timed {
		return d.media.WritePage(id, page)
	}
	t0 := time.Now()
	err := d.media.WritePage(id, page)
	d.charge(Stats{MeasuredTime: time.Since(t0)}, nil)
	return err
}

// PageSize returns the page size in bytes.
func (d *Disk) PageSize() int { return d.pageSize }

// NumPages returns the number of allocated pages.
func (d *Disk) NumPages() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int64(d.allocated)
}

// SizeBytes returns the allocated size of the disk in bytes — the quantity
// Table 2 reports per storage scheme.
func (d *Disk) SizeBytes() int64 { return d.NumPages() * int64(d.pageSize) }

// ResidentBytes returns the bytes actually materialized on the media
// (written, non-sparse pages) below the watermark; always ≤ SizeBytes.
func (d *Disk) ResidentBytes() int64 {
	return int64(len(d.storedPages(0, PageID(d.NumPages())))) * int64(d.pageSize)
}

// storedPages returns the materialized page IDs in [from, below),
// ascending. Callers bound the enumeration by their own watermark: a
// view's source may have appended pages above it on the shared media.
func (d *Disk) storedPages(from, below PageID) []PageID {
	ids := d.media.StoredPages(from)
	return ids[:sort.Search(len(ids), func(i int) bool { return ids[i] >= below })]
}

// Stats returns the accounting snapshot. Every counter — I/O, retries,
// buffer-pool flow — is read under the one stats lock,
// so a snapshot taken mid-run is mutually consistent: a pool miss is never
// visible without the miss counter that preceded it, and Reads never
// exceeds the misses that caused them.
func (d *Disk) Stats() Stats {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	return d.stats
}

// ResetStats zeroes the counters, including the pool's flow counters (the
// head positions and pool contents are kept).
func (d *Disk) ResetStats() {
	d.statsMu.Lock()
	d.stats = Stats{}
	d.statsMu.Unlock()
}

// charge applies a stats delta to the global counters and, when a session
// client issued the I/O, to that client's counters.
func (d *Disk) charge(delta Stats, sink *Client) {
	d.statsMu.Lock()
	d.stats = d.stats.Add(delta)
	d.statsMu.Unlock()
	if sink != nil {
		sink.add(delta)
	}
}

// AllocPages reserves n contiguous pages and returns the first PageID.
// The media is grown outside the lock (Backend.Allocate is grow-only, so
// concurrent growers landing out of order are harmless); a media that
// cannot grow — a full real disk — poisons subsequent writes instead of
// failing the allocation, which keeps the build-path signature simple.
func (d *Disk) AllocPages(n int) PageID {
	if n < 1 {
		n = 1
	}
	d.mu.Lock()
	start := d.allocated
	d.allocated += PageID(n)
	total := int64(d.allocated)
	d.mu.Unlock()
	if err := d.media.Allocate(total); err != nil {
		d.mu.Lock()
		d.growErr = err
		d.mu.Unlock()
	}
	return start
}

// PagesFor returns how many pages are needed for n bytes.
func (d *Disk) PagesFor(n int64) int {
	if n <= 0 {
		return 1
	}
	return int((n + int64(d.pageSize) - 1) / int64(d.pageSize))
}

// errOutOfRange is wrapped into range errors for errors.Is checks.
var errOutOfRange = errors.New("page out of range")

// ErrCorrupt is returned when a read hits a page marked corrupt by the
// failure-injection hook.
var ErrCorrupt = errors.New("storage: corrupt page")

// CorruptError is the concrete error for an unreadable page. It wraps
// ErrCorrupt (errors.Is keeps working) and carries the failing PageID so
// recovery code can quarantine exactly the damaged page.
type CorruptError struct {
	Page PageID
	// Quarantined is true when the read failed fast on a quarantined page
	// rather than on fresh media damage.
	Quarantined bool
	// Tripped is true when the read failed fast because the page's region
	// circuit breaker is open (SetBreaker) rather than on fresh damage.
	Tripped bool
}

func (e *CorruptError) Error() string {
	switch {
	case e.Quarantined:
		return fmt.Sprintf("storage: corrupt page: page %d (quarantined)", e.Page)
	case e.Tripped:
		return fmt.Sprintf("storage: corrupt page: page %d (breaker open)", e.Page)
	}
	return fmt.Sprintf("storage: corrupt page: page %d", e.Page)
}

// Unwrap lets errors.Is(err, ErrCorrupt) see through the structured error.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// Quarantine parks a page: subsequent reads fail immediately with a
// CorruptError, charging no seek, transfer, or retry cost. Recovery code
// quarantines pages it has seen fail so repeated frames stop re-seeking
// damaged media. A successful WritePage lifts the quarantine (the sector
// was remapped by the rewrite).
//
// A read whose extent holds a quarantined page fails before it charges
// anything, wherever in the extent the page lies — a pooled multi-page
// read checks every page's mark before it loads the first. An open
// breaker region is weaker on that path: its pages are asked page by page
// as the pooled read loads them (see SetBreaker), so the pages before it
// are charged and pooled first.
func (d *Disk) Quarantine(id PageID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id >= 0 && id < d.allocated {
		d.quarantined[id] = true
		if d.pool != nil {
			d.pool.invalidate(id)
		}
	}
}

// IsQuarantined reports whether a page is parked.
func (d *Disk) IsQuarantined(id PageID) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.quarantined[id]
}

// NumQuarantined returns how many pages are parked.
func (d *Disk) NumQuarantined() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.quarantined)
}

// ClearQuarantine lifts every quarantine mark (tests and repair tools).
func (d *Disk) ClearQuarantine() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.quarantined = make(map[PageID]bool)
}

// admit is the one gate in front of every charged media read: the n
// pages from start, charged as one sequential run of class. Its order is
// the accounting contract. A quarantined page fails first, charging
// nothing; then each page passes the optional circuit breaker, so an open
// region fails fast before any cost; then the run is charged once; then
// each page's physical outcome is drawn in ascending order, stopping at
// the first failure. Without a fault injector that outcome is just the
// CorruptPage marks; with one it draws injected faults and performs
// bounded retry-with-backoff (transient faults are absorbed, with retries
// counted in Stats), and a session context that is already expired fails
// fast before any draw or backoff is charged. Permanent-fault outcomes
// feed the breaker. The marks and the injector and breaker pointers are
// read in one d.mu section; the breaker's own lock is taken only after it
// is released.
func (d *Disk) admit(start PageID, n int, class Class, sink *Client) error {
	bad := n // the first page carrying a CorruptPage mark, if any
	d.mu.RLock()
	for i := 0; i < n; i++ {
		id := start + PageID(i)
		if d.quarantined[id] {
			d.mu.RUnlock()
			return &CorruptError{Page: id, Quarantined: true}
		}
		if bad == n && d.corrupt[id] {
			bad = i
		}
	}
	fi, br := d.faults, d.breaker
	d.mu.RUnlock()
	if br != nil {
		for i := 0; i < n; i++ {
			if err := br.allow(start + PageID(i)); err != nil {
				return err
			}
		}
	}
	d.account(start, int64(n), class, sink)
	if fi == nil {
		if bad == n {
			return nil
		}
		id := start + PageID(bad)
		if br != nil {
			br.observe(id, false)
		}
		return &CorruptError{Page: id}
	}
	for i := 0; i < n; i++ {
		id := start + PageID(i)
		if err := sink.ctxErr(); err != nil {
			return err
		}
		retries, cost, err := fi.check(i == bad, id)
		if retries > 0 {
			d.charge(Stats{Retries: retries, SimTime: cost}, sink)
		}
		if br != nil {
			br.observe(id, err == nil)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WritePage stores data (at most one page) at id. Write cost is charged as
// one page transfer; experiments only measure reads, matching the paper's
// read-only query workload. A successful write clears any corruption or
// quarantine mark on the page — rewriting a bad sector remaps it, which is
// what repair paths rely on.
func (d *Disk) WritePage(id PageID, data []byte) error {
	d.mu.RLock()
	allocated, gerr := d.allocated, d.growErr
	d.mu.RUnlock()
	if gerr != nil {
		return fmt.Errorf("storage: write page %d: media allocation failed: %w", id, gerr)
	}
	if d.view {
		return fmt.Errorf("storage: write page %d: a view never writes its shared media", id)
	}
	if id < 0 || id >= allocated {
		return fmt.Errorf("storage: write page %d: %w", id, errOutOfRange)
	}
	if len(data) > d.pageSize {
		return fmt.Errorf("storage: write of %d bytes exceeds page size %d", len(data), d.pageSize)
	}
	page := make([]byte, d.pageSize)
	copy(page, data)
	// Media write outside every lock (interface call); then clear marks.
	if err := d.mediaWrite(id, page); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	d.mu.Lock()
	delete(d.corrupt, id)
	delete(d.quarantined, id)
	if d.faults != nil {
		d.faults.heal(id)
	}
	if d.pool != nil {
		d.pool.invalidate(id)
	}
	if d.breaker != nil {
		d.breaker.heal(id)
	}
	d.mu.Unlock()
	d.charge(Stats{Writes: 1}, nil)
	return nil
}

// readPooled serves one in-range page through pool: a hit returns the
// resident frame itself, a miss reads the media (coalesced with any
// concurrent miss on the same page) and inserts the page. The caller has
// range-checked id and loaded pool under d.mu.
func (d *Disk) readPooled(pool *bufferPool, id PageID, class Class, sink *Client) ([]byte, error) {
	if p, ok := pool.get(id); ok {
		delta := Stats{PoolLightHits: 1}
		if class == ClassHeavy {
			delta = Stats{PoolHeavyHits: 1}
		}
		d.charge(delta, sink)
		return p, nil
	}
	if class == ClassHeavy {
		d.charge(Stats{PoolHeavyMisses: 1}, sink)
	} else {
		d.charge(Stats{PoolLightMisses: 1}, sink)
	}
	// Coalesce concurrent misses on the same page: the first reader does
	// the media read (and the pool insert); the rest wait for its result.
	for {
		page, err, leader := d.inflight.do(id, func() ([]byte, error) {
			if err := d.admit(id, 1, class, sink); err != nil {
				return nil, err
			}
			page := make([]byte, d.pageSize)
			if err := d.mediaRead(id, 1, page, sink); err != nil {
				return nil, fmt.Errorf("storage: read page %d: %w", id, err)
			}
			if ev := pool.put(id, page); ev > 0 {
				d.charge(Stats{PoolEvictions: ev}, nil)
			}
			return page, nil
		})
		if err == nil {
			if !leader {
				d.charge(Stats{CoalescedReads: 1}, sink)
			}
			return page, nil
		}
		// A leader aborted by its own session's context says nothing
		// about this reader's: a follower whose context is live joins
		// the next flight (or leads it) instead.
		if leader || !isAbort(err) || sink.ctxErr() != nil {
			return nil, err
		}
	}
}

// isAbort reports whether err is a read aborted by its session's context
// (Client.ctxErr).
func isAbort(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// PeekBytes reads length bytes starting at page start without charging
// any I/O, not even MeasuredTime. Build-time read-modify-write paths,
// open-time loads and fsck use it so that setup does not pollute the
// experiment counters; queries use ReadBytes. Page by page in ascending
// order, a peek fails on a page past the watermark, then on a quarantine
// mark, then on a corruption mark; it draws no injected faults — it
// models setup access, not the measured workload. The one media read
// happens outside the lock, and the result is a fresh buffer.
func (d *Disk) PeekBytes(start PageID, length int) ([]byte, error) {
	if length < 0 {
		return nil, errors.New("storage: negative peek length")
	}
	n := d.PagesFor(int64(length))
	d.mu.RLock()
	for i := 0; i < n; i++ {
		id := start + PageID(i)
		var err error
		switch {
		case id < 0 || id >= d.allocated:
			err = fmt.Errorf("storage: peek page %d: %w", id, errOutOfRange)
		case d.quarantined[id]:
			err = &CorruptError{Page: id, Quarantined: true}
		case d.corrupt[id]:
			err = &CorruptError{Page: id}
		}
		if err != nil {
			d.mu.RUnlock()
			return nil, err
		}
	}
	d.mu.RUnlock()
	out := make([]byte, n*d.pageSize)
	if err := d.media.ReadPages(start, n, out); err != nil {
		return nil, fmt.Errorf("storage: peek [%d,+%d): %w", start, n, err)
	}
	return out[:length], nil
}

// account charges n sequential page reads starting at id. The access is
// sequential if it continues one of the recent stream heads; otherwise it
// seeks and claims the least-recently-used stream slot.
func (d *Disk) account(id PageID, n int64, class Class, sink *Client) {
	var delta Stats
	d.statsMu.Lock()
	d.clock++
	slot := -1
	for i := range d.streams {
		// Continuing a stream, or re-reading its current page (served by
		// the drive's track buffer), costs no seek.
		if d.streams[i]+1 == id || d.streams[i] == id {
			slot = i
			break
		}
	}
	if slot < 0 {
		delta.Seeks = 1
		delta.SimTime += d.cost.Seek
		slot = 0
		for i := 1; i < numStreams; i++ {
			if d.streamAge[i] < d.streamAge[slot] {
				slot = i
			}
		}
	}
	d.streams[slot] = id + PageID(n) - 1
	d.streamAge[slot] = d.clock
	delta.Reads = n
	delta.SimTime += time.Duration(n) * d.cost.TransferPage
	switch class {
	case ClassHeavy:
		delta.HeavyReads = n
	default:
		delta.LightReads = n
	}
	d.stats = d.stats.Add(delta)
	d.statsMu.Unlock()
	if sink != nil {
		sink.add(delta)
	}
}

// WriteBytes stores data starting at page start, spanning as many pages as
// needed.
func (d *Disk) WriteBytes(start PageID, data []byte) error {
	for off := 0; off < len(data); off += d.pageSize {
		end := off + d.pageSize
		if end > len(data) {
			end = len(data)
		}
		if err := d.WritePage(start+PageID(off/d.pageSize), data[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// ReadBytes reads length bytes starting at page start, charging every
// page of the extent as one sequential run of class. Never-written pages
// read back zero-filled. Reads served by the buffer pool (SetCacheSize)
// cost nothing — seek and transfer are charged only on pool misses. The
// result is read-only: a pool-served single-page extent is the resident
// frame itself, shared with every other reader, and buf is left
// untouched. Any other extent lands in buf when its capacity holds
// length bytes, else in a fresh buffer; a nil or too-small buf is not
// written. The caller keeps its own handle on buf and never adopts the
// result in its place, since that may be a pool frame, and a caller that
// keeps a view over the result past its own next read into buf must pass
// nil. This is the read contract every reader keeps.
func (d *Disk) ReadBytes(start PageID, length int, class Class, buf []byte) ([]byte, error) {
	return d.readBytes(start, length, class, buf, nil)
}

func (d *Disk) readBytes(start PageID, length int, class Class, buf []byte, sink *Client) ([]byte, error) {
	if length < 0 {
		return nil, errors.New("storage: negative read length")
	}
	if err := sink.ctxErr(); err != nil {
		return nil, err
	}
	n := d.PagesFor(int64(length))
	d.mu.RLock()
	if start < 0 || start+PageID(n) > d.allocated {
		d.mu.RUnlock()
		return nil, fmt.Errorf("storage: read extent [%d,%d): %w", start, int64(start)+int64(n), errOutOfRange)
	}
	pool := d.pool
	if class != ClassLight {
		pool = nil // the pool admits light pages only
	}
	if pool != nil && n > 1 {
		// A pooled extent is loaded page by page, so a parked page
		// anywhere in it must fail the read before the first page is
		// charged or pooled (Quarantine's promise). The breaker cannot
		// be asked up front the same way: allow is stateful — it counts
		// each rejection and lets exactly one half-open probe through —
		// and each page's pool miss asks it again in admit.
		for i := 0; i < n; i++ {
			if id := start + PageID(i); d.quarantined[id] {
				d.mu.RUnlock()
				return nil, &CorruptError{Page: id, Quarantined: true}
			}
		}
	}
	d.mu.RUnlock()
	if pool != nil {
		if n == 1 {
			// A single-page extent is the frame itself, capped so an
			// append by the caller can never reach the frame's tail.
			p, err := d.readPooled(pool, start, class, sink)
			if err != nil {
				return nil, err
			}
			return p[:length:length], nil
		}
		// Page-at-a-time through the buffer pool; consecutive misses
		// still count as one sequential run via the stream heads.
		out := callerBuf(buf, length)
		for i := 0; i < n; i++ {
			if err := sink.ctxErr(); err != nil {
				return nil, err
			}
			p, err := d.readPooled(pool, start+PageID(i), class, sink)
			if err != nil {
				return nil, err
			}
			copy(out[i*d.pageSize:], p)
		}
		return out, nil
	}
	if err := d.admit(start, n, class, sink); err != nil {
		return nil, err
	}
	// One vectored media read for the whole extent — a single pread on
	// the file backend, where the page-at-a-time loop used to issue n —
	// copying only the length bytes asked for.
	out := callerBuf(buf, length)
	if err := d.mediaRead(start, n, out, sink); err != nil {
		return nil, fmt.Errorf("storage: read extent [%d,+%d): %w", start, n, err)
	}
	return out, nil
}

// callerBuf returns buf resliced to length bytes when its capacity
// allows, else a fresh buffer: a too-small buffer is never written.
func callerBuf(buf []byte, length int) []byte {
	if cap(buf) >= length {
		return buf[:length]
	}
	return make([]byte, length)
}

// ReadExtent charges n sequential page reads starting at start without
// materializing data. Heavy model payloads whose bytes the caller does not
// need (nominal-size padding) use this, keeping I/O counts exact while the
// process stays small.
func (d *Disk) ReadExtent(start PageID, n int, class Class) error {
	return d.readExtent(start, n, class, nil)
}

func (d *Disk) readExtent(start PageID, n int, class Class, sink *Client) error {
	if n < 1 {
		n = 1
	}
	if err := sink.ctxErr(); err != nil {
		return err
	}
	d.mu.RLock()
	if start < 0 || start+PageID(n) > d.allocated {
		d.mu.RUnlock()
		return fmt.Errorf("storage: extent [%d,%d): %w", start, int64(start)+int64(n), errOutOfRange)
	}
	d.mu.RUnlock()
	if err := d.admit(start, n, class, sink); err != nil {
		return err
	}
	if d.timed {
		// Real media: actually transfer the extent, in bounded chunks so
		// nominal-size heavy payloads never materialize on the heap, so
		// MeasuredTime reflects honest I/O. The simulated backend keeps
		// the historical charge-without-reading behavior.
		bp, _ := d.xfer.Get().(*[]byte)
		if bp == nil {
			buf := make([]byte, xferPages*d.pageSize)
			bp = &buf
		}
		defer d.xfer.Put(bp)
		buf := *bp
		for off := 0; off < n; off += xferPages {
			m := min(xferPages, n-off)
			if err := d.mediaRead(start+PageID(off), m, buf[:m*d.pageSize], sink); err != nil {
				return fmt.Errorf("storage: extent [%d,+%d): %w", start, n, err)
			}
		}
	}
	return nil
}

// xferPages is the chunk, in pages, that readExtent transfers per media
// call on a timed backend; Disk.xfer recycles buffers of this size.
const xferPages = 64

// CorruptPage marks a page as unreadable — the failure-injection hook used
// by recovery tests.
func (d *Disk) CorruptPage(id PageID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.corrupt[id] = true
	if d.pool != nil {
		d.pool.invalidate(id)
	}
}

// HealPage clears a corruption mark.
func (d *Disk) HealPage(id PageID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.corrupt, id)
}

// IsOutOfRange reports whether err came from an out-of-range page access.
func IsOutOfRange(err error) bool { return errors.Is(err, errOutOfRange) }

// Client is a per-session read handle on a Disk. Every read issued
// through a Client is charged both to the disk's global Stats and to the
// client's own, so concurrent sessions get exact per-session I/O and
// simulated-time attribution. Clients are safe for concurrent use (a
// monitor may snapshot or reset a client's Stats while its session
// reads); creating one is cheap. Writes and administrative operations
// stay on the Disk itself.
type Client struct {
	d  *Disk
	mu sync.Mutex
	s  Stats
	// ctx holds the boundCtx installed by BindContext. Reads through
	// this client fail fast once it is done; the zero value (no context)
	// never cancels.
	ctx atomic.Value
}

// boundCtx boxes the bound context so atomic.Value always stores one
// concrete type regardless of the context implementation behind the
// interface.
type boundCtx struct{ ctx context.Context }

// NewClient returns a fresh accounting handle on the disk.
func (d *Disk) NewClient() *Client { return &Client{d: d} }

// Disk returns the underlying disk.
func (c *Client) Disk() *Disk { return c.d }

// add accumulates a charged delta.
func (c *Client) add(delta Stats) {
	c.mu.Lock()
	c.s = c.s.Add(delta)
	c.mu.Unlock()
}

// Stats returns the client's accounting snapshot: only the I/O this
// client issued.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s
}

// ResetStats zeroes the client's counters (the disk's are untouched).
func (c *Client) ResetStats() {
	c.mu.Lock()
	c.s = Stats{}
	c.mu.Unlock()
}

// BindContext attaches ctx to the client: every subsequent read through
// the client checks it before touching media and fails fast once the
// deadline expires or the context is canceled. A fail-fast read charges
// no seek, transfer, retry, or backoff cost — cancellation is observed
// at the next read, not mid-transfer. Passing nil (or a fresh client)
// restores the unbounded behavior. The binding is per-client, so one
// session's deadline never affects another's reads.
func (c *Client) BindContext(ctx context.Context) {
	if ctx == nil {
		//lint:ignore ctxflow nil means unbind — the never-done context restores unbounded reads
		ctx = context.Background()
	}
	c.ctx.Store(boundCtx{ctx})
}

// ctxErr reports the bound context's error, wrapped as a non-degradable
// storage error (errors.Is still sees context.Canceled /
// context.DeadlineExceeded). Nil receiver and unbound clients never
// cancel: direct Disk reads pass a nil sink.
func (c *Client) ctxErr() error {
	if c == nil {
		return nil
	}
	v := c.ctx.Load()
	if v == nil {
		return nil
	}
	ctx := v.(boundCtx).ctx
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("storage: read aborted: %w", err)
	}
	return nil
}

// PageSize returns the disk's page size in bytes.
func (c *Client) PageSize() int { return c.d.PageSize() }

// PagesFor returns how many pages are needed for n bytes.
func (c *Client) PagesFor(n int64) int { return c.d.PagesFor(n) }

// ReadBytes mirrors Disk.ReadBytes with per-client attribution.
func (c *Client) ReadBytes(start PageID, length int, class Class, buf []byte) ([]byte, error) {
	return c.d.readBytes(start, length, class, buf, c)
}

// ReadExtent mirrors Disk.ReadExtent with per-client attribution.
func (c *Client) ReadExtent(start PageID, n int, class Class) error {
	return c.d.readExtent(start, n, class, c)
}
