package storage

// Buffer pool: an optional sharded LRU cache over disk pages. The paper's
// prototype deliberately runs without node caching ("None of the two
// systems caches the tree nodes in the queries", §5.4), so the pool is
// disabled by default; the ablation suite (DESIGN.md D6) and the
// concurrent serving path (DESIGN.md §10) measure what a buffer manager
// adds.
//
// Admission is class-aware: only light-class (index) pages — tree nodes,
// V-pages, V-page-index segments — are admitted, because they are small,
// hot, and shared across sessions. Heavy-class (model payload) residency
// is governed by the walkthrough's semantic cache, matching the paper's
// architecture; letting multi-megabyte payload extents wash through the
// pool would evict the index working set.
//
// Concurrency: the pool is safe for concurrent use. It is split into
// power-of-two shards, each with its own mutex, LRU list and map, so
// concurrent sessions hitting disjoint pages do not serialize. Page data
// slices are immutable once inserted (WritePage invalidates rather than
// mutates), so a data slice returned by a lookup stays valid after
// eviction. Hits hand readers that slice itself, not a copy, so the
// pool's immutability rests on readers never writing what they are
// served (Disk.ReadBytes's contract).

import "sync"

// poolShards is the number of independently locked LRU shards (a power
// of two): more shards mean less lock contention between concurrent
// sessions.
const poolShards = 16

// PoolStats is the buffer pool's accounting snapshot, split by I/O class.
type PoolStats struct {
	LightHits, LightMisses int64
	HeavyHits, HeavyMisses int64
	Evictions              int64
	// Pages is the current resident frame count; Capacity is the
	// configured limit.
	Pages, Capacity int
	// ResidentBytes is the on-disk (encoded) byte footprint of the
	// resident frames. With the codec V-page layout the decoded working
	// set is larger than this.
	ResidentBytes int64
}

// Add returns p + o, for aggregating pools across shard stores.
func (p PoolStats) Add(o PoolStats) PoolStats {
	return PoolStats{
		LightHits:     p.LightHits + o.LightHits,
		LightMisses:   p.LightMisses + o.LightMisses,
		HeavyHits:     p.HeavyHits + o.HeavyHits,
		HeavyMisses:   p.HeavyMisses + o.HeavyMisses,
		Evictions:     p.Evictions + o.Evictions,
		Pages:         p.Pages + o.Pages,
		Capacity:      p.Capacity + o.Capacity,
		ResidentBytes: p.ResidentBytes + o.ResidentBytes,
	}
}

// Hits returns total hits across classes.
func (p PoolStats) Hits() int64 { return p.LightHits + p.HeavyHits }

// Misses returns total misses across classes.
func (p PoolStats) Misses() int64 { return p.LightMisses + p.HeavyMisses }

// bufFrame is one cached page copy.
type bufFrame struct {
	id         PageID
	data       []byte
	prev, next *bufFrame
}

// poolShard is one independently locked LRU. Shards hold no counters:
// every hit/miss/eviction outcome is returned to the caller and charged
// into Disk.stats under the one statsMu, so a Stats snapshot is mutually
// consistent even mid-run (DESIGN.md §14).
type poolShard struct {
	mu       sync.Mutex
	capacity int
	frames   map[PageID]*bufFrame
	head     *bufFrame // most recently used
	tail     *bufFrame // least recently used
}

// bufferPool is a sharded LRU of page copies.
type bufferPool struct {
	pages  int // capacity
	shards []*poolShard
	mask   PageID
}

func newBufferPool(pages int) *bufferPool {
	// Shard selection is a mask. Sharding makes replacement approximate
	// (LRU per shard, not global), so small pools collapse to fewer
	// shards — exact LRU matters more than lock spread when capacity is
	// tiny.
	n := poolShards
	for n > 1 && pages/n < 8 {
		n >>= 1
	}
	b := &bufferPool{pages: pages, shards: make([]*poolShard, n), mask: PageID(n - 1)}
	per := pages / n
	extra := pages % n
	for i := range b.shards {
		c := per
		if i < extra {
			c++
		}
		b.shards[i] = &poolShard{capacity: c, frames: make(map[PageID]*bufFrame)}
	}
	return b
}

func (b *bufferPool) shard(id PageID) *poolShard { return b.shards[id&b.mask] }

// get returns the cached copy of id, promoting it to MRU; the caller
// charges the hit/miss counters.
func (b *bufferPool) get(id PageID) (data []byte, ok bool) {
	s := b.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.frames[id]
	if !ok {
		return nil, false
	}
	s.moveToFront(f)
	return f.data, true
}

// put inserts (or refreshes) a page copy, evicting the LRU frame if the
// shard is full. The returned eviction count is charged by the caller.
func (b *bufferPool) put(id PageID, data []byte) (evictions int64) {
	s := b.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capacity <= 0 {
		return 0
	}
	if f, ok := s.frames[id]; ok {
		f.data = data
		s.moveToFront(f)
		return 0
	}
	f := &bufFrame{id: id, data: data}
	s.frames[id] = f
	s.pushFront(f)
	for len(s.frames) > s.capacity {
		victim := s.tail
		s.unlink(victim)
		delete(s.frames, victim.id)
		evictions++
	}
	return evictions
}

// invalidate drops a page (called on writes, corruption marks and
// quarantines so readers never see stale data).
func (b *bufferPool) invalidate(id PageID) {
	s := b.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.frames[id]; ok {
		s.unlink(f)
		delete(s.frames, id)
	}
}

// gauges walks the shards for the structural snapshot: resident frame
// count and byte footprint. The flow counters (hits, misses,
// evictions) live in Disk.stats, not here.
func (b *bufferPool) gauges() PoolStats {
	var out PoolStats
	out.Capacity = b.pages
	for _, s := range b.shards {
		s.mu.Lock()
		out.Pages += len(s.frames)
		for f := s.head; f != nil; f = f.next {
			out.ResidentBytes += int64(len(f.data))
		}
		s.mu.Unlock()
	}
	return out
}

// ResidentFrames returns every resident pool frame keyed by page — the
// frames themselves, not copies, so a test can checksum them, run reads,
// and prove no reader wrote into a frame it was served. Nil with no pool.
func (d *Disk) ResidentFrames() map[PageID][]byte {
	d.mu.RLock()
	pool := d.pool
	d.mu.RUnlock()
	if pool == nil {
		return nil
	}
	out := make(map[PageID][]byte)
	for _, s := range pool.shards {
		s.mu.Lock()
		for id, f := range s.frames {
			out[id] = f.data
		}
		s.mu.Unlock()
	}
	return out
}

func (s *poolShard) pushFront(f *bufFrame) {
	f.prev = nil
	f.next = s.head
	if s.head != nil {
		s.head.prev = f
	}
	s.head = f
	if s.tail == nil {
		s.tail = f
	}
}

func (s *poolShard) unlink(f *bufFrame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		s.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		s.tail = f.prev
	}
	f.prev, f.next = nil, nil
}

func (s *poolShard) moveToFront(f *bufFrame) {
	if s.head == f {
		return
	}
	s.unlink(f)
	s.pushFront(f)
}

// SetCacheSize installs (or removes, with n <= 0) a buffer pool of n
// light-class pages. Cached reads cost no simulated I/O — the cost model
// charges seek and transfer only on pool misses. Replacing a pool drops
// its contents; the flow counters live in the disk's Stats and persist
// across reconfiguration (ResetStats zeroes them).
func (d *Disk) SetCacheSize(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n <= 0 {
		d.pool = nil
		return
	}
	d.pool = newBufferPool(n)
}

// PoolStats returns the pool's per-class accounting (zero when disabled).
// The flow counters (hits, misses, evictions) come from
// one snapshot of the disk's stats lock, so they are mutually consistent
// with each other and with Stats(); the structural gauges (resident pages,
// bytes) are read from the shards afterwards.
func (d *Disk) PoolStats() PoolStats {
	d.mu.RLock()
	pool := d.pool
	d.mu.RUnlock()
	if pool == nil {
		return PoolStats{}
	}
	out := pool.gauges()
	d.statsMu.Lock()
	s := d.stats
	d.statsMu.Unlock()
	out.LightHits, out.LightMisses = s.PoolLightHits, s.PoolLightMisses
	out.HeavyHits, out.HeavyMisses = s.PoolHeavyHits, s.PoolHeavyMisses
	out.Evictions = s.PoolEvictions
	return out
}
