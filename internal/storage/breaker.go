package storage

import "sync"

// Per-region circuit breaker. Quarantine (PR-1) stops re-probing a page
// once recovery code has seen it fail, but damaged media is rarely a
// single page: a scratched region takes out a run of sectors, and every
// first touch of a fresh page in that run still pays a full seek plus the
// whole retry/backoff ladder before failing. The breaker closes that gap:
// it watches permanent-fault outcomes per fixed-size page region and,
// after Threshold consecutive failures in a region, trips the region open
// so further reads fail fast with a degradable CorruptError — charging no
// seek, transfer, retry, or backoff — exactly like a quarantined page.
// After Cooldown fail-fast rejections the region goes half-open and lets
// a single probe read through: a success closes the region again (the
// media was repaired or the faults were transient after all), a failure
// re-opens it. A successful WritePage into the region heals it outright,
// mirroring the quarantine-lifting rewrite contract.
//
// The cooldown is counted in rejected reads, not wall-clock time, so
// breaker behavior is deterministic for a given access sequence — the
// same property the seeded fault injector and the simulated cost model
// already guarantee (DESIGN.md §14).
//
// Unlike a quarantined page, an open region is not checked up front
// across a pooled multi-page read: allow is stateful — it counts each
// rejection toward the cooldown and lets exactly one half-open probe
// through — so it is asked once per page, as each page's pool miss is
// read. A breaker-open page later in such an extent therefore fails the
// read only after the pages before it were charged and pooled; an
// unpooled read asks every page before charging, and fails with nothing
// charged.

// BreakerConfig configures the per-region circuit breaker installed by
// SetBreaker.
type BreakerConfig struct {
	// RegionPages is the breaker's tracking granularity in pages; ids in
	// [k·RegionPages, (k+1)·RegionPages) share one state machine.
	// Non-positive selects the default of 64 pages (256 KiB).
	RegionPages int
	// Threshold is how many consecutive permanent faults trip a region
	// open. Non-positive selects the default of 3.
	Threshold int
	// Cooldown is how many fail-fast rejections an open region absorbs
	// before allowing a half-open probe. Non-positive selects the default
	// of 32.
	Cooldown int
}

// BreakerStats is a consistent snapshot of breaker activity.
type BreakerStats struct {
	// Trips counts closed→open transitions; Rejections counts reads
	// failed fast by an open region; Probes counts half-open probe reads
	// allowed through.
	Trips, Rejections, Probes int64
	// OpenRegions is the number of regions currently open or half-open.
	OpenRegions int
}

// breaker region states.
const (
	regionClosed = iota
	regionOpen
	regionHalfOpen
)

type breakerRegion struct {
	state int
	fails int // consecutive permanent faults while closed
	cool  int // rejections since the region opened
}

type breaker struct {
	regionPages PageID
	threshold   int
	cooldown    int

	mu      sync.Mutex
	regions map[PageID]*breakerRegion
	stats   BreakerStats
}

// SetBreaker installs a per-region circuit breaker in front of the media
// read path. Passing the zero BreakerConfig removes any installed
// breaker; installing one resets all region state. Non-positive fields
// select defaults (64 pages / 3 faults / 32 rejections).
func (d *Disk) SetBreaker(cfg BreakerConfig) {
	var br *breaker
	if cfg != (BreakerConfig{}) {
		if cfg.RegionPages <= 0 {
			cfg.RegionPages = 64
		}
		if cfg.Threshold <= 0 {
			cfg.Threshold = 3
		}
		if cfg.Cooldown <= 0 {
			cfg.Cooldown = 32
		}
		br = &breaker{
			regionPages: PageID(cfg.RegionPages),
			threshold:   cfg.Threshold,
			cooldown:    cfg.Cooldown,
			regions:     make(map[PageID]*breakerRegion),
		}
	}
	d.mu.Lock()
	d.breaker = br
	d.mu.Unlock()
}

// BreakerStats returns a snapshot of breaker activity (zeros when no
// breaker is installed).
func (d *Disk) BreakerStats() BreakerStats {
	d.mu.RLock()
	br := d.breaker
	d.mu.RUnlock()
	if br == nil {
		return BreakerStats{}
	}
	br.mu.Lock()
	defer br.mu.Unlock()
	out := br.stats
	for _, r := range br.regions {
		if r.state != regionClosed {
			out.OpenRegions++
		}
	}
	return out
}

func (b *breaker) region(id PageID) PageID { return id / b.regionPages }

// allow decides whether a read of page id may proceed.
func (b *breaker) allow(id PageID) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	r := b.regions[b.region(id)]
	if r == nil || r.state == regionClosed {
		return nil
	}
	if r.state == regionHalfOpen {
		// One probe is already in flight; further reads keep failing fast
		// until its outcome is observed.
		b.stats.Rejections++
		return &CorruptError{Page: id, Tripped: true}
	}
	r.cool++
	if r.cool >= b.cooldown {
		// Let the next read through as a half-open probe.
		r.state = regionHalfOpen
		b.stats.Probes++
		return nil
	}
	b.stats.Rejections++
	return &CorruptError{Page: id, Tripped: true}
}

// observe records the outcome of a physical read of page id: ok is false
// exactly when the read failed permanently (after exhausting retries).
func (b *breaker) observe(id PageID, ok bool) {
	key := b.region(id)
	b.mu.Lock()
	defer b.mu.Unlock()
	r := b.regions[key]
	if r == nil {
		if ok {
			return
		}
		r = &breakerRegion{}
		b.regions[key] = r
	}
	switch {
	case ok:
		// Success closes a half-open region and clears the failure run.
		r.state = regionClosed
		r.fails = 0
		r.cool = 0
	case r.state == regionHalfOpen:
		// The probe failed: re-open and restart the cooldown.
		r.state = regionOpen
		r.cool = 0
	case r.state == regionClosed:
		r.fails++
		if r.fails >= b.threshold {
			r.state = regionOpen
			r.cool = 0
			b.stats.Trips++
		}
	}
}

// heal clears the region containing id — called on a successful WritePage,
// which remaps the damaged sectors.
func (b *breaker) heal(id PageID) {
	b.mu.Lock()
	delete(b.regions, b.region(id))
	b.mu.Unlock()
}
