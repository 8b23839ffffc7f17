// Package atomfix exercises atomicpub: stores to fields annotated
// hdov:guarded-by must happen with the named lock write-held on every
// path, and guarded-by atomic forbids direct stores entirely.
package atomfix

import "sync"

// DB mirrors the root handle's publication fields.
type DB struct {
	mu sync.Mutex
	// epoch is the published epoch number.
	// hdov:guarded-by mu
	epoch int64
	// tree is the published root pointer; readers snapshot it with an
	// atomic load, so writers must publish with an atomic store.
	// hdov:guarded-by atomic
	tree    *int
	statsMu sync.RWMutex
	// hits counts lookups under the stats lock.
	// hdov:guarded-by statsMu
	hits int
}

// Publish swaps the epoch under the lock: clean.
func (d *DB) Publish(e int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.epoch = e
}

// PublishInline unlocks explicitly after the store: clean.
func (d *DB) PublishInline(e int64) {
	d.mu.Lock()
	d.epoch = e
	d.mu.Unlock()
}

// Torn stores with no lock at all: flagged.
func (d *DB) Torn(e int64) {
	d.epoch = e // want atomicpub
}

// UnlockedEarly releases before the store: flagged.
func (d *DB) UnlockedEarly(e int64) {
	d.mu.Lock()
	d.mu.Unlock()
	d.epoch = e // want atomicpub
}

// OneBranch locks on only one path to the store: flagged, because the
// intersection join drops a lock not held on every incoming path.
func (d *DB) OneBranch(e int64, fast bool) {
	if !fast {
		d.mu.Lock()
		defer d.mu.Unlock()
	}
	d.epoch = e // want atomicpub
}

// ReadHold stores under a read lock: flagged, RLock cannot order
// writers against each other.
func (d *DB) ReadHold() {
	d.statsMu.RLock()
	defer d.statsMu.RUnlock()
	d.hits++ // want atomicpub
}

// WriteHold is the correct stats-counter protocol: clean.
func (d *DB) WriteHold() {
	d.statsMu.Lock()
	d.hits++
	d.statsMu.Unlock()
}

// DirectTree bypasses the atomic publication protocol; holding mu does
// not help, readers load the pointer without it: flagged.
func (d *DB) DirectTree(t *int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tree = t // want atomicpub
}

// applyLocked documents that its callers hold mu: the annotation seeds
// the entry fact, so the store is clean.
// hdov:caller-holds mu
func (d *DB) applyLocked(e int64) {
	d.epoch = e
}

// Apply drives applyLocked under the lock the way callers must.
func (d *DB) Apply(e int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.applyLocked(e)
}
