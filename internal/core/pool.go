package core

import (
	"sync"

	"repro/internal/cells"
)

// Result recycling. A walkthrough issues one query per frame and promptly
// discards the answer, so the hot path's allocations are dominated by
// QueryResult headers and their Items/Degradations backing arrays. A
// session carries a small free list: Recycle returns a result to it, and
// the next query reuses the slices at their grown capacity. The base tree
// has no pool (resPool nil) — recycling is per-session, so two sessions
// can never trade backing arrays.

// resultPoolCap bounds the free list. A session's queries take one
// result at a time, so only a caller that recycles many results at once
// fills it.
const resultPoolCap = 64

// resultPool is a bounded LIFO free list of QueryResults. The mutex lets
// a caller hand a result back through Recycle from another goroutine
// than the one querying.
type resultPool struct {
	mu   sync.Mutex
	free []*QueryResult
}

func (p *resultPool) get() *QueryResult {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		return r
	}
	return nil
}

func (p *resultPool) put(r *QueryResult) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < resultPoolCap {
		p.free = append(p.free, r)
	}
}

// getResult allocates a result, reusing a recycled one when the session
// has a pool. Reused results keep their Items/Degradations capacity —
// that retained growth is the entire point.
func (t *Tree) getResult(cell cells.CellID, eta float64) *QueryResult {
	if t.resPool != nil {
		if r := t.resPool.get(); r != nil {
			r.Cell = cell
			r.Eta = eta
			return r
		}
	}
	return &QueryResult{Cell: cell, Eta: eta}
}

// Recycle returns res to the session's free list for reuse by a later
// query. The caller must not retain res, its Items, or its Degradations
// afterwards — the next query overwrites them in place. On a tree without
// a pool (the base tree) Recycle is a no-op, so callers can recycle
// unconditionally.
func (t *Tree) Recycle(res *QueryResult) {
	if t.resPool == nil || res == nil {
		return
	}
	res.reset()
	t.resPool.put(res)
}

// reset empties res in place, keeping its slices' capacity.
func (res *QueryResult) reset() {
	res.Items = res.Items[:0]
	res.Degradations = res.Degradations[:0]
	res.Stats = QueryStats{}
	res.substituted = nil
}
