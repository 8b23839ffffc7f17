package hdov

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/overload"
	"repro/internal/storage"
)

// Deadlines, cancellation, and overload control — the public surface of
// DESIGN.md §14. Every query entry point has a Context-taking form;
// the plain forms run unbounded and behave exactly as before. Overload
// machinery (admission, shedding, the circuit breaker) is opt-in per
// call or per DB and reports every shed or rejected request explicitly.

// ErrOverloaded is returned (wrapped) when admission control rejects a
// request: the serving stack is saturated and the wait queue is full, or
// the client exceeded its fair share. Callers should back off and retry;
// the rejection is deliberate and immediate, never a timeout.
var ErrOverloaded = overload.ErrOverloaded

// AdmissionConfig bounds concurrent queries in the serve path (see
// WalkOptions.Admission). Zero values pick safe defaults (MaxConcurrent
// floored at 1; MaxQueue 0 means reject rather than wait).
type AdmissionConfig struct {
	// MaxConcurrent is how many queries may run at once.
	MaxConcurrent int
	// MaxQueue bounds the admission wait queue; arrivals beyond it are
	// rejected with ErrOverloaded.
	MaxQueue int
	// MaxPerClient caps one client's running + waiting share (0 = none).
	MaxPerClient int
}

// ShedConfig enables fidelity-aware load shedding in the serve path (see
// WalkOptions.Shed): when the per-query simulated-time EMA exceeds
// Target, queries are answered at a relaxed DoV threshold or truncated
// at internal-LoD ancestors — trading fidelity for bounded latency, with
// every shed query counted in Degradations (never silent).
type ShedConfig struct {
	// Target is the per-query simulated-time budget to defend.
	Target time.Duration
	// Upper and Lower bound the hysteresis band as fractions of Target
	// (defaults 1.0 and 0.7): shedding escalates above Target·Upper and
	// relaxes below Target·Lower.
	Upper, Lower float64
}

// BreakerConfig configures the per-region circuit breaker (SetBreaker):
// a disk region that keeps failing permanently trips open and fails
// fast — degradable, like a quarantined page — instead of paying the
// full seek + retry ladder on every fresh page of the damaged region.
type BreakerConfig struct {
	// RegionPages is the tracking granularity (default 64 pages).
	RegionPages int
	// Threshold is how many consecutive permanent faults trip a region
	// (default 3).
	Threshold int
	// Cooldown is how many fail-fast rejections an open region absorbs
	// before letting a half-open probe read through (default 32).
	Cooldown int
}

// SetBreaker installs the circuit breaker on the database's disk; the
// zero config removes it.
func (db *DB) SetBreaker(cfg BreakerConfig) {
	db.disk.SetBreaker(storage.BreakerConfig{
		RegionPages: cfg.RegionPages,
		Threshold:   cfg.Threshold,
		Cooldown:    cfg.Cooldown,
	})
}

// BreakerStats reports circuit-breaker activity.
type BreakerStats struct {
	// Trips counts regions tripped open; Rejections reads failed fast by
	// an open region; Probes half-open probe reads; OpenRegions the
	// regions currently open.
	Trips, Rejections, Probes int64
	OpenRegions               int
}

// BreakerStats returns the current breaker accounting (zeros when no
// breaker is installed).
func (db *DB) BreakerStats() BreakerStats {
	s := db.disk.BreakerStats()
	return BreakerStats{
		Trips: s.Trips, Rejections: s.Rejections, Probes: s.Probes,
		OpenRegions: s.OpenRegions,
	}
}

// QueryContext is Query bounded by ctx: the traversal observes
// cancellation or deadline expiry within one node expansion, and reads
// that would start after the deadline fail fast without paying seek,
// transfer, or retry cost. The error wraps context.Canceled or
// context.DeadlineExceeded. With a background context the answer is
// byte-identical to Query's.
func (db *DB) QueryContext(ctx context.Context, p Point, eta float64) (*Result, error) {
	t, _ := db.snapshot()
	cell := t.Grid.Locate(p.vec())
	if cell == cells.NoCell {
		return nil, ErrOutsideCells
	}
	return queryCellOn(ctx, t, int(cell), eta)
}

// QueryCellContext is QueryContext for an explicit cell index.
func (db *DB) QueryCellContext(ctx context.Context, cell int, eta float64) (*Result, error) {
	t, _ := db.snapshot()
	return queryCellOn(ctx, t, cell, eta)
}

// queryCellOn answers the DB-level query for cell on one epoch's tree.
func queryCellOn(ctx context.Context, t *core.Tree, cell int, eta float64) (*Result, error) {
	if n := t.Grid.NumCells(); cell < 0 || cell >= n {
		return nil, fmt.Errorf("hdov: cell %d out of range [0,%d)", cell, n)
	}
	r, err := t.QueryContext(ctx, cells.CellID(cell), eta)
	if err != nil {
		return nil, err
	}
	return wrapResult(r), nil
}

// FetchContext is Fetch bounded by ctx; an expired deadline aborts the
// remaining payload reads (items already fetched keep their accounting).
func (db *DB) FetchContext(ctx context.Context, r *Result) error {
	t, _ := db.snapshot()
	return fetchOn(ctx, t, r)
}

// QueryContext is Session.Query bounded by ctx; see DB.QueryContext.
func (s *Session) QueryContext(ctx context.Context, p Point, eta float64) (*Result, error) {
	cell := s.grid().Locate(p.vec())
	if cell == cells.NoCell {
		return nil, ErrOutsideCells
	}
	return s.QueryCellContext(ctx, int(cell), eta)
}

// QueryCellContext is Session.QueryCell bounded by ctx.
func (s *Session) QueryCellContext(ctx context.Context, cell int, eta float64) (*Result, error) {
	t, err := s.route(cell)
	if err != nil {
		return nil, err
	}
	r, err := t.QueryContext(ctx, cells.CellID(cell), eta)
	if err != nil {
		return nil, err
	}
	return wrapResult(r), nil
}

// QueryCoherentContext is Session.QueryCoherent bounded by ctx. A
// canceled warm-path query aborts outright — it does not fall back to a
// second, full traversal the caller no longer wants.
func (s *Session) QueryCoherentContext(ctx context.Context, p Point, eta float64) (*Result, error) {
	cell := s.grid().Locate(p.vec())
	if cell == cells.NoCell {
		return nil, ErrOutsideCells
	}
	return s.QueryCellCoherentContext(ctx, int(cell), eta)
}

// QueryCellCoherentContext is Session.QueryCellCoherent bounded by ctx.
func (s *Session) QueryCellCoherentContext(ctx context.Context, cell int, eta float64) (*Result, error) {
	t, err := s.route(cell)
	if err != nil {
		return nil, err
	}
	r, err := t.QueryCoherentContext(ctx, cells.CellID(cell), eta)
	if err != nil {
		return nil, err
	}
	return wrapResult(r), nil
}

// FetchContext is Session.Fetch bounded by ctx.
func (s *Session) FetchContext(ctx context.Context, r *Result) error {
	t, err := s.route(int(r.inner.Cell))
	if err != nil {
		return err
	}
	return fetchOn(ctx, t, r)
}
