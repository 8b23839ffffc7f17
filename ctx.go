package hdov

import (
	"context"
	"time"

	"repro/internal/cells"
	"repro/internal/overload"
	"repro/internal/storage"
)

// Deadlines, cancellation, and overload control — the public surface of
// DESIGN.md §14. Every read runs on a Session, and each of its query and
// fetch forms has a Context-taking twin (QueryCellContext,
// QueryCellCoherentContext, FetchContext), as do Walkthrough and Serve;
// the plain forms run unbounded. Overload machinery (admission, shedding,
// the circuit breaker) is opt-in per call or per DB and reports every
// shed or rejected request explicitly.

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

// QueryCellContext is QueryCell bounded by ctx: the traversal observes
// cancellation or deadline expiry within one node expansion, and reads
// that would start after the deadline fail fast without paying seek,
// transfer, or retry cost. The error wraps context.Canceled or
// context.DeadlineExceeded. With a background context the answer is
// byte-identical to QueryCell's.
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

// QueryCellCoherentContext is QueryCellCoherent bounded by ctx. A
// canceled warm-path query aborts outright — it does not fall back to a
// second, full traversal the caller no longer wants.
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

// FetchContext is Fetch bounded by ctx: an expired deadline aborts the
// remaining payload reads, and items fetched before it keep their
// accounting.
func (s *Session) FetchContext(ctx context.Context, r *Result) error {
	t, err := s.route(int(r.inner.Cell))
	if err != nil {
		return err
	}
	before := t.IO.Stats()
	_, ferr := t.FetchPayloadsContext(ctx, r.inner, nil)
	if ferr != nil && ctx.Err() == nil {
		// Media fault: same contract as the unbounded path — the caller
		// gets the error and the Result stays untouched.
		return ferr
	}
	d := t.IO.Stats().Sub(before)
	r.HeavyIO += d.HeavyReads
	r.SimTime += d.SimTime
	r.Retries += d.Retries
	if ferr != nil {
		return ferr
	}
	// Payload faults absorbed during the fetch may have degraded items to
	// coarser levels and appended degradation records: re-mirror both.
	if len(r.inner.Degradations) > len(r.Degradations) {
		fresh := wrapResult(r.inner)
		r.Items = fresh.Items
		r.Degradations = fresh.Degradations
	}
	return nil
}
