package hdov

import (
	"context"
	"fmt"
	"time"

	"repro/internal/overload"
	"repro/internal/render"
	"repro/internal/review"
	"repro/internal/scene"
	"repro/internal/walkthrough"
)

// SessionKind selects one of the paper's §5.4 motion patterns.
type SessionKind int

const (
	// SessionNormal is session 1: a steady forward walk.
	SessionNormal SessionKind = iota
	// SessionTurning is session 2: walking while sweeping the gaze.
	SessionTurning
	// SessionBackForward is session 3: oscillating back and forth.
	SessionBackForward
)

func (s SessionKind) String() string {
	switch s {
	case SessionNormal:
		return "normal"
	case SessionTurning:
		return "turning"
	case SessionBackForward:
		return "back-forward"
	default:
		return fmt.Sprintf("SessionKind(%d)", int(s))
	}
}

// WalkOptions configures a walkthrough playback.
type WalkOptions struct {
	Session SessionKind
	// Frames is the session length (default 600).
	Frames int
	// Eta is the VISUAL DoV threshold (ignored with UseREVIEW).
	Eta float64
	// Delta enables the delta/complement search (default recommended).
	Delta bool
	// Coherent answers each client's cell-entry queries through its
	// session's retained traversal cut (see Session.QueryCellCoherent)
	// instead of descending from the root each time (VISUAL only).
	Coherent bool
	// UseREVIEW plays the session on the REVIEW spatial baseline instead
	// of the HDoV-tree.
	UseREVIEW bool
	// ReviewBoxDepth is REVIEW's query-box truncation in meters
	// (default 400, the paper's comparable-fidelity setting).
	ReviewBoxDepth float64
	// CacheBudget bounds the payload cache in bytes (0 = unlimited).
	CacheBudget int64
	// Seed controls the recorded path.
	Seed int64
	// FrameBudget bounds each frame's query + fetch by a per-frame
	// deadline (VISUAL only; 0 = unbounded). A frame that blows its
	// budget is skipped — the previous resident set carries it — and
	// counted, never silently stretched.
	FrameBudget time.Duration
	// Admission, when set, gates every cell-entry query through an
	// admission controller; rejected queries are counted, not errors.
	// Walkthrough's one client always finds a free slot.
	Admission *AdmissionConfig
	// Shed, when set, enables fidelity-aware load shedding (VISUAL only):
	// under sustained pressure queries run at a relaxed DoV threshold or
	// truncate at internal LoDs.
	Shed *ShedConfig
}

// WalkStats summarizes a playback — the Figure 10/12 and Table 3 metrics.
type WalkStats struct {
	System  string
	Session string
	Frames  int
	Queries int
	// AvgFrameMS and VarFrameMS are Table 3's columns.
	AvgFrameMS, VarFrameMS float64
	// AvgQueryMS and AvgQueryIO are Figure 12's metrics.
	AvgQueryMS, AvgQueryIO float64
	// PeakMemoryBytes is the payload cache's high-water mark.
	PeakMemoryBytes int64
	// FrameTimesMS is the full per-frame series (Figure 10's curves).
	FrameTimesMS []float64
	// TotalHeavyIO is the summed payload page reads.
	TotalHeavyIO int64
	// Degradations totals the media faults absorbed across the playback;
	// DegradedFrames counts frames that absorbed at least one. Both are
	// zero unless fault tolerance is on and faults fired.
	Degradations   int
	DegradedFrames int
	// Retries is the summed transient-fault retries across the playback.
	Retries int64
	// TotalLightIO is the summed index page reads charged to queries.
	TotalLightIO int64
	// Coherence reports the warm-path accounting when Coherent was set.
	Coherence CoherenceStats
	// BudgetMisses counts frames skipped because they blew FrameBudget.
	BudgetMisses int
}

// Walkthrough records a session with the requested motion pattern and
// plays it back, returning the performance trace. The VISUAL playback is
// Serve with one client: it plays on its own session, along the path
// Serve's client 0 walks.
func (db *DB) Walkthrough(opts WalkOptions) (*WalkStats, error) {
	return db.WalkthroughContext(context.Background(), opts)
}

// WalkthroughContext is Walkthrough bounded by ctx: cancellation or
// deadline expiry aborts the playback between (or within) frames with an
// error wrapping the context's error. WalkOptions.FrameBudget bounds
// individual frames independently of the whole-playback deadline.
func (db *DB) WalkthroughContext(ctx context.Context, opts WalkOptions) (*WalkStats, error) {
	var res *walkthrough.Result
	var coherence CoherenceStats
	if opts.UseREVIEW {
		tree, sc := db.session()
		cfg := review.DefaultConfig()
		cfg.QueryBoxDepth = opts.ReviewBoxDepth // review.New defaults 0 to 400
		p := &walkthrough.ReviewPlayer{
			Sys:         review.New(tree, cfg),
			Complement:  opts.Delta,
			CacheBudget: opts.CacheBudget,
			Render:      render.DefaultConfig(),
		}
		var err error
		if res, err = p.PlayContext(ctx, record(sc, opts, opts.Seed)); err != nil {
			return nil, err
		}
	} else {
		tr := db.play(ctx, opts, 1).Players[0]
		if tr.Err != nil {
			return nil, tr.Err
		}
		res, coherence = tr.Result, coherenceFrom(tr.Coherence)
	}
	out := &WalkStats{
		System:          res.System,
		Session:         res.Session,
		Frames:          len(res.Frames),
		Queries:         res.Queries,
		AvgFrameMS:      res.AvgFrameTime(),
		VarFrameMS:      res.VarFrameTime(),
		AvgQueryMS:      res.AvgQueryTime(),
		AvgQueryIO:      res.AvgQueryIO(),
		PeakMemoryBytes: res.PeakBytes,
		Degradations:    res.Degradations,
		DegradedFrames:  res.DegradedFrames,
		Coherence:       coherence,
		BudgetMisses:    res.BudgetMisses,
	}
	out.FrameTimesMS = make([]float64, len(res.Frames))
	for i, f := range res.Frames {
		out.FrameTimesMS[i] = float64(f.Total) / float64(time.Millisecond)
		out.TotalHeavyIO += f.HeavyIO
		out.TotalLightIO += f.LightIO
		out.Retries += f.Retries
	}
	return out, nil
}

// record records opts' motion pattern over sc (600 frames by default).
func record(sc *scene.Scene, opts WalkOptions, seed int64) walkthrough.Session {
	frames := opts.Frames
	if frames <= 0 {
		frames = 600
	}
	switch opts.Session {
	case SessionTurning:
		return walkthrough.RecordTurning(sc, frames, seed+1)
	case SessionBackForward:
		return walkthrough.RecordBackForward(sc, frames, seed+2)
	default:
		return walkthrough.RecordNormal(sc, frames, seed)
	}
}

// play plays n VISUAL clients concurrently on the current epoch, client
// i on its own session along the path recorded from opts.Seed + i — the
// one playback behind Walkthrough (n = 1) and Serve.
func (db *DB) play(ctx context.Context, opts WalkOptions, n int) walkthrough.ServeStats {
	base, sc := db.session()
	paths := make([]walkthrough.Session, n)
	for i := range paths {
		paths[i] = record(sc, opts, opts.Seed+int64(i))
	}
	m := &walkthrough.SessionManager{
		Base:        base,
		Eta:         opts.Eta,
		Delta:       opts.Delta,
		Coherent:    opts.Coherent,
		CacheBudget: opts.CacheBudget,
		Render:      render.DefaultConfig(),
		FrameBudget: opts.FrameBudget,
	}
	if r := db.currentRouter(); r != nil {
		// Sharded: each client gets its own routed shard session, so its
		// frames hit the owning shard's store and hand off between stores
		// at shard boundaries; answers are byte-identical to the unrouted
		// walk. Shed policies fan out to every shard store.
		m.Routes = func() walkthrough.Router { return r.Session() }
		m.ShedBases = r.Bases()
	}
	if opts.Admission != nil {
		m.Admission = overload.New(overload.Config{
			MaxConcurrent: opts.Admission.MaxConcurrent,
			MaxQueue:      opts.Admission.MaxQueue,
			MaxPerClient:  opts.Admission.MaxPerClient,
		})
	}
	if opts.Shed != nil {
		m.Shedder = overload.NewShedder(overload.ShedConfig{
			Target: opts.Shed.Target,
			Upper:  opts.Shed.Upper,
			Lower:  opts.Shed.Lower,
		})
	}
	return m.PlayContext(ctx, paths)
}
