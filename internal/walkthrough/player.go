package walkthrough

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/overload"
	"repro/internal/render"
	"repro/internal/review"
	"repro/internal/storage"
)

// bgContext is the unbounded context behind the non-Context Play forms.
//
//lint:ignore ctxflow compat wrappers deliberately run unbounded
var bgContext = context.Background()

// FrameStat records one frame of a playback.
type FrameStat struct {
	QueryTime  time.Duration // simulated I/O time of this frame's queries
	RenderTime time.Duration
	Total      time.Duration
	LightIO    int64
	HeavyIO    int64
	Polygons   float64
	Fetched    int   // payloads actually retrieved (after delta search)
	CacheBytes int64 // residency after the frame
	Queried    bool  // whether a database query ran this frame
	// Degradations counts media faults absorbed this frame under
	// fault-tolerant traversal; see core.Degradation.
	Degradations int
	// Retries counts transient read faults the disk retried away this
	// frame.
	Retries int64
}

// Result is a full playback trace.
type Result struct {
	System    string
	Session   string
	Frames    []FrameStat
	PeakBytes int64
	// Queries is how many database queries ran (cell changes for VISUAL,
	// movement-triggered window queries for REVIEW).
	Queries int
	// Degradations totals the per-frame degradation counts; DegradedFrames
	// is the number of frames with at least one.
	Degradations   int
	DegradedFrames int
	// Rejected counts cell-entry queries the admission gate refused
	// (ErrOverloaded): the frame kept its previous geometry and the query
	// retried on a later frame. BudgetMisses counts frames whose query
	// blew the per-frame budget (FrameBudget) and were skipped the same
	// way. Both are explicit, countable overload outcomes — never errors.
	Rejected     int
	BudgetMisses int
}

// AvgFrameTime returns the mean frame time in milliseconds.
func (r *Result) AvgFrameTime() float64 {
	if len(r.Frames) == 0 {
		return 0
	}
	var sum float64
	for _, f := range r.Frames {
		sum += float64(f.Total) / float64(time.Millisecond)
	}
	return sum / float64(len(r.Frames))
}

// VarFrameTime returns the population variance of frame times in ms² —
// the smoothness metric of Table 3.
func (r *Result) VarFrameTime() float64 {
	if len(r.Frames) == 0 {
		return 0
	}
	mean := r.AvgFrameTime()
	var sum float64
	for _, f := range r.Frames {
		d := float64(f.Total)/float64(time.Millisecond) - mean
		sum += d * d
	}
	return sum / float64(len(r.Frames))
}

// PercentileFrameTime returns the p-th percentile frame time in
// milliseconds (p in [0, 100]; nearest-rank). The paper discusses
// "choppiness" via spikes; p95/p99 make it a number.
func (r *Result) PercentileFrameTime(p float64) float64 {
	if len(r.Frames) == 0 {
		return 0
	}
	times := make([]float64, len(r.Frames))
	for i, f := range r.Frames {
		times[i] = float64(f.Total) / float64(time.Millisecond)
	}
	sort.Float64s(times)
	if p <= 0 {
		return times[0]
	}
	if p >= 100 {
		return times[len(times)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(times)))) - 1
	if rank < 0 {
		rank = 0
	}
	return times[rank]
}

// MaxFrameTime returns the worst frame in milliseconds (the spike height
// of Figure 10).
func (r *Result) MaxFrameTime() float64 {
	return r.PercentileFrameTime(100)
}

// AvgQueryTime returns the mean simulated search time per query in ms
// (Figure 12a).
func (r *Result) AvgQueryTime() float64 {
	if r.Queries == 0 {
		return 0
	}
	var sum float64
	for _, f := range r.Frames {
		if f.Queried {
			sum += float64(f.QueryTime) / float64(time.Millisecond)
		}
	}
	return sum / float64(r.Queries)
}

// AvgQueryIO returns the mean I/O operations per query (Figure 12b).
func (r *Result) AvgQueryIO() float64 {
	if r.Queries == 0 {
		return 0
	}
	var sum float64
	for _, f := range r.Frames {
		if f.Queried {
			sum += float64(f.LightIO + f.HeavyIO)
		}
	}
	return sum / float64(r.Queries)
}

// VisualPlayer plays sessions on the VISUAL system: HDoV-tree visibility
// queries, issued when the viewpoint enters a new cell, with delta search
// against the payload cache.
type VisualPlayer struct {
	Tree *core.Tree
	Eta  float64
	// Delta enables the delta search (§5.4); disabling it is ablation D4.
	Delta bool
	// Coherent routes cell-entry queries through the session's retained
	// traversal cut (core.Tree.QueryCoherent): adjacent-cell queries
	// re-evaluate the previous frontier instead of descending from the
	// root. Answer sets are byte-identical to full traversal; superseded
	// results are recycled into the session's free list.
	Coherent bool
	// CacheBudget bounds the payload cache (0 = unlimited).
	CacheBudget int64
	Render      render.Config

	// FrameBudget bounds each frame's query + fetch with a per-frame
	// context deadline (0 = unbounded). A frame that blows the budget is
	// skipped — previous geometry is kept, BudgetMisses counts it, and
	// the query retries next frame — while cancellation of the parent
	// context still aborts the playback.
	FrameBudget time.Duration
	// Gate, when set, is the admission gate called before every
	// cell-entry query (the serve path wires overload.Controller.Acquire
	// here). A nil release with a nil error is treated as admitted. An
	// overload.ErrOverloaded return sheds the query — counted in
	// Result.Rejected, never an error; any other error aborts.
	Gate func(ctx context.Context) (release func(), err error)
	// Observe, when set, receives each demand query's simulated time —
	// the shedder's pressure signal.
	Observe func(simTime time.Duration)
	// Route, when set, resolves the tree session serving each cell (the
	// sharded serve path wires the shard router's per-cell routing here;
	// nil, or a nil return, serves the cell from Tree). The demand query
	// and payload fetch both follow the routed tree, so a walk crossing
	// a shard boundary hands off between stores mid-session; answers are
	// byte-identical either way.
	Route func(cells.CellID) *core.Tree
}

// treeFor resolves the tree session serving cell c.
func (p *VisualPlayer) treeFor(c cells.CellID) *core.Tree {
	if p.Route != nil {
		if t := p.Route(c); t != nil {
			return t
		}
	}
	return p.Tree
}

// Play runs the session unbounded; see PlayContext.
func (p *VisualPlayer) Play(s Session) (*Result, error) {
	return p.PlayContext(bgContext, s)
}

// PlayContext runs the session and returns the trace. The context bounds
// the whole playback: cancellation aborts between frames (and inside any
// in-flight query at its next traversal checkpoint).
func (p *VisualPlayer) PlayContext(ctx context.Context, s Session) (*Result, error) {
	cache := NewCache(p.CacheBudget)
	out := &Result{System: fmt.Sprintf("VISUAL(eta=%g)", p.Eta), Session: s.Name}
	cur := cells.NoCell
	var resident *core.QueryResult
	residentTree := p.Tree // the tree that produced resident, for Recycle
	for _, pose := range s.Frames {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("walkthrough: playback aborted: %w", err)
		}
		var fs FrameStat
		cell := p.Tree.Grid.Locate(pose.Eye)
		if cell != cells.NoCell && cell != cur {
			fctx, fcancel := ctx, context.CancelFunc(func() {})
			if p.FrameBudget > 0 {
				fctx, fcancel = context.WithTimeout(ctx, p.FrameBudget)
			}
			admit := true
			release := func() {}
			if p.Gate != nil {
				rel, gerr := p.Gate(fctx)
				switch {
				case gerr == nil:
					if rel != nil {
						release = rel
					}
				case isOverloaded(gerr):
					// Shed: keep the previous frame's geometry, retry the
					// cell on a later frame. Counted, never an error.
					admit = false
					out.Rejected++
				case ctx.Err() != nil:
					fcancel()
					return nil, fmt.Errorf("walkthrough: admission: %w", gerr)
				default:
					// The frame budget expired while queued for admission.
					admit = false
					out.BudgetMisses++
				}
			}
			if admit {
				qt := p.treeFor(cell)
				before := treeStats(qt)
				res, err := p.queryCell(fctx, qt, cell)
				var fetched int
				if err == nil {
					var skip func(core.ResultItem) bool
					if p.Delta {
						skip = func(it core.ResultItem) bool { return cache.Covers(KeyOf(it), it.Level) }
					}
					fetched, err = qt.FetchPayloadsContext(fctx, res, skip)
					if err != nil {
						qt.Recycle(res)
					}
				}
				release()
				if err == nil {
					for _, it := range res.Items {
						cache.Add(KeyOf(it), it.Level, it.Extent.NominalBytes, itemCenter(qt, it), pose.Eye)
					}
					d := treeStats(qt).Sub(before)
					fs.QueryTime = d.SimTime
					fs.LightIO = d.LightReads
					fs.HeavyIO = d.HeavyReads
					fs.Retries = d.Retries
					fs.Fetched = fetched
					fs.Queried = true
					fs.Degradations += len(res.Degradations)
					out.Queries++
					if p.Observe != nil {
						p.Observe(d.SimTime)
					}
					residentTree.Recycle(resident)
					resident = res
					residentTree = qt
					cur = cell
				} else if fctx.Err() != nil && ctx.Err() == nil {
					// The frame budget expired mid-query: skip the frame,
					// keep the previous geometry, retry next frame. The
					// partial traversal's I/O still happened — charge it.
					out.BudgetMisses++
					d := treeStats(qt).Sub(before)
					fs.QueryTime = d.SimTime
					fs.LightIO = d.LightReads
					fs.HeavyIO = d.HeavyReads
					fs.Retries = d.Retries
				} else {
					fcancel()
					return nil, err
				}
			}
			fcancel()
		}
		if resident != nil {
			fs.Polygons = resident.Stats.TotalPolygons
		}
		fs.RenderTime = p.Render.RenderTime(fs.Polygons)
		fs.Total = p.Render.FrameTime(fs.Polygons, fs.QueryTime)
		fs.CacheBytes = cache.Bytes()
		out.Degradations += fs.Degradations
		if fs.Degradations > 0 {
			out.DegradedFrames++
		}
		out.Frames = append(out.Frames, fs)
	}
	residentTree.Recycle(resident)
	out.PeakBytes = cache.PeakBytes()
	return out, nil
}

// queryCell issues the frame's cell-entry query against the routed tree,
// via the incremental cut when Coherent is set (each routed tree keeps
// its own cut, so boundary crossings stay warm on both sides).
func (p *VisualPlayer) queryCell(ctx context.Context, t *core.Tree, cell cells.CellID) (*core.QueryResult, error) {
	if p.Coherent {
		return t.QueryCoherentContext(ctx, cell, p.Eta)
	}
	return t.QueryContext(ctx, cell, p.Eta)
}

// isOverloaded reports whether err is an explicit admission rejection —
// the one gate outcome the player sheds instead of aborting on.
func isOverloaded(err error) bool {
	return errors.Is(err, overload.ErrOverloaded)
}

// treeStats snapshots the accounting a player's frame deltas are measured
// against: the tree session's own client when present (exact under
// concurrent serving), else the global disk counters.
func treeStats(t *core.Tree) storage.Stats {
	if t.IO != nil {
		return t.IO.Stats()
	}
	return t.Disk.Stats()
}

// itemCenter locates an item for the distance-based cache policy.
func itemCenter(t *core.Tree, it core.ResultItem) geom.Vec3 {
	if it.ObjectID >= 0 {
		if obj := t.Scene.Object(it.ObjectID); obj != nil {
			return obj.MBR.Center()
		}
	}
	if it.NodeID >= 0 && int(it.NodeID) < len(t.Nodes) {
		b := geom.EmptyAABB()
		for _, e := range t.Nodes[it.NodeID].Entries {
			b = b.Union(e.MBR)
		}
		return b.Center()
	}
	return geom.Vec3{}
}

// ReviewPlayer plays sessions on the REVIEW baseline: window queries are
// reissued when the viewpoint moves or turns beyond thresholds, with the
// complement search skipping already-retrieved objects.
type ReviewPlayer struct {
	Sys *review.System
	// Complement enables REVIEW's complement ("delta") search.
	Complement bool
	// RequeryDist retriggers a window query after this much movement.
	RequeryDist float64
	// RequeryAngle retriggers after this gaze change (radians).
	RequeryAngle float64
	CacheBudget  int64
	Render       render.Config
}

// Play runs the session unbounded; see PlayContext.
func (p *ReviewPlayer) Play(s Session) (*Result, error) {
	return p.PlayContext(bgContext, s)
}

// PlayContext runs the session and returns the trace. The REVIEW
// baseline honors cancellation between frames only — its window queries
// predate the deadline machinery, matching the 2003 system it models.
func (p *ReviewPlayer) PlayContext(ctx context.Context, s Session) (*Result, error) {
	if p.RequeryDist <= 0 {
		p.RequeryDist = 10
	}
	if p.RequeryAngle <= 0 {
		p.RequeryAngle = 20 * math.Pi / 180
	}
	cache := NewCache(p.CacheBudget)
	out := &Result{System: fmt.Sprintf("REVIEW(box=%gm)", p.Sys.Cfg.QueryBoxDepth), Session: s.Name}
	var lastEye geom.Vec3
	var lastLook geom.Vec3
	var resident *core.QueryResult
	first := true
	for _, pose := range s.Frames {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("walkthrough: playback aborted: %w", err)
		}
		var fs FrameStat
		moved := first ||
			pose.Eye.Dist(lastEye) > p.RequeryDist ||
			angleBetween(pose.Look, lastLook) > p.RequeryAngle
		if moved {
			before := treeStats(p.Sys.T)
			res, err := p.Sys.Query(pose.Eye, pose.Look)
			if err != nil {
				return nil, err
			}
			var skip func(core.ResultItem) bool
			if p.Complement {
				skip = func(it core.ResultItem) bool { return cache.Covers(KeyOf(it), it.Level) }
			}
			fetched, err := p.Sys.FetchPayloads(res, skip)
			if err != nil {
				return nil, err
			}
			for _, it := range res.Items {
				cache.Add(KeyOf(it), it.Level, it.Extent.NominalBytes, itemCenter(p.Sys.T, it), pose.Eye)
			}
			d := treeStats(p.Sys.T).Sub(before)
			fs.QueryTime = d.SimTime
			fs.LightIO = d.LightReads
			fs.HeavyIO = d.HeavyReads
			fs.Retries = d.Retries
			fs.Fetched = fetched
			fs.Queried = true
			fs.Degradations += len(res.Degradations)
			out.Queries++
			resident = res
			lastEye = pose.Eye
			lastLook = pose.Look
			first = false
		}
		if resident != nil {
			fs.Polygons = resident.Stats.TotalPolygons
		}
		fs.RenderTime = p.Render.RenderTime(fs.Polygons)
		fs.Total = p.Render.FrameTime(fs.Polygons, fs.QueryTime)
		fs.CacheBytes = cache.Bytes()
		out.Degradations += fs.Degradations
		if fs.Degradations > 0 {
			out.DegradedFrames++
		}
		out.Frames = append(out.Frames, fs)
	}
	out.PeakBytes = cache.PeakBytes()
	return out, nil
}

// angleBetween returns the angle between two directions in radians.
func angleBetween(a, b geom.Vec3) float64 {
	an, bn := a.Normalize(), b.Normalize()
	d := geom.Clamp(an.Dot(bn), -1, 1)
	return math.Acos(d)
}
