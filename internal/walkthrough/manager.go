package walkthrough

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/overload"
	"repro/internal/render"
	"repro/internal/storage"
)

// SessionManager plays many walkthrough sessions concurrently against one
// open tree. Each player gets its own core.Tree session (shared structure
// and disk, private I/O accounting and storage-scheme cursor), so N
// walkers contend for the one simulated disk and share its buffer pool —
// the serving regime the paper's single-walker prototype never faces.
type SessionManager struct {
	Base *core.Tree
	Eta  float64
	// Delta enables the per-player delta search (each player has its own
	// payload cache, like each client has its own renderer memory).
	Delta bool
	// Coherent answers each player's cell-entry queries through its
	// session's retained traversal cut (see VisualPlayer.Coherent).
	Coherent bool
	// CacheBudget bounds each player's payload cache (0 = unlimited).
	CacheBudget int64
	Render      render.Config

	// Admission, when set, gates every cell-entry query through the
	// controller with a per-client fairness key; rejected queries are
	// shed (counted in Result.Rejected), never errors.
	Admission *overload.Controller
	// Shedder, when set, observes every query's simulated time and
	// installs/removes the base tree's ShedPolicy as pressure crosses its
	// hysteresis band — all live sessions see the flip on their next
	// query.
	Shedder *overload.Shedder
	// FrameBudget bounds each player frame's query + fetch (0 = none).
	FrameBudget time.Duration
	// Routes, when set, supplies per-player shard routing: called once
	// per player, it returns the player's router, whose accounting and
	// cut statistics sum over every shard store the player touched
	// (replacing the base session's in PlayerTrace). The sharded serve
	// path wires the shard router here; nil keeps every player on Base.
	Routes func() Router
	// ShedBases lists additional trees whose ShedPolicy flips alongside
	// Base when the Shedder trips — the sharded serve path lists every
	// shard store's base tree so all routed sessions shed the same
	// fidelity level at the same time.
	ShedBases []*core.Tree
}

// Router is one player's shard routing: the tree session serving each
// cell, plus the player's accounting summed across the shard stores it
// touched. shard.Session implements it.
type Router interface {
	RouteTree(cells.CellID) *core.Tree
	Stats() storage.Stats
	CoherenceStats() core.CoherenceStats
}

// setShed installs the policy on Base and every ShedBases tree.
func (m *SessionManager) setShed(p *core.ShedPolicy) {
	m.Base.SetShed(p)
	for _, t := range m.ShedBases {
		t.SetShed(p)
	}
}

// PlayerTrace is one client's playback outcome: the trace, the session's
// own I/O accounting (reads, retries, simulated time — this client's
// traffic only, however many others ran beside it), its warm-path
// accounting (zero unless Coherent), and the error if the playback
// aborted.
type PlayerTrace struct {
	Result    *Result
	IO        storage.Stats
	Coherence core.CoherenceStats
	Err       error
}

// Degraded reports how many media-fault degradations this client
// absorbed (zero unless fault tolerance is on and faults fired).
func (p PlayerTrace) Degraded() int {
	if p.Result == nil {
		return 0
	}
	return p.Result.Degradations
}

// ServeStats aggregates a concurrent playback run.
type ServeStats struct {
	Players []PlayerTrace
	// Queries is the summed query count across players; Elapsed is the
	// wall-clock span of the whole run, so Queries/Elapsed.Seconds() is
	// the aggregate served throughput.
	Queries int
	Elapsed time.Duration
	// Errs counts players whose playback aborted.
	Errs int
	// Rejected sums admission rejections across players; BudgetMisses
	// sums frames that blew their budget; Shed is the shedder's final
	// level-transition count (0 when no shedder ran).
	Rejected     int
	BudgetMisses int
	Shed         int64
}

// Throughput returns aggregate queries per wall-clock second.
func (s ServeStats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Queries) / s.Elapsed.Seconds()
}

// FirstErr returns the first player error, or nil.
func (s ServeStats) FirstErr() error {
	for i, p := range s.Players {
		if p.Err != nil {
			return fmt.Errorf("walkthrough: player %d: %w", i, p.Err)
		}
	}
	return nil
}

// Play runs all sessions unbounded; see PlayContext.
func (m *SessionManager) Play(sessions []Session) ServeStats {
	return m.PlayContext(bgContext, sessions)
}

// PlayContext runs all sessions concurrently, one goroutine per client,
// and returns when every playback has finished or the context is
// canceled (canceled playbacks count as errors on their traces). With
// Admission/Shedder set this is the overload-resilient serve path:
// queries are gated, pressure is observed, and fidelity is shed before
// latency is.
func (m *SessionManager) PlayContext(ctx context.Context, sessions []Session) ServeStats {
	if m.Shedder != nil {
		// Allocate the shared policy slots before any session is derived,
		// so every player sees subsequent policy flips; and clear any
		// policy a previous run left installed.
		m.setShed(nil)
	}
	out := ServeStats{Players: make([]PlayerTrace, len(sessions))}
	start := time.Now()
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tree := m.Base.Session()
			p := &VisualPlayer{
				Tree:        tree,
				Eta:         m.Eta,
				Delta:       m.Delta,
				Coherent:    m.Coherent,
				CacheBudget: m.CacheBudget,
				Render:      m.Render,
				FrameBudget: m.FrameBudget,
			}
			ioStats, coherence := tree.IO.Stats, tree.CoherenceStats
			if m.Routes != nil {
				r := m.Routes()
				p.Route = r.RouteTree
				ioStats, coherence = r.Stats, r.CoherenceStats
			}
			if m.Admission != nil {
				client := fmt.Sprintf("client-%d", i)
				p.Gate = func(qctx context.Context) (func(), error) {
					return m.Admission.Acquire(qctx, client)
				}
			}
			if m.Shedder != nil {
				p.Observe = func(simTime time.Duration) {
					if policy, changed := m.Shedder.Observe(simTime); changed {
						m.setShed(policy)
					}
				}
			}
			res, err := p.PlayContext(ctx, sessions[i])
			out.Players[i] = PlayerTrace{Result: res, IO: ioStats(), Coherence: coherence(), Err: err}
		}(i)
	}
	wg.Wait()
	out.Elapsed = time.Since(start)
	for _, p := range out.Players {
		if p.Err != nil {
			out.Errs++
			continue
		}
		out.Queries += p.Result.Queries
		out.Rejected += p.Result.Rejected
		out.BudgetMisses += p.Result.BudgetMisses
	}
	if m.Shedder != nil {
		out.Shed = m.Shedder.Transitions()
		// Leave the trees unshedded for whatever runs next.
		m.setShed(nil)
	}
	return out
}
