package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/overload"
	"repro/internal/storage"
)

// The overload experiment drives the serving stack past saturation and
// checks that the resilience kit (DESIGN.md §14) keeps its promises:
//
//	unprotected — 4x more clients than the engine's concurrency budget,
//	              seeded media faults, every query admitted and answered
//	              at full fidelity no matter the queue behind it
//	protected   — same clients, same faults, but gated by admission
//	              control, shed by the fidelity shedder, retried with
//	              jitter, and fenced by the per-region circuit breaker
//
// Both legs run overloadRounds times, alternating. The claims: the
// protected leg finishes every round with zero hard errors and with its
// protections demonstrably engaged (rejections or shed transitions
// observed), and its median p99 per-query simulated latency stays within
// 5% of the unprotected leg's. A third leg, also run every round, checks
// fail-fast cancellation: a query issued on an already-canceled context
// returns the context's error without touching the disk.
//
// Saturation interleaving is scheduler-shaped — which client holds an
// admission slot, and so which queries are rejected and how the shared
// disk's stream heads move, varies run to run — so the leg figures of
// the committed BENCH_overload.json are measured, never diffed; the
// medians over rounds are what the claims read.

// overloadFaults is the seeded fault plan both legs run under.
var overloadFaults = storage.FaultConfig{
	Seed:          7,
	PageProb:      0.004,
	TransientFrac: 0.7,
	MaxRetries:    3,
}

// overloadRounds is how many times each leg runs.
const overloadRounds = 5

// overloadLeg is one saturation run's outcome.
type overloadLeg struct {
	// queries counts queries answered (admitted and completed); rejected
	// admission rejections (protected leg only).
	queries, rejected int64
	// shedTransitions is the shedder's level-change count; degradations
	// sums per-query degradation records (media faults absorbed plus
	// shed substitutions).
	shedTransitions, degradations int64
	// hardErrors counts queries that returned an error — the quantity
	// the protected leg must hold at zero.
	hardErrors int64
	// meanMicros and p99Micros summarize per-query simulated latency.
	meanMicros, p99Micros float64
	// breakerTrips counts circuit-breaker region trips (protected only).
	breakerTrips int64
}

// overloadFigures names a leg's figures, in the order of figures().
var overloadFigures = []struct{ name, unit string }{
	{"queries", "queries"}, {"rejected", "queries"}, {"shed_transitions", "transitions"},
	{"degradations", "records"}, {"hard_errors", "queries"}, {"mean_micros", "sim-us/query"},
	{"p99_micros", "sim-us/query"}, {"breaker_trips", "trips"},
}

func (l overloadLeg) figures() []float64 {
	return []float64{float64(l.queries), float64(l.rejected), float64(l.shedTransitions),
		float64(l.degradations), float64(l.hardErrors), l.meanMicros, l.p99Micros, float64(l.breakerTrips)}
}

// overloadCfg sizes the saturation runs.
type overloadCfg struct {
	maxConcurrent int
	clients       int
	perClient     int
	cells         int
	eta           float64
}

func defaultOverloadCfg(p Params) overloadCfg {
	per := p.ScalQueries / 8
	if per < 25 {
		per = 25
	}
	if per > 100 {
		per = 100
	}
	return overloadCfg{
		maxConcurrent: 2,
		clients:       8, // 4x the concurrency budget
		perClient:     per,
		cells:         16,
		eta:           0.001,
	}
}

// runOverloadLeg runs one saturation workload. protected wires in the full
// resilience kit; target is the shedder's latency budget (ignored when
// not protected).
func runOverloadLeg(e *Env, cfg overloadCfg, protected bool, target time.Duration) (overloadLeg, error) {
	var out overloadLeg
	ws := workingSet(e.Tree, cfg.cells)

	faults := overloadFaults
	faults.Jitter = protected
	e.Disk.InjectFaults(faults)
	e.Tree.FaultTolerant = true
	defer func() {
		e.Disk.ClearFaults()
		e.Disk.ClearQuarantine()
		e.Disk.SetBreaker(storage.BreakerConfig{})
		e.Tree.FaultTolerant = false
		e.Tree.SetShed(nil)
	}()

	var ctrl *overload.Controller
	var shed *overload.Shedder
	if protected {
		ctrl = overload.New(overload.Config{
			MaxConcurrent: cfg.maxConcurrent,
			MaxQueue:      cfg.maxConcurrent,
			MaxPerClient:  3,
		})
		shed = overload.NewShedder(overload.ShedConfig{Target: target})
		e.Disk.SetBreaker(storage.BreakerConfig{RegionPages: 64, Threshold: 3, Cooldown: 32})
	}
	// Allocate the shared shed-policy slot before sessions are derived so
	// every client observes mid-run policy flips.
	e.Tree.SetShed(nil)

	type clientOut struct {
		lat          []time.Duration
		degradations int64
		hard         int64
		rejected     int64
		queries      int64
	}
	outs := make([]clientOut, cfg.clients)
	var wg sync.WaitGroup
	for i := 0; i < cfg.clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := e.Tree.Session()
			client := fmt.Sprintf("client-%d", i)
			for q := 0; q < cfg.perClient; q++ {
				if ctrl != nil {
					release, err := ctrl.Acquire(context.Background(), client)
					if err != nil {
						outs[i].rejected++
						continue
					}
					before := s.IO.Stats()
					res, qerr := s.Query(ws[(i+q)%len(ws)], cfg.eta)
					release()
					d := s.IO.Stats().Sub(before)
					outs[i].lat = append(outs[i].lat, d.SimTime)
					if qerr != nil {
						outs[i].hard++
						continue
					}
					outs[i].queries++
					outs[i].degradations += int64(len(res.Degradations))
					if shed != nil {
						if policy, changed := shed.Observe(d.SimTime); changed {
							e.Tree.SetShed(policy)
						}
					}
					continue
				}
				before := s.IO.Stats()
				res, qerr := s.Query(ws[(i+q)%len(ws)], cfg.eta)
				d := s.IO.Stats().Sub(before)
				outs[i].lat = append(outs[i].lat, d.SimTime)
				if qerr != nil {
					outs[i].hard++
					continue
				}
				outs[i].queries++
				outs[i].degradations += int64(len(res.Degradations))
			}
		}(i)
	}
	wg.Wait()

	var lats []time.Duration
	for _, o := range outs {
		lats = append(lats, o.lat...)
		out.queries += o.queries
		out.rejected += o.rejected
		out.degradations += o.degradations
		out.hardErrors += o.hard
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		var sum time.Duration
		for _, l := range lats {
			sum += l
		}
		out.meanMicros = float64(sum.Microseconds()) / float64(len(lats))
		out.p99Micros = float64(lats[len(lats)*99/100].Microseconds())
	}
	if shed != nil {
		out.shedTransitions = shed.Transitions()
	}
	if protected {
		out.breakerTrips = e.Disk.BreakerStats().Trips
	}
	return out, nil
}

// cancelLeg checks fail-fast cancellation: a query on a pre-canceled
// context must return the context's error having charged zero reads.
func cancelLeg(e *Env, cfg overloadCfg) bool {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := e.Tree.Session()
	ws := workingSet(e.Tree, cfg.cells)
	before := s.IO.Stats()
	_, err := s.QueryContext(ctx, ws[0], cfg.eta)
	d := s.IO.Stats().Sub(before)
	return err != nil && errors.Is(err, context.Canceled) && d.Reads == 0
}

// collectOverload runs overloadRounds rounds of all three legs against
// the default dataset. Each leg figure is recorded with every round as a
// sample and the median as its value.
func collectOverload(p Params) (*Reference, error) {
	e := freshEnv(p)
	cfg := defaultOverloadCfg(p)
	var unprotected, protected [][]float64
	failFast := true
	for round := 0; round < overloadRounds; round++ {
		u, err := runOverloadLeg(e, cfg, false, 0)
		if err != nil {
			return nil, fmt.Errorf("bench: overload unprotected: %w", err)
		}
		// The shedder defends half the unprotected mean: deep saturation
		// for the same workload, so the protected leg must shed to hold it.
		target := time.Duration(u.meanMicros/2) * time.Microsecond
		if target <= 0 {
			target = time.Microsecond
		}
		pr, err := runOverloadLeg(e, cfg, true, target)
		if err != nil {
			return nil, fmt.Errorf("bench: overload protected: %w", err)
		}
		unprotected = append(unprotected, u.figures())
		protected = append(protected, pr.figures())
		failFast = cancelLeg(e, cfg) && failFast
	}
	r := newReference("overload", workloadTag(p))
	for _, leg := range []struct {
		name   string
		rounds [][]float64
	}{{"unprotected", unprotected}, {"protected", protected}} {
		r.exact(leg.name+"/clients", "clients", float64(cfg.clients))
		for j, f := range overloadFigures {
			samples := make([]float64, len(leg.rounds))
			for i, round := range leg.rounds {
				samples[i] = round[j]
			}
			r.measured(leg.name+"/"+f.name, f.unit, 0, samples...)
		}
	}
	r.exact("cancel_fail_fast", "bool", boolMetric(failFast))
	return r, nil
}

// checkOverload holds the resilience claims: zero hard errors and
// engaged protections in every protected round, a protected median p99
// within 5% of the unprotected median, fail-fast cancellation in every
// round, and — against a committed reference — a protected median p99
// within 1.5x of the reference's unprotected one.
func checkOverload(cur, ref *Reference) []Claim {
	hard := cur.metric("protected/hard_errors").Samples
	rejected := cur.metric("protected/rejected").Samples
	shed := cur.metric("protected/shed_transitions").Samples
	noHard, engaged := len(hard) > 0, len(rejected) > 0 && len(shed) == len(rejected)
	for _, h := range hard {
		noHard = noHard && h == 0
	}
	for i := range rejected {
		engaged = engaged && rejected[i]+shed[i] > 0
	}
	p99, unprotectedP99 := cur.value("protected/p99_micros"), cur.value("unprotected/p99_micros")
	claims := []Claim{
		claim(noHard, "protected leg hard errors per round: %v (claim: 0)", hard),
		claim(p99 <= unprotectedP99*1.05, "protected median p99 %.0fµs vs unprotected %.0fµs (claim: <= 1.05x)",
			p99, unprotectedP99),
		claim(engaged, "protections engaged per round: %v rejections + %v shed transitions (claim: > 0)",
			rejected, shed),
		claim(cur.value("cancel_fail_fast") == 1,
			"pre-canceled query fails fast with zero reads in every round: %v (claim: true)", cur.value("cancel_fail_fast") == 1),
	}
	if ref != nil {
		refP99 := ref.value("unprotected/p99_micros")
		claims = append(claims, claim(refP99 <= 0 || p99 <= refP99*1.5,
			"protected median p99 %.0fµs vs reference unprotected p99 %.0fµs (claim: <= 1.5x)", p99, refP99))
	}
	return claims
}

// RunOverload prints the leg table (medians over rounds) and verdicts
// the resilience claims.
func RunOverload(w io.Writer, p Params) error {
	r, err := collectOverload(p)
	if err != nil {
		return err
	}
	cfg := defaultOverloadCfg(p)
	fmt.Fprintf(w, "%d clients at %dx saturation, %d queries/client over %d uncached cells, eta=%g, seeded faults (p=%g); median of %d rounds\n\n",
		cfg.clients, cfg.clients/cfg.maxConcurrent, cfg.perClient, cfg.cells, cfg.eta, overloadFaults.PageProb, overloadRounds)
	fmt.Fprintf(w, "%-12s %-9s %-9s %-7s %-8s %-8s %-12s %-12s %s\n",
		"leg", "queries", "rejected", "shed", "degraded", "hard", "mean µs", "p99 µs", "breaker trips")
	for _, leg := range []string{"unprotected", "protected"} {
		fmt.Fprintf(w, "%-12s", leg)
		for _, f := range overloadFigures {
			fmt.Fprintf(w, " %-8.0f", r.value(leg+"/"+f.name))
		}
		fmt.Fprintf(w, "\n%-12s p99 per round: %v\n", "", r.metric(leg+"/p99_micros").Samples)
	}
	fmt.Fprintln(w)
	return verdicts(w, "overload", checkOverload(r, nil))
}
