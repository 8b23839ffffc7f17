package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/shard"
)

// The shardscale experiment measures what the shard router buys: N
// contiguous cell-range shards give the workload N independent simulated
// disk arms, so the aggregate throughput of a multi-client workload is
// bounded by the *busiest* spindle rather than the only one. The metric
// is deterministic — simulated disk time for a seeded dataset and a
// fixed workload — so the guard catches routing regressions (work
// collapsing back onto one store, broken trimming, a merge that
// re-serializes shards) without depending on host speed. Every routed
// answer is also checked byte-identical to the unsharded baseline. Every
// metric of the committed BENCH_shardscale.json is exact.

// shardLeg is one shard-count measurement.
type shardLeg struct {
	shards, queries int
	// maxSimMicros is the busiest store's simulated disk time — the
	// spindle that bounds wall clock on real hardware. totalSimMicros
	// sums simulated time across stores (constant across shard counts
	// up to boundary effects: sharding splits work, it does not shrink
	// it).
	maxSimMicros, totalSimMicros float64
	// qps is queries / maxSimMicros in queries per simulated second.
	qps float64
	// identical reports that every routed answer matched the unsharded
	// baseline byte for byte.
	identical bool
}

// shardManifests adapts a built Env to the shard layer's reopen set.
func shardManifests(e *Env) shard.Manifests {
	return shard.Manifests{
		Tree:  e.Tree.Manifest(),
		H:     e.H.Manifest(),
		V:     e.V.Manifest(),
		IV:    e.IV.Manifest(),
		Naive: e.Naive.Manifest(),
	}
}

// shardFingerprint renders the bytes that define an answer.
func shardFingerprint(r *core.QueryResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cell=%d eta=%g\n", r.Cell, r.Eta)
	for _, it := range r.Items {
		fmt.Fprintf(&b, "%d %d %x %x %d %x %d+%d/%d\n",
			it.ObjectID, it.NodeID, it.DoV, it.Detail, it.Level, it.Polygons,
			it.Extent.Start, it.Extent.NominalBytes, it.Extent.RealBytes)
	}
	for _, dg := range r.Degradations {
		fmt.Fprintf(&b, "deg %d %d %d %d\n", dg.Cell, dg.Node, dg.Object, dg.Cause)
	}
	return b.String()
}

const shardScaleEta = 0.001

// shardCounts is the sweep's shard counts; the last is the speedup gate's.
var shardCounts = []int{1, 2, 4, 8}

// shardScaleClients is the fixed harness width (the -clients default).
const shardScaleClients = 8

// runShardLeg drives the clients×perClient workload through a fresh
// router at the given shard count and returns the leg plus the router
// (heat populated, for the replica follow-on). Clients run one after
// another — the cost is simulated, so concurrency would only add
// scheduling noise; each client still has its own routed session and its
// own ring offset, exactly like RunServeClients.
func runShardLeg(e *Env, shards int, ws []cells.CellID, perClient int, baseline map[cells.CellID]string) (shardLeg, *shard.Router, error) {
	r, err := shard.NewRouter(e.Scene, e.Disk, shardManifests(e), shard.Config{
		Shards: shards,
		Scheme: shard.SchemeIndexedVertical,
	})
	if err != nil {
		return shardLeg{}, nil, err
	}
	leg, err := driveRouter(r, ws, perClient, baseline)
	return leg, r, err
}

// driveRouter runs the standard workload against an existing topology
// and measures the busiest-spindle throughput of that pass alone.
func driveRouter(r *shard.Router, ws []cells.CellID, perClient int, baseline map[cells.CellID]string) (shardLeg, error) {
	r.ResetStats()
	leg := shardLeg{
		shards:    r.Shards(),
		queries:   shardScaleClients * perClient,
		identical: true,
	}
	for i := 0; i < shardScaleClients; i++ {
		s := r.Session()
		for q := 0; q < perClient; q++ {
			c := ws[(i+q)%len(ws)]
			res, err := s.QueryCell(c, shardScaleEta)
			if err != nil {
				return leg, fmt.Errorf("client %d cell %d: %w", i, c, err)
			}
			if shardFingerprint(res) != baseline[c] {
				leg.identical = false
			}
		}
	}
	// The spindle that bounds the run is the busiest single store:
	// a shard's primary and each of its replicas are independent arms.
	var maxSim, totalSim time.Duration
	for _, st := range r.ShardStats() {
		totalSim += st.SimTime
		if st.SimTime > maxSim {
			maxSim = st.SimTime
		}
	}
	for _, st := range r.ReplicaStats() {
		// ReplicaStats sums a shard's mirrors; with the single replica
		// this experiment promotes, the sum is that store's own time.
		totalSim += st.SimTime
		if st.SimTime > maxSim {
			maxSim = st.SimTime
		}
	}
	leg.maxSimMicros = float64(maxSim.Microseconds())
	leg.totalSimMicros = float64(totalSim.Microseconds())
	if maxSim > 0 {
		leg.qps = float64(leg.queries) / maxSim.Seconds()
	}
	return leg, nil
}

// collectShardScale measures the shardscale reference for p: the shard
// sweep at 1/2/4/8 shards under the 8-client harness, the 8-shard leg's
// throughput over the 1-shard leg's, and the skewed-workload gain from
// mirroring the hot shard onto a replica store (sessions split across
// the two arms).
func collectShardScale(p Params) (*Reference, error) {
	e := freshEnv(p)
	ws := workingSet(e.Tree, 32)
	perClient := p.ScalQueries
	if perClient > 200 {
		perClient = 200
	}
	if perClient < 1 {
		perClient = 1
	}

	// Unsharded baseline answers, one per distinct working-set cell.
	e.Tree.SetVStore(e.IV)
	baseTree := e.Tree.Session()
	baseline := make(map[cells.CellID]string, len(ws))
	for _, c := range ws {
		res, err := baseTree.Query(c, shardScaleEta)
		if err != nil {
			return nil, fmt.Errorf("bench: shardscale baseline: %w", err)
		}
		baseline[c] = shardFingerprint(res)
	}

	r := newReference("shardscale", workloadTag(p))
	r.exact("clients", "clients", shardScaleClients)
	var base, speedup float64
	for _, shards := range shardCounts {
		leg, _, err := runShardLeg(e, shards, ws, perClient, baseline)
		if err != nil {
			return nil, fmt.Errorf("bench: shardscale %d shards: %w", shards, err)
		}
		prefix := fmt.Sprintf("shards=%d/", shards)
		r.exact(prefix+"queries", "queries", float64(leg.queries))
		r.exact(prefix+"max_shard_sim_micros", "sim-us", leg.maxSimMicros)
		r.exact(prefix+"total_sim_micros", "sim-us", leg.totalSimMicros)
		r.exact(prefix+"throughput_qps", "q/sim-s", leg.qps)
		r.exact(prefix+"identical", "bool", boolMetric(leg.identical))
		if shards == 1 {
			base = leg.qps
		}
		if base > 0 {
			speedup = leg.qps / base
		}
	}
	r.exact("speedup_at_8", "x", speedup)

	// Replica leg: every client hammers shard 0's range (a hot district).
	// The first pass feeds the heat EMAs and sets the unreplicated
	// reference; PromoteHot then mirrors the hot shard, and the rerun's
	// sessions split round-robin across primary and replica.
	hot := hotWorkload(e, 4)
	for _, c := range hot {
		if _, ok := baseline[c]; ok {
			continue
		}
		res, err := baseTree.Query(c, shardScaleEta)
		if err != nil {
			return nil, fmt.Errorf("bench: shardscale baseline: %w", err)
		}
		baseline[c] = shardFingerprint(res)
	}
	var replicaSpeedup float64
	if len(hot) > 0 {
		_, router, err := runShardLeg(e, 4, hot, perClient, baseline)
		if err != nil {
			return nil, fmt.Errorf("bench: shardscale hot: %w", err)
		}
		before, err := driveRouter(router, hot, perClient, baseline)
		if err != nil {
			return nil, fmt.Errorf("bench: shardscale hot rerun: %w", err)
		}
		if _, err := router.PromoteHot(1); err != nil {
			return nil, fmt.Errorf("bench: shardscale promote: %w", err)
		}
		after, err := driveRouter(router, hot, perClient, baseline)
		if err != nil {
			return nil, fmt.Errorf("bench: shardscale replicated: %w", err)
		}
		if !before.identical || !after.identical {
			return nil, fmt.Errorf("bench: shardscale replica leg diverged from baseline")
		}
		if before.qps > 0 {
			replicaSpeedup = after.qps / before.qps
		}
	}
	r.exact("replica_speedup", "x", replicaSpeedup)
	return r, nil
}

// hotWorkload returns the cells of shard 0's range under an n-shard
// partition — the skewed workload that makes one shard hot.
func hotWorkload(e *Env, shards int) []cells.CellID {
	m, err := shard.NewMap(e.Tree.Grid.NumCells(), shards)
	if err != nil {
		return nil
	}
	lo, hi := m.Range(0)
	out := make([]cells.CellID, 0, hi-lo)
	for c := lo; c < hi; c++ {
		out = append(out, c)
	}
	return out
}

// checkShardScale holds the two gates: every routed answer identical to
// the unsharded baseline, and >= 3x aggregate throughput at 8 shards.
func checkShardScale(cur, _ *Reference) []Claim {
	var claims []Claim
	for _, shards := range shardCounts {
		claims = append(claims, claim(cur.value(fmt.Sprintf("shards=%d/identical", shards)) == 1,
			"%d shards: routed answers identical to the unsharded baseline (claim: true)", shards))
	}
	x := cur.value("speedup_at_8")
	return append(claims, claim(x >= 3, "8-shard speedup %.2fx (claim: >= 3x)", x))
}

// RunShardScale is the "shardscale" experiment: the shard-count sweep
// under the fixed 8-client harness, reporting busiest-spindle simulated
// throughput, scaling, and answer fidelity, plus the hot-range replica
// gain.
func RunShardScale(w io.Writer, p Params) error {
	r, err := collectShardScale(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d clients round-robin over 32 cells, indexed-vertical, uncached; throughput = queries / busiest-spindle simulated time\n\n", shardScaleClients)
	fmt.Fprintf(w, "%-8s %-9s %-16s %-16s %-10s %s\n",
		"shards", "queries", "busiest (ms)", "throughput", "speedup", "identical")
	base := r.value("shards=1/throughput_qps")
	for _, shards := range shardCounts {
		v := func(m string) float64 { return r.value(fmt.Sprintf("shards=%d/%s", shards, m)) }
		speedup := 0.0
		if base > 0 {
			speedup = v("throughput_qps") / base
		}
		fmt.Fprintf(w, "%-8d %-9.0f %-16.1f %-16s %-10s %v\n",
			shards, v("queries"), v("max_shard_sim_micros")/1e3,
			fmt.Sprintf("%.0f q/s", v("throughput_qps")),
			fmt.Sprintf("%.2fx", speedup), v("identical") == 1)
	}
	fmt.Fprintf(w, "\nhot-range replica: skewed workload on one shard, %.2fx after PromoteHot (two arms serve the hot range)\n\n",
		r.value("replica_speedup"))
	return verdicts(w, "shardscale", checkShardScale(r, nil))
}
