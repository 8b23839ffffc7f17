package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/scene"
	"repro/internal/storage"
)

// Config shapes a router's shard topology.
type Config struct {
	// Shards is the number of contiguous cell-range partitions.
	Shards int
	// FaultTolerant is applied to every store.
	FaultTolerant bool
	// CachePagesPerShard is each store's private buffer-pool capacity.
	CachePagesPerShard int
}

// Table is one immutable shard topology: the map plus the store set.
// Published copy-on-write by the Router — never mutated after Publish,
// so a Session can keep reading it forever without locks, exactly like a
// pinned scene epoch.
type Table struct {
	Map       Map
	Primaries []*Store
	// Replicas[i] holds shard i's hot-range mirrors (usually empty).
	Replicas [][]*Store
}

// stores returns shard i's serving candidates: primary plus replicas.
func (t *Table) stores(i int) int { return 1 + len(t.Replicas[i]) }

// storeAt returns shard i's pick-th candidate (0 = primary).
func (t *Table) storeAt(i, pick int) *Store {
	if pick == 0 {
		return t.Primaries[i]
	}
	return t.Replicas[i][pick-1]
}

// Router owns the shard topology and routes sessions to stores. The
// current Table is read via an atomic pointer; topology changes
// (promotion, demotion) build the replacement off to the side and swap
// it under mu. The mutex serializes writers and the per-shard tree copy
// a session takes on first use; queries never take it, and no store is
// opened under it.
type Router struct {
	sc   *scene.Scene
	src  *storage.Disk
	man  Manifests
	heat *Heat
	// rr spreads sessions over a shard's primary+replica candidates.
	rr atomic.Uint64
	// mu serializes topology and setting writers, and the store-tree
	// copies sessions take (storeSession); the published Table itself is
	// read lock-free through cur.
	mu  sync.Mutex
	cfg Config // hdov:guarded-by mu
	cur atomic.Pointer[Table]
	// openHook, when set, replaces open for replica stores (tests use it
	// to hold a promotion inside its open).
	openHook func(idx int, cfg Config) (*Store, error)
}

// NewRouter partitions the grid into cfg.Shards contiguous ranges and
// opens one primary store per shard over views of src.
func NewRouter(sc *scene.Scene, src *storage.Disk, man Manifests, cfg Config) (*Router, error) {
	numCells, err := cellCount(man)
	if err != nil {
		return nil, err
	}
	m, err := NewMap(numCells, cfg.Shards)
	if err != nil {
		return nil, err
	}
	r := &Router{sc: sc, src: src, man: man, cfg: cfg, heat: NewHeat(numCells)}
	tab := &Table{Map: m, Primaries: make([]*Store, m.Shards()), Replicas: make([][]*Store, m.Shards())}
	for i := 0; i < m.Shards(); i++ {
		st, err := r.open(i, cfg)
		if err != nil {
			return nil, err
		}
		tab.Primaries[i] = st
	}
	r.cur.Store(tab)
	return r, nil
}

// cellCount derives the grid size from the tree manifest.
func cellCount(man Manifests) (int, error) {
	g, err := man.Tree.Grid.Grid()
	if err != nil {
		return 0, fmt.Errorf("shard: %w", err)
	}
	return g.NumCells(), nil
}

// open builds one store under the current per-store settings.
func (r *Router) open(idx int, cfg Config) (*Store, error) {
	return OpenStore(r.sc, r.src, r.man, idx, StoreConfig{
		FaultTolerant: cfg.FaultTolerant,
		CachePages:    cfg.CachePagesPerShard,
	})
}

// Table returns the current topology snapshot.
func (r *Router) Table() *Table { return r.cur.Load() }

// Heat returns the per-cell hit tracker.
func (r *Router) Heat() *Heat { return r.heat }

// Shards returns the shard count.
func (r *Router) Shards() int { return r.Table().Map.Shards() }

// PromoteHot mirrors the k hottest shard ranges (per the hit EMAs) onto
// replica stores and publishes the new topology. The replicas are built
// fully — disk view, reopened tree and layout, warm-free pool —
// before the table swap, so no session ever observes a half-built
// store; sessions created before the swap keep their pinned table. It
// returns the promoted shard indices (empty when no shard has traffic).
// Shards already carrying a replica are not promoted twice.
//
// Opening a replica rereads every node record, so it runs outside mu:
// setters and the first query of a routed session on any shard do not
// wait for it. The replicas open under a snapshot of the settings; at
// install, under mu, each gets the router's current fault tolerance and
// cache size, and one whose shard another promotion filled meanwhile is
// discarded. A failed open publishes nothing.
func (r *Router) PromoteHot(k int) ([]int, error) {
	r.mu.Lock()
	cfg := r.cfg
	seen := r.cur.Load()
	hot := r.heat.TopShards(seen.Map, k)
	r.mu.Unlock()

	open := r.open
	if r.openHook != nil {
		open = r.openHook
	}
	var opened []*Store
	for _, i := range hot {
		if len(seen.Replicas[i]) > 0 {
			continue
		}
		st, err := open(i, cfg)
		if err != nil {
			promoted := make([]int, 0, len(opened))
			for _, st := range opened {
				promoted = append(promoted, st.Shard)
			}
			return promoted, err
		}
		opened = append(opened, st)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.cur.Load()
	next := &Table{
		Map:       old.Map,
		Primaries: old.Primaries,
		Replicas:  make([][]*Store, len(old.Replicas)),
	}
	copy(next.Replicas, old.Replicas)
	promoted := make([]int, 0, len(opened))
	for _, st := range opened {
		i := st.Shard
		if len(next.Replicas[i]) > 0 {
			continue // another promotion filled the shard first
		}
		// The store is still private: settings changed while it opened
		// are applied before anyone can see it.
		st.Tree.FaultTolerant = r.cfg.FaultTolerant
		if r.cfg.CachePagesPerShard != cfg.CachePagesPerShard {
			st.Disk.SetCacheSize(r.cfg.CachePagesPerShard)
		}
		st.Replica = true
		next.Replicas[i] = []*Store{st}
		promoted = append(promoted, i)
	}
	if len(promoted) > 0 {
		r.cur.Store(next)
	}
	return promoted, nil
}

// DropReplicas demotes every replica: the next published table serves
// primaries only. Sessions pinned to the old table keep their replicas.
func (r *Router) DropReplicas() {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.cur.Load()
	next := &Table{
		Map:       old.Map,
		Primaries: old.Primaries,
		Replicas:  make([][]*Store, len(old.Replicas)),
	}
	r.cur.Store(next)
}

// Session routes through the current topology. Each session picks one
// candidate (primary or replica) per shard, rotating over sessions so
// concurrent clients spread across a hot shard's mirrors; the pick is
// sticky for the session's lifetime, preserving per-store cursor and
// cut coherence.
func (r *Router) Session() *Session {
	tab := r.cur.Load()
	n := r.rr.Add(1) - 1
	picks := make([]int, tab.Map.Shards())
	for i := range picks {
		picks[i] = int(n % uint64(tab.stores(i)))
	}
	return &Session{router: r, tab: tab, picks: picks, trees: make([]*core.Tree, tab.Map.Shards())}
}

// forEachStore visits every store in the current table, primaries first,
// then replicas in shard order.
func (r *Router) forEachStore(fn func(*Store)) {
	tab := r.cur.Load()
	for _, st := range tab.Primaries {
		fn(st)
	}
	for _, reps := range tab.Replicas {
		for _, st := range reps {
			fn(st)
		}
	}
}

// storeSession opens a core session on st. The session copies the
// store's tree, so it is taken under mu: the setters below write the
// store trees' settings under the same lock. It runs once per shard a
// routed session touches, never per query; a PromoteHot opening replicas
// does not hold mu, so it never waits for one.
func (r *Router) storeSession(st *Store) *core.Tree {
	r.mu.Lock()
	defer r.mu.Unlock()
	return st.Tree.Session()
}

// SetFaultTolerant toggles degraded-mode traversal on every store.
func (r *Router) SetFaultTolerant(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cfg.FaultTolerant = on
	r.forEachStore(func(st *Store) { st.Tree.FaultTolerant = on })
}

// SetCacheSize installs a buffer pool of n pages on every store — the
// per-shard slice of an aggregate budget is the caller's division.
func (r *Router) SetCacheSize(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cfg.CachePagesPerShard = n
	r.forEachStore(func(st *Store) { st.Disk.SetCacheSize(n) })
}

// InjectFaults installs the same deterministic fault plan on every
// store's disk; ClearFaults removes it and lifts quarantines.
func (r *Router) InjectFaults(cfg storage.FaultConfig) {
	r.forEachStore(func(st *Store) { st.Disk.InjectFaults(cfg) })
}

// ClearFaults removes fault injectors and quarantine marks everywhere.
func (r *Router) ClearFaults() {
	r.forEachStore(func(st *Store) {
		st.Disk.ClearFaults()
		st.Disk.ClearQuarantine()
	})
}

// ShardStats returns each shard's primary-store accounting, indexed by
// shard. Replica traffic is reported separately by ReplicaStats.
func (r *Router) ShardStats() []storage.Stats {
	tab := r.cur.Load()
	out := make([]storage.Stats, len(tab.Primaries))
	for i, st := range tab.Primaries {
		out[i] = st.Disk.Stats()
	}
	return out
}

// ReplicaStats returns per-shard summed replica accounting (zero for
// shards without replicas).
func (r *Router) ReplicaStats() []storage.Stats {
	tab := r.cur.Load()
	out := make([]storage.Stats, len(tab.Replicas))
	for i, reps := range tab.Replicas {
		for _, st := range reps {
			out[i] = out[i].Add(st.Disk.Stats())
		}
	}
	return out
}

// Bases returns every store's base tree in the current topology
// (primaries in shard order, then each shard's replicas) — the serve
// path installs shared shed policies on all of them so routed sessions
// degrade fidelity in lockstep.
func (r *Router) Bases() []*core.Tree {
	tab := r.cur.Load()
	var out []*core.Tree
	for _, st := range tab.Primaries {
		out = append(out, st.Tree)
	}
	for _, reps := range tab.Replicas {
		for _, st := range reps {
			out = append(out, st.Tree)
		}
	}
	return out
}

// ResetStats zeroes every store's cumulative disk and traversal
// accounting (primaries and replicas alike).
func (r *Router) ResetStats() {
	r.forEachStore(func(st *Store) {
		st.Disk.ResetStats()
		st.Tree.IO.ResetStats()
	})
}

// ShardPoolStats returns each shard's primary buffer-pool counters.
func (r *Router) ShardPoolStats() []storage.PoolStats {
	tab := r.cur.Load()
	out := make([]storage.PoolStats, len(tab.Primaries))
	for i, st := range tab.Primaries {
		out[i] = st.Disk.PoolStats()
	}
	return out
}
