package core_test

// Rebuild-differential suite for incremental scene maintenance: after any
// sequence of insert/delete/move operations, the incrementally maintained
// tree must answer every query byte-identically (modulo on-disk
// addresses) to a tree rebuilt from scratch over the replayed scene.
//
// The two paths deliberately share only the deterministic R-tree op
// evolution — Guttman insertion with the Ang–Tan split applies the same
// op sequence to the same base tree and produces the same topology, so
// the reference replays it independently and rebuilds every derived
// artifact (internal LoDs, visibility fields, payloads, node records)
// fresh on a fresh disk. Any divergence pins a bug in the incremental
// machinery: the LoD reuse cache, the touched-cell localization, the
// copy-on-write payload path, or the retained raw DoV.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/rtree"
	"repro/internal/scene"
	"repro/internal/storage"
	"repro/internal/vstore"
)

// genUpdateOps generates a seeded, deterministic update workload over the
// scene: ~35% inserts (procedural blobs dropped inside the view region),
// ~25% deletes and ~40% moves of live objects. The alive-set bookkeeping
// mirrors the scene's dense-ID discipline, so every generated op is valid
// when applied in order. Zero-delta moves are never generated (they would
// be no-ops that still exercise -0.0 bit hazards).
func genUpdateOps(seed int64, sc *scene.Scene, n int) []scene.Op {
	rng := rand.New(rand.NewSource(seed))
	alive := make([]int64, 0, len(sc.Objects))
	for _, o := range sc.Objects {
		if !o.Dead {
			alive = append(alive, o.ID)
		}
	}
	nextID := int64(len(sc.Objects))
	lo, hi := sc.ViewRegion.Min, sc.ViewRegion.Max
	ops := make([]scene.Op, 0, n)
	for len(ops) < n {
		r := rng.Float64()
		switch {
		case r < 0.35 || len(alive) <= 4:
			ops = append(ops, scene.Op{Kind: scene.OpInsert, Insert: &scene.InsertSpec{
				Seed:   rng.Int63(),
				X:      lo.X + 2 + rng.Float64()*(hi.X-lo.X-4),
				Y:      lo.Y + 2 + rng.Float64()*(hi.Y-lo.Y-4),
				Radius: 1 + 2*rng.Float64(),
			}})
			alive = append(alive, nextID)
			nextID++
		case r < 0.60:
			i := rng.Intn(len(alive))
			ops = append(ops, scene.Op{Kind: scene.OpDelete, ID: alive[i]})
			alive[i] = alive[len(alive)-1]
			alive = alive[:len(alive)-1]
		default:
			dx := (rng.Float64()*2 - 1) * 8
			dy := (rng.Float64()*2 - 1) * 8
			if dx == 0 && dy == 0 {
				dx = 1
			}
			ops = append(ops, scene.Op{Kind: scene.OpMove, ID: alive[rng.Intn(len(alive))], DX: dx, DY: dy})
		}
	}
	return ops
}

// rebuildReference constructs the from-scratch reference for an op
// sequence: replay the scene, replay the R-tree op evolution on an
// independent backbone, and build everything downstream fresh on a fresh
// disk.
func rebuildReference(baseSc *scene.Scene, bp core.BuildParams, ops []scene.Op) (*core.Tree, *core.VisData, *storage.Disk, error) {
	sc2 := baseSc.CloneShell()
	rt := rtree.New(bp.FanoutMin, bp.FanoutMax)
	for _, o := range baseSc.Objects {
		if !o.Dead {
			rt.Insert(o.MBR, o.ID)
		}
	}
	for i, op := range ops {
		eff, err := sc2.ApplyOp(op)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("replay op %d: %w", i, err)
		}
		switch eff.Kind {
		case scene.OpInsert:
			rt.Insert(eff.NewMBR, eff.ObjectID)
		case scene.OpDelete:
			if !rt.Delete(eff.OldMBR, eff.ObjectID) {
				return nil, nil, nil, fmt.Errorf("replay op %d: object %d not in R-tree", i, eff.ObjectID)
			}
		case scene.OpMove:
			if !rt.Delete(eff.OldMBR, eff.ObjectID) {
				return nil, nil, nil, fmt.Errorf("replay op %d: object %d not in R-tree", i, eff.ObjectID)
			}
			rt.Insert(eff.NewMBR, eff.ObjectID)
		}
	}
	d2 := storage.NewDisk(0, storage.DefaultCostModel())
	tr2, vis2, err := core.BuildFromRTree(sc2, d2, bp, rt)
	return tr2, vis2, d2, err
}

// canonAddrFree renders a query answer canonically like canon, but
// address-free: on-disk extent starts and fault page IDs are the only
// fields allowed to differ between the incremental tree and the rebuilt
// reference (they live on different disks with different allocation
// histories), so they are omitted. Every semantic field — objects, nodes,
// levels, exact DoV/detail/polygon bit patterns, payload sizes,
// degradation causes and substitutes — still compares bit for bit.
func canonAddrFree(r *core.QueryResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cell=%d eta=%x items=%d\n", r.Cell, math.Float64bits(r.Eta), len(r.Items))
	for _, it := range r.Items {
		fmt.Fprintf(&b, "item obj=%d node=%d lvl=%d dov=%x det=%x poly=%x bytes=%d/%d\n",
			it.ObjectID, it.NodeID, it.Level,
			math.Float64bits(it.DoV), math.Float64bits(it.Detail), math.Float64bits(it.Polygons),
			it.Extent.NominalBytes, it.Extent.RealBytes)
	}
	for _, d := range r.Degradations {
		fmt.Fprintf(&b, "degr cell=%d node=%d obj=%d cause=%s sub=%d sublvl=%d\n",
			d.Cell, d.Node, d.Object, d.Cause, d.SubstituteNode, d.SubstituteLevel)
	}
	return b.String()
}

// updEnv holds the incremental tree (evolved through batched ApplyOps)
// and the from-scratch reference, with all six scheme variants built over
// each.
type updEnv struct {
	bp    core.BuildParams
	ops   []scene.Op
	stats []*core.UpdateStats

	inc     *core.Tree
	incVis  *core.VisData
	incDisk *storage.Disk
	incSch  []diffScheme

	ref     *core.Tree
	refVis  *core.VisData
	refDisk *storage.Disk
	refSch  []diffScheme
}

var (
	updOnce sync.Once
	updVal  *updEnv
)

const (
	updWorkloadOps  = 120
	updBatchSize    = 17
	updWorkloadSeed = 42
)

func updSchemes(d *storage.Disk, vis *core.VisData) ([]diffScheme, error) {
	var out []diffScheme
	for _, codec := range []bool{false, true} {
		opts := vstore.Options{Codec: codec}
		suffix := ""
		if codec {
			suffix = "+codec"
		}
		h, err := vstore.Build(d, vis, vstore.SchemeHorizontal, opts)
		if err != nil {
			return nil, err
		}
		v, err := vstore.Build(d, vis, vstore.SchemeVertical, opts)
		if err != nil {
			return nil, err
		}
		iv, err := vstore.Build(d, vis, vstore.SchemeIndexedVertical, opts)
		if err != nil {
			return nil, err
		}
		out = append(out,
			diffScheme{"horizontal" + suffix, h},
			diffScheme{"vertical" + suffix, v},
			diffScheme{"indexed" + suffix, iv})
	}
	return out, nil
}

func updFixture(t *testing.T) *updEnv {
	t.Helper()
	updOnce.Do(func() {
		p := scene.DefaultCityParams()
		p.BlocksX, p.BlocksY = 2, 2
		p.BuildingsPerBlock = 4
		p.BlobsPerBlock = 2
		p.BlobDetail = 8
		p.NominalBytes = 32 << 20
		p.Seed = 11
		sc := scene.Generate(p)
		bp := core.DefaultBuildParams()
		bp.Grid = cells.NewGrid(sc.ViewRegion, 4, 4)
		bp.DirsPerViewpoint = 512
		bp.SamplesPerCell = 1

		d := storage.NewDisk(0, storage.DefaultCostModel())
		tr, vis, err := core.Build(sc, d, bp)
		if err != nil {
			panic(err)
		}
		e := &updEnv{bp: bp, incDisk: d}
		e.ops = genUpdateOps(updWorkloadSeed, sc, updWorkloadOps)

		// Incremental path: the op sequence applied in several batches, so
		// inter-batch state (retained raw DoV, reused LoD chains, reused
		// payload extents) is exercised, not just one update.
		for i := 0; i < len(e.ops); i += updBatchSize {
			j := i + updBatchSize
			if j > len(e.ops) {
				j = len(e.ops)
			}
			var st *core.UpdateStats
			tr, vis, _, st, err = core.ApplyOps(tr, vis, e.ops[i:j])
			if err != nil {
				panic(err)
			}
			e.stats = append(e.stats, st)
		}
		e.inc, e.incVis = tr, vis

		e.ref, e.refVis, e.refDisk, err = rebuildReference(sc, bp, e.ops)
		if err != nil {
			panic(err)
		}

		if e.incSch, err = updSchemes(e.incDisk, e.incVis); err != nil {
			panic(err)
		}
		if e.refSch, err = updSchemes(e.refDisk, e.refVis); err != nil {
			panic(err)
		}
		updVal = e
	})
	if updVal == nil {
		t.Fatal("update differential fixture failed")
	}
	return updVal
}

// updRunWorkload answers every (cell, eta) on one tree handle, with the
// plain or frame-coherent traversal.
func updRunWorkload(tr *core.Tree, coherent bool) (map[workloadKey]string, error) {
	out := make(map[workloadKey]string)
	for c := 0; c < tr.Grid.NumCells(); c++ {
		for _, eta := range diffEtas {
			var r *core.QueryResult
			var err error
			if coherent {
				r, err = tr.QueryCoherent(cells.CellID(c), eta)
			} else {
				r, err = tr.Query(cells.CellID(c), eta)
			}
			if err != nil {
				return nil, fmt.Errorf("cell %d eta %g: %w", c, eta, err)
			}
			out[workloadKey{cells.CellID(c), eta}] = canonAddrFree(r)
		}
	}
	return out, nil
}

// assertTreesAgree runs the full workload on the incremental tree and the
// rebuilt reference under every scheme × codec variant and fails on the
// first non-identical answer.
func assertTreesAgree(t *testing.T, e *updEnv, coherent bool) {
	t.Helper()
	for si := range e.incSch {
		e.inc.SetVStore(e.incSch[si].vs)
		e.ref.SetVStore(e.refSch[si].vs)
		// Coherent traversal carries per-handle cut state: run it on fresh
		// sessions so scheme variants do not contaminate each other.
		ti, tr := e.inc, e.ref
		if coherent {
			ti, tr = e.inc.Session(), e.ref.Session()
		}
		got, err := updRunWorkload(ti, coherent)
		if err != nil {
			t.Fatalf("%s: incremental: %v", e.incSch[si].name, err)
		}
		want, err := updRunWorkload(tr, coherent)
		if err != nil {
			t.Fatalf("%s: rebuild: %v", e.refSch[si].name, err)
		}
		for k, w := range want {
			if got[k] != w {
				t.Fatalf("scheme %s: incremental diverges from rebuild at cell %d eta %g:\n--- incremental\n%s--- rebuild\n%s",
					e.incSch[si].name, k.cell, k.eta, got[k], w)
			}
		}
	}
}

// TestUpdateDifferential is the main gate: a 120-op seeded workload
// applied in batches must leave the tree answering byte-identically to a
// from-scratch rebuild, across all three schemes, codec on and off, full
// and coherent traversal.
func TestUpdateDifferential(t *testing.T) {
	e := updFixture(t)

	// Structural invariants first: identical topology and constants.
	if e.inc.NumNodes() != e.ref.NumNodes() {
		t.Fatalf("node counts diverge: incremental %d, rebuild %d", e.inc.NumNodes(), e.ref.NumNodes())
	}
	if e.inc.SMeasured != e.ref.SMeasured {
		t.Fatalf("SMeasured diverges: %x vs %x",
			math.Float64bits(e.inc.SMeasured), math.Float64bits(e.ref.SMeasured))
	}
	if e.inc.RhoMeasured != e.ref.RhoMeasured {
		t.Fatalf("RhoMeasured diverges: %x vs %x",
			math.Float64bits(e.inc.RhoMeasured), math.Float64bits(e.ref.RhoMeasured))
	}
	// The retained raw DoV fields must be bit-identical to a fresh
	// precompute — this is the strongest form of the localization claim:
	// cells served from the previous epoch's rays are indistinguishable
	// from re-cast ones.
	for c := range e.refVis.RawDoV {
		if len(e.incVis.RawDoV[c]) != len(e.refVis.RawDoV[c]) {
			t.Fatalf("cell %d: raw DoV length %d vs %d", c, len(e.incVis.RawDoV[c]), len(e.refVis.RawDoV[c]))
		}
		for id, v := range e.refVis.RawDoV[c] {
			if g := e.incVis.RawDoV[c][id]; math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("cell %d object %d: raw DoV %x vs %x", c, id, math.Float64bits(g), math.Float64bits(v))
			}
		}
	}

	t.Run("serial", func(t *testing.T) { assertTreesAgree(t, e, false) })
	t.Run("coherent", func(t *testing.T) { assertTreesAgree(t, e, true) })
}

// TestUpdateStatsLocalize asserts the incremental machinery actually
// localizes — across the batched workload some internal-LoD chains and
// some cells must have been reused, and the bookkeeping must be sane.
func TestUpdateStatsLocalize(t *testing.T) {
	e := updFixture(t)
	reused, rebuilt, touched, total := 0, 0, 0, 0
	var pages int64
	for i, st := range e.stats {
		if st.Ops <= 0 || st.TotalCells != e.inc.Grid.NumCells() {
			t.Fatalf("batch %d: malformed stats %+v", i, st)
		}
		if st.TouchedCells < 0 || st.TouchedCells > st.TotalCells {
			t.Fatalf("batch %d: touched cells %d out of range [0,%d]", i, st.TouchedCells, st.TotalCells)
		}
		if st.PagesAppended <= 0 {
			t.Fatalf("batch %d: no pages appended", i)
		}
		reused += st.LoDReused
		rebuilt += st.LoDRebuilt
		touched += st.TouchedCells
		total += st.TotalCells
		pages += st.PagesAppended
	}
	if reused == 0 {
		t.Fatalf("no internal LoD chain was ever reused across %d batches (reused=%d rebuilt=%d)",
			len(e.stats), reused, rebuilt)
	}
	if rebuilt == 0 {
		t.Fatal("no internal LoD chain was ever rebuilt — the workload changed nothing?")
	}
	t.Logf("batches=%d ops=%d LoD reused/rebuilt=%d/%d cells touched=%d/%d pages appended=%d",
		len(e.stats), len(e.ops), reused, rebuilt, touched, total, pages)
}

// TestUpdateDifferentialDegradations corrupts the same (by node ID) node
// page on both disks and asserts the degraded answers — substitutions
// included — still match address-free, fault-tolerant traversal on.
func TestUpdateDifferentialDegradations(t *testing.T) {
	e := updFixture(t)
	if e.inc.NumNodes() < 2 {
		t.Skip("tree too small to corrupt a child")
	}
	child := e.inc.Root().Entries[0].ChildID
	incPage := e.inc.NodePage(child)
	refPage := e.ref.NodePage(child)
	e.incDisk.CorruptPage(incPage)
	e.refDisk.CorruptPage(refPage)
	e.inc.FaultTolerant = true
	e.ref.FaultTolerant = true
	defer func() {
		e.inc.FaultTolerant = false
		e.ref.FaultTolerant = false
		e.incDisk.HealPage(incPage)
		e.refDisk.HealPage(refPage)
		e.incDisk.ClearQuarantine()
		e.refDisk.ClearQuarantine()
	}()

	assertTreesAgree(t, e, false)

	// And the degradations must actually fire somewhere.
	e.inc.SetVStore(e.incSch[0].vs)
	got, err := updRunWorkload(e.inc, false)
	if err != nil {
		t.Fatal(err)
	}
	degraded := 0
	for _, v := range got {
		if strings.Contains(v, "degr ") {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatalf("corrupting node %d produced no degradations anywhere in the workload", child)
	}
}

// TestUpdateAtomicFailure: a batch that fails mid-way (deleting a dead
// object) must leave the tree unchanged and still updatable — the next
// valid batch applies cleanly and the differential gate still holds.
func TestUpdateAtomicFailure(t *testing.T) {
	p := scene.DefaultCityParams()
	p.BlocksX, p.BlocksY = 1, 1
	p.BuildingsPerBlock = 3
	p.BlobsPerBlock = 2
	p.BlobDetail = 8
	p.NominalBytes = 8 << 20
	p.Seed = 5
	sc := scene.Generate(p)
	bp := core.DefaultBuildParams()
	bp.Grid = cells.NewGrid(sc.ViewRegion, 2, 2)
	bp.DirsPerViewpoint = 256
	bp.SamplesPerCell = 1
	d := storage.NewDisk(0, storage.DefaultCostModel())
	tr, vis, err := core.Build(sc, d, bp)
	if err != nil {
		t.Fatal(err)
	}

	good := genUpdateOps(3, sc, 10)
	bad := append(append([]scene.Op(nil), good[:3]...), scene.Op{Kind: scene.OpDelete, ID: 10_000})
	if _, _, _, _, err := core.ApplyOps(tr, vis, bad); err == nil {
		t.Fatal("batch deleting a nonexistent object succeeded")
	}
	// The tree must still be intact and updatable after the failed batch.
	tr2, vis2, _, _, err := core.ApplyOps(tr, vis, good)
	if err != nil {
		t.Fatalf("update after failed batch: %v", err)
	}
	ref, refVis, refDisk, err := rebuildReference(sc, bp, good)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := vstore.Build(d, vis2, vstore.SchemeIndexedVertical, vstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	riv, err := vstore.Build(refDisk, refVis, vstore.SchemeIndexedVertical, vstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr2.SetVStore(iv)
	ref.SetVStore(riv)
	got, err := updRunWorkload(tr2, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := updRunWorkload(ref, false)
	if err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("after failed batch, incremental diverges at cell %d eta %g:\n%s\nvs\n%s",
				k.cell, k.eta, got[k], w)
		}
	}
}

// TestUpdateReopenedTree: ApplyOps on a tree whose backbone was adopted
// from the node mirror (the reopened-database path, simulated by
// OpenTree) must evolve identically to the tree that stayed live.
func TestUpdateReopenedTree(t *testing.T) {
	p := scene.DefaultCityParams()
	p.BlocksX, p.BlocksY = 1, 1
	p.BuildingsPerBlock = 3
	p.BlobsPerBlock = 2
	p.BlobDetail = 8
	p.NominalBytes = 8 << 20
	p.Seed = 6
	sc := scene.Generate(p)
	bp := core.DefaultBuildParams()
	bp.Grid = cells.NewGrid(sc.ViewRegion, 2, 2)
	bp.DirsPerViewpoint = 256
	bp.SamplesPerCell = 1
	d := storage.NewDisk(0, storage.DefaultCostModel())
	tr, vis, err := core.Build(sc, d, bp)
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := core.OpenTree(sc, d, tr.Manifest())
	if err != nil {
		t.Fatal(err)
	}

	ops := genUpdateOps(9, sc, 12)
	live, liveVis, _, _, err := core.ApplyOps(tr, vis, ops)
	if err != nil {
		t.Fatal(err)
	}
	// The reopened tree has no retained visibility: it recomputes every
	// cell once, which must land on the same bits.
	reTree, reVis, _, st, err := core.ApplyOps(reopened, nil, ops)
	if err != nil {
		t.Fatal(err)
	}
	if st.TouchedCells != st.TotalCells {
		t.Fatalf("reopened update touched %d/%d cells, want full recompute", st.TouchedCells, st.TotalCells)
	}
	if live.NumNodes() != reTree.NumNodes() {
		t.Fatalf("node counts diverge: live %d, reopened %d", live.NumNodes(), reTree.NumNodes())
	}
	for c := range liveVis.RawDoV {
		for id, v := range liveVis.RawDoV[c] {
			if g := reVis.RawDoV[c][id]; math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("cell %d object %d: raw DoV %x vs %x", c, id, math.Float64bits(g), math.Float64bits(v))
			}
		}
	}
}
