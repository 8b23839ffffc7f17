package core_test

// Differential suite: the three V-page storage schemes of §4 hold the
// same visibility data, so for any (cell, eta) they must produce
// byte-identical answer sets — and so must every concurrent client. A
// disagreement anywhere is a lost-update or ordering bug in the storage
// schemes or the session machinery.

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/scene"
	"repro/internal/storage"
	"repro/internal/vstore"
)

// diffScheme pairs a scheme with a label that distinguishes the codec
// layout variants (Name() alone reports only the §4 scheme family).
type diffScheme struct {
	name string
	vs   vstore.Layout
}

type diffEnv struct {
	tree    *core.Tree
	disk    *storage.Disk
	schemes []diffScheme
}

var (
	diffOnce sync.Once
	diffVal  *diffEnv
)

func diffFixture(t *testing.T) *diffEnv {
	t.Helper()
	diffOnce.Do(func() {
		env, err := buildDiffEnv(storage.NewDisk(0, storage.DefaultCostModel()))
		if err != nil {
			panic(err)
		}
		diffVal = env
	})
	if diffVal == nil {
		t.Fatal("differential fixture failed")
	}
	return diffVal
}

// buildDiffEnv builds the differential scene, its tree and all six
// scheme layouts on d.
func buildDiffEnv(d *storage.Disk) (*diffEnv, error) {
	p := scene.DefaultCityParams()
	p.BlocksX, p.BlocksY = 2, 2
	p.BuildingsPerBlock = 4
	p.BlobsPerBlock = 2
	p.BlobDetail = 8
	p.NominalBytes = 32 << 20
	p.Seed = 7
	sc := scene.Generate(p)
	bp := core.DefaultBuildParams()
	bp.Grid = cells.NewGrid(sc.ViewRegion, 4, 4)
	bp.DirsPerViewpoint = 512
	bp.SamplesPerCell = 1
	tr, vis, err := core.Build(sc, d, bp)
	if err != nil {
		return nil, err
	}
	// Codec layout variants of the same visibility data: every answer
	// below must be byte-identical with the codec on or off.
	env := &diffEnv{tree: tr, disk: d}
	for _, codec := range []bool{false, true} {
		opts := vstore.Options{Codec: codec}
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
		suffix := ""
		if codec {
			suffix = "+codec"
		}
		env.schemes = append(env.schemes,
			diffScheme{"horizontal" + suffix, h}, diffScheme{"vertical" + suffix, v}, diffScheme{"indexed" + suffix, iv})
	}
	return env, nil
}

var diffEtas = []float64{0, 0.001, 0.008}

// canon renders a query answer into a canonical byte string: every item
// and degradation, floats as exact bit patterns. Two results compare
// equal iff they are byte-identical.
func canon(r *core.QueryResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cell=%d eta=%x items=%d\n", r.Cell, math.Float64bits(r.Eta), len(r.Items))
	for _, it := range r.Items {
		fmt.Fprintf(&b, "item obj=%d node=%d lvl=%d dov=%x det=%x poly=%x ext=%d/%d/%d\n",
			it.ObjectID, it.NodeID, it.Level,
			math.Float64bits(it.DoV), math.Float64bits(it.Detail), math.Float64bits(it.Polygons),
			it.Extent.Start, it.Extent.NominalBytes, it.Extent.RealBytes)
	}
	for _, d := range r.Degradations {
		fmt.Fprintf(&b, "degr cell=%d node=%d obj=%d cause=%s page=%d sub=%d sublvl=%d\n",
			d.Cell, d.Node, d.Object, d.Cause, d.Page, d.SubstituteNode, d.SubstituteLevel)
	}
	return b.String()
}

// workloadKey identifies one query of the differential workload.
type workloadKey struct {
	cell cells.CellID
	eta  float64
}

func diffWorkload(tr *core.Tree) []workloadKey {
	var ws []workloadKey
	for c := 0; c < tr.Grid.NumCells(); c++ {
		for _, eta := range diffEtas {
			ws = append(ws, workloadKey{cells.CellID(c), eta})
		}
	}
	return ws
}

// runWorkload answers the whole workload on one tree handle.
func runWorkload(tr *core.Tree, ws []workloadKey) (map[workloadKey]string, error) {
	out := make(map[workloadKey]string, len(ws))
	for _, k := range ws {
		r, err := tr.Query(k.cell, k.eta)
		if err != nil {
			return nil, fmt.Errorf("cell %d eta %g: %w", k.cell, k.eta, err)
		}
		out[k] = canon(r)
	}
	return out, nil
}

// diffReference answers the workload serially per scheme and asserts the
// three schemes agree byte for byte, returning the agreed reference.
func diffReference(t *testing.T, e *diffEnv, ws []workloadKey) map[workloadKey]string {
	t.Helper()
	var ref map[workloadKey]string
	var refName string
	for _, s := range e.schemes {
		e.tree.SetVStore(s.vs)
		got, err := runWorkload(e.tree, ws)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if ref == nil {
			ref, refName = got, s.name
			continue
		}
		for _, k := range ws {
			if got[k] != ref[k] {
				t.Fatalf("scheme %s disagrees with %s at cell %d eta %g:\n%s\nvs\n%s",
					s.name, refName, k.cell, k.eta, got[k], ref[k])
			}
		}
	}
	return ref
}

// assertConcurrentAgreement runs clients concurrent sessions per scheme
// over the full workload and asserts every client reproduces ref exactly.
func assertConcurrentAgreement(t *testing.T, e *diffEnv, ws []workloadKey, ref map[workloadKey]string, clients int) {
	t.Helper()
	for _, s := range e.schemes {
		e.tree.SetVStore(s.vs)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sess := e.tree.Session()
				got, err := runWorkload(sess, ws)
				if err != nil {
					errs[i] = err
					return
				}
				for _, k := range ws {
					if got[k] != ref[k] {
						errs[i] = fmt.Errorf("client %d cell %d eta %g:\n%s\nvs reference\n%s",
							i, k.cell, k.eta, got[k], ref[k])
						return
					}
				}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("scheme %s: %v", s.name, err)
			}
		}
	}
}

// TestDifferentialSchemes: all three schemes, 1 and 8 concurrent clients
// — one byte-identical answer per query.
func TestDifferentialSchemes(t *testing.T) {
	e := diffFixture(t)
	ws := diffWorkload(e.tree)
	ref := diffReference(t, e, ws)

	t.Run("concurrent-8", func(t *testing.T) {
		assertConcurrentAgreement(t, e, ws, ref, 8)
	})
}

// TestDifferentialDegradations: with an explicitly corrupted node page
// and fault tolerance on, the absorbed Degradation events must also be
// identical across schemes and client counts. (The
// corrupt page holds a node record, which every scheme shares.)
func TestDifferentialDegradations(t *testing.T) {
	e := diffFixture(t)
	ws := diffWorkload(e.tree)

	child := e.tree.Root().Entries[0].ChildID
	page := e.tree.NodePage(child)
	e.disk.CorruptPage(page)
	e.tree.FaultTolerant = true
	defer func() {
		e.tree.FaultTolerant = false
		e.disk.HealPage(page)
		e.disk.ClearQuarantine()
	}()

	ref := diffReference(t, e, ws)
	degraded := 0
	for _, k := range ws {
		if strings.Contains(ref[k], "degr ") {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatalf("corrupting node %d produced no degradations anywhere in the workload", child)
	}

	t.Run("concurrent-8", func(t *testing.T) {
		assertConcurrentAgreement(t, e, ws, ref, 8)
	})
}

// TestBaseTreeChargesVPages: a base tree reads its V-page layout through
// its own client, so a query's reported light I/O is every light page it
// caused — node records, flips and V-pages — and equals the disk-wide
// window around it, for all six scheme×codec layouts.
func TestBaseTreeChargesVPages(t *testing.T) {
	e := diffFixture(t)
	defer e.tree.SetVStore(e.schemes[2].vs)
	for _, s := range e.schemes {
		e.tree.SetVStore(s.vs)
		for c := 0; c < e.tree.Grid.NumCells(); c++ {
			before := e.disk.Stats()
			res, err := e.tree.Query(cells.CellID(c), 0.001)
			if err != nil {
				t.Fatalf("%s cell %d: %v", s.name, c, err)
			}
			window := e.disk.Stats().Sub(before)
			if res.Stats.LightIO != window.LightReads {
				t.Fatalf("%s cell %d: query reports %d light reads, the disk served %d",
					s.name, c, res.Stats.LightIO, window.LightReads)
			}
		}
	}
}
