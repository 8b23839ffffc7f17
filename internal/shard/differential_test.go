package shard

// Differential suite for sharding: for every storage scheme, codec
// layout, traversal mode (serial / coherent / scattered) and
// shard count (1 / 2 / 8, with and without hot-range replicas), routed
// answers must be byte-identical to the single-store baseline —
// Degradation events included. A divergence anywhere is a routing,
// view, or merge bug.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/scene"
	"repro/internal/storage"
	"repro/internal/vstore"
)

type fixEnv struct {
	sc   *scene.Scene
	disk *storage.Disk
	tree *core.Tree
	// man[false] is the raw layout, man[true] the codec layout, each per
	// scheme; all describe stores laid out on the same disk.
	man map[bool]map[vstore.Scheme]Manifests
	// stores[codec][scheme] is the baseline store for SetVStore.
	stores map[bool]map[vstore.Scheme]core.VStore
}

var (
	fixOnce sync.Once
	fixVal  *fixEnv
	fixErr  error
)

func fixture(t *testing.T) *fixEnv {
	t.Helper()
	fixOnce.Do(func() {
		p := scene.DefaultCityParams()
		p.BlocksX, p.BlocksY = 2, 2
		p.BuildingsPerBlock = 4
		p.BlobsPerBlock = 2
		p.BlobDetail = 8
		p.NominalBytes = 16 << 20
		p.Seed = 11
		sc := scene.Generate(p)
		d := storage.NewDisk(0, storage.DefaultCostModel())
		bp := core.DefaultBuildParams()
		bp.Grid = cells.NewGrid(sc.ViewRegion, 4, 4)
		bp.DirsPerViewpoint = 256
		bp.SamplesPerCell = 1
		tr, vis, err := core.Build(sc, d, bp)
		if err != nil {
			fixErr = err
			return
		}
		env := &fixEnv{
			sc: sc, disk: d, tree: tr,
			man:    map[bool]map[vstore.Scheme]Manifests{},
			stores: map[bool]map[vstore.Scheme]core.VStore{},
		}
		for _, codec := range []bool{false, true} {
			opts := vstore.Options{Codec: codec}
			h, err := vstore.BuildHorizontalOpts(d, vis, opts)
			if err != nil {
				fixErr = err
				return
			}
			v, err := vstore.BuildVerticalOpts(d, vis, opts)
			if err != nil {
				fixErr = err
				return
			}
			iv, err := vstore.BuildIndexedVerticalOpts(d, vis, opts)
			if err != nil {
				fixErr = err
				return
			}
			env.man[codec] = map[vstore.Scheme]Manifests{}
			env.stores[codec] = map[vstore.Scheme]core.VStore{}
			for _, l := range []vstore.Layout{h, v, iv} {
				env.man[codec][l.Scheme()] = Manifests{Tree: tr.Manifest(), Layout: l.LayoutManifest()}
				env.stores[codec][l.Scheme()] = l
			}
		}
		fixVal = env
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixVal
}

// fingerprint canonically renders a result: every byte that defines the
// answer, including degradations.
func fingerprint(r *core.QueryResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cell=%d eta=%g\n", r.Cell, r.Eta)
	for _, it := range r.Items {
		fmt.Fprintf(&b, "obj=%d node=%d dov=%x k=%x lvl=%d poly=%x ext=%d+%d/%d\n",
			it.ObjectID, it.NodeID, it.DoV, it.Detail, it.Level, it.Polygons,
			it.Extent.Start, it.Extent.NominalBytes, it.Extent.RealBytes)
	}
	for _, dg := range r.Degradations {
		fmt.Fprintf(&b, "degraded cell=%d node=%d obj=%d cause=%d page=%d sub=%d sublvl=%d\n",
			dg.Cell, dg.Node, dg.Object, dg.Cause, dg.Page, dg.SubstituteNode, dg.SubstituteLevel)
	}
	return b.String()
}

var diffSchemes = []struct {
	name string
	s    vstore.Scheme
}{
	{"horizontal", vstore.SchemeHorizontal},
	{"vertical", vstore.SchemeVertical},
	{"indexed-vertical", vstore.SchemeIndexedVertical},
}

const diffEta = 0.003

// golden computes the single-store serial baseline for every cell.
func golden(t *testing.T, env *fixEnv, codec bool, s vstore.Scheme) []string {
	t.Helper()
	env.tree.SetVStore(env.stores[codec][s])
	base := env.tree.Session()
	n := env.tree.Grid.NumCells()
	out := make([]string, n)
	for c := 0; c < n; c++ {
		r, err := base.Query(cells.CellID(c), diffEta)
		if err != nil {
			t.Fatalf("baseline cell %d: %v", c, err)
		}
		out[c] = fingerprint(r)
	}
	return out
}

func TestShardDifferential(t *testing.T) {
	env := fixture(t)
	n := env.tree.Grid.NumCells()
	allCells := make([]cells.CellID, n)
	for c := range allCells {
		allCells[c] = cells.CellID(c)
	}
	for _, codec := range []bool{false, true} {
		for _, sch := range diffSchemes {
			want := golden(t, env, codec, sch.s)
			for _, shards := range []int{1, 2, 8} {
				name := fmt.Sprintf("codec=%v/%s/shards=%d", codec, sch.name, shards)
				t.Run(name, func(t *testing.T) {
					r, err := NewRouter(env.sc, env.disk, env.man[codec][sch.s], Config{
						Shards: shards,
					})
					if err != nil {
						t.Fatal(err)
					}
					check := func(mode string, got func(sess *Session, c cells.CellID) (*core.QueryResult, error)) {
						sess := r.Session()
						for c := 0; c < n; c++ {
							res, err := got(sess, cells.CellID(c))
							if err != nil {
								t.Fatalf("%s cell %d: %v", mode, c, err)
							}
							if fp := fingerprint(res); fp != want[c] {
								t.Fatalf("%s cell %d diverged from baseline:\n got %s\nwant %s",
									mode, c, fp, want[c])
							}
						}
					}
					check("serial", func(s *Session, c cells.CellID) (*core.QueryResult, error) {
						return s.QueryCell(c, diffEta)
					})
					check("coherent", func(s *Session, c cells.CellID) (*core.QueryResult, error) {
						return s.RouteTree(c).QueryCoherent(c, diffEta)
					})

					// Scatter-gather: the whole grid in one batch.
					sess := r.Session()
					batch, err := sess.QueryMany(allCells, diffEta)
					if err != nil {
						t.Fatal(err)
					}
					for c, res := range batch {
						if fp := fingerprint(res); fp != want[c] {
							t.Fatalf("scatter cell %d diverged:\n got %s\nwant %s", c, fp, want[c])
						}
					}

					// Replicas: promote the hottest ranges (everything above
					// has traffic), then re-check through sessions that load
					// balance onto the mirrors.
					promoted, err := r.PromoteHot(2)
					if err != nil {
						t.Fatal(err)
					}
					if len(promoted) == 0 {
						t.Fatal("no shard promoted despite traffic")
					}
					onReplica := false
					for i := 0; i < 4; i++ {
						sess := r.Session()
						for _, p := range promoted {
							if sess.OnReplica(p) {
								onReplica = true
							}
						}
						for c := 0; c < n; c++ {
							res, err := sess.QueryCell(cells.CellID(c), diffEta)
							if err != nil {
								t.Fatalf("replica pass cell %d: %v", c, err)
							}
							if fp := fingerprint(res); fp != want[c] {
								t.Fatalf("replica pass cell %d diverged:\n got %s\nwant %s", c, fp, want[c])
							}
						}
					}
					if !onReplica {
						t.Fatal("no session was routed to a promoted replica")
					}
				})
			}
		}
	}
}

// TestShardDifferentialDegraded corrupts a single cell's V-pages and
// checks that degraded answers — Degradation records included — are
// byte-identical across shard counts. Every router's views copy the same
// corruption marks over the same pages, and each store quarantines the
// page on its own first encounter, so one pass over the grid must agree
// everywhere.
func TestShardDifferentialDegraded(t *testing.T) {
	env := fixture(t)
	n := env.tree.Grid.NumCells()
	for _, codec := range []bool{false, true} {
		t.Run(fmt.Sprintf("codec=%v", codec), func(t *testing.T) {
			// Corrupt cell 5's index segment: a page only that cell reads,
			// so quarantine state cannot couple queries of different cells
			// across stores. The codec layout packs segments into a shared
			// heap and has no such page.
			m := env.man[codec][vstore.SchemeIndexedVertical].Layout
			ranges, err := m.PageRanges(n, env.disk.PagesFor)
			if err != nil {
				t.Fatal(err)
			}
			var page storage.PageID = storage.NilPage
			for _, pr := range ranges {
				if pr.What == "indexed segment for cell 5" {
					page = pr.Start
				}
			}
			if page == storage.NilPage {
				t.Skip("no single-cell V-page to corrupt")
			}
			env.disk.CorruptPage(page)
			defer env.disk.HealPage(page)

			runs := make([][]string, 0, 3)
			for _, shards := range []int{1, 2, 8} {
				r, err := NewRouter(env.sc, env.disk, env.man[codec][vstore.SchemeIndexedVertical], Config{
					Shards: shards, FaultTolerant: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				sess := r.Session()
				fps := make([]string, n)
				sawDegradation := false
				for c := 0; c < n; c++ {
					res, err := sess.QueryCell(cells.CellID(c), diffEta)
					if err != nil {
						t.Fatalf("shards=%d cell %d: %v", shards, c, err)
					}
					if len(res.Degradations) > 0 {
						sawDegradation = true
					}
					fps[c] = fingerprint(res)
				}
				if !sawDegradation {
					t.Fatalf("shards=%d: corrupt V-page produced no degradation", shards)
				}
				runs = append(runs, fps)
			}
			for i := 1; i < len(runs); i++ {
				for c := 0; c < n; c++ {
					if runs[i][c] != runs[0][c] {
						t.Fatalf("degraded answers diverged at cell %d between shard counts:\n got %s\nwant %s",
							c, runs[i][c], runs[0][c])
					}
				}
			}
		})
	}
}
