package core_test

// FuzzUpdateDifferential drives the rebuild-differential gate with
// fuzzer-chosen workloads: a seeded op sequence (seed, length, batch
// split) is applied incrementally and compared against the from-scratch
// rebuild. The scene is tiny so each execution stays cheap; the corpus
// seeds cover single-batch, multi-batch and delete-heavy shapes. Any
// divergence — a stale reused LoD chain, a mislocalized cell, a payload
// aliasing bug — fails the round trip.

import (
	"math"
	"testing"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/scene"
	"repro/internal/storage"
	"repro/internal/vstore"
)

func fuzzBaseScene() (*scene.Scene, core.BuildParams) {
	p := scene.DefaultCityParams()
	p.BlocksX, p.BlocksY = 1, 1
	p.BuildingsPerBlock = 3
	p.BlobsPerBlock = 2
	p.BlobDetail = 6
	p.NominalBytes = 4 << 20
	p.Seed = 77
	sc := scene.Generate(p)
	bp := core.DefaultBuildParams()
	bp.Grid = cells.NewGrid(sc.ViewRegion, 2, 2)
	bp.DirsPerViewpoint = 128
	bp.SamplesPerCell = 1
	return sc, bp
}

func FuzzUpdateDifferential(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(3))
	f.Add(int64(2), uint8(20), uint8(7))
	f.Add(int64(3), uint8(1), uint8(1))
	f.Add(int64(42), uint8(30), uint8(30))
	f.Add(int64(-9), uint8(12), uint8(0))

	f.Fuzz(func(t *testing.T, seed int64, nOps, batch uint8) {
		n := int(nOps)
		if n < 1 {
			n = 1
		}
		if n > 32 {
			n = 32 // keep each execution bounded
		}
		bs := int(batch)
		if bs < 1 {
			bs = n
		}
		sc, bp := fuzzBaseScene()
		ops := genUpdateOps(seed, sc, n)

		d := storage.NewDisk(0, storage.DefaultCostModel())
		tr, vis, err := core.Build(sc, d, bp)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(ops); i += bs {
			j := i + bs
			if j > len(ops) {
				j = len(ops)
			}
			tr, vis, _, _, err = core.ApplyOps(tr, vis, ops[i:j])
			if err != nil {
				t.Fatal(err)
			}
		}
		ref, refVis, refDisk, err := rebuildReference(sc, bp, ops)
		if err != nil {
			t.Fatal(err)
		}
		if tr.NumNodes() != ref.NumNodes() {
			t.Fatalf("node counts diverge: %d vs %d", tr.NumNodes(), ref.NumNodes())
		}
		if tr.SMeasured != ref.SMeasured || tr.RhoMeasured != ref.RhoMeasured {
			t.Fatalf("constants diverge: s %x vs %x, rho %x vs %x",
				math.Float64bits(tr.SMeasured), math.Float64bits(ref.SMeasured),
				math.Float64bits(tr.RhoMeasured), math.Float64bits(ref.RhoMeasured))
		}
		for c := range refVis.RawDoV {
			for id, v := range refVis.RawDoV[c] {
				if g := vis.RawDoV[c][id]; math.Float64bits(g) != math.Float64bits(v) {
					t.Fatalf("cell %d object %d: raw DoV %x vs %x", c, id, math.Float64bits(g), math.Float64bits(v))
				}
			}
		}
		iv, err := vstore.Build(d, vis, vstore.SchemeIndexedVertical, vstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		riv, err := vstore.Build(refDisk, refVis, vstore.SchemeIndexedVertical, vstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tr.SetVStore(iv)
		ref.SetVStore(riv)
		got, err := updRunWorkload(tr, false)
		if err != nil {
			t.Fatal(err)
		}
		want, err := updRunWorkload(ref, false)
		if err != nil {
			t.Fatal(err)
		}
		for k, w := range want {
			if got[k] != w {
				t.Fatalf("incremental diverges from rebuild at cell %d eta %g:\n%s\nvs\n%s",
					k.cell, k.eta, got[k], w)
			}
		}
	})
}
