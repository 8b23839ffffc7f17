package walkthrough_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/render"
	"repro/internal/testenv"
	"repro/internal/walkthrough"
)

// The byte-budget regression the eviction fix is for: a single payload
// larger than the whole budget must not take up residence, and residency
// must never exceed the budget regardless of entry sizes.
func TestCacheByteBudgetRegression(t *testing.T) {
	c := walkthrough.NewCache(1000)
	eye := geom.V(0, 0, 0)
	small := walkthrough.CacheKey{ObjectID: 1, NodeID: core.NilNode}
	c.Add(small, 0, 100, geom.V(1, 0, 0), eye)

	// A giant internal-LoD mesh blows the budget on its own. Before the
	// byte-size eviction fix the evict loop stopped at one entry, leaving
	// 5000 bytes resident against a 1000-byte budget forever.
	giant := walkthrough.CacheKey{ObjectID: -1, NodeID: 7}
	c.Add(giant, 0, 5000, geom.V(2, 0, 0), eye)
	if c.Bytes() > 1000 {
		t.Fatalf("residency %d exceeds budget 1000 after oversized insert", c.Bytes())
	}
	if c.Has(giant) {
		t.Fatal("oversized entry stayed resident")
	}

	// Many mid-size entries: residency must track the budget, not the
	// entry count.
	for i := int64(10); i < 30; i++ {
		c.Add(walkthrough.CacheKey{ObjectID: i, NodeID: core.NilNode}, 0, 400,
			geom.V(float64(i), 0, 0), eye)
		if c.Bytes() > 1000 {
			t.Fatalf("residency %d exceeds budget after insert %d", c.Bytes(), i)
		}
	}
	if c.Len() == 0 {
		t.Fatal("eviction emptied the cache entirely; nearest entries should fit")
	}
}

// Coherent playback must trace identically to full-traversal playback —
// same queries, same polygons, same fetches — while reading less and
// actually running incrementally.
func TestVisualCoherentMatchesFull(t *testing.T) {
	env := testenv.Get(testenv.Medium())
	s := walkthrough.RecordNormal(env.Scene, 300, 3)
	run := func(coherent bool) (*walkthrough.Result, *core.Tree) {
		sess := env.Tree.Session()
		p := &walkthrough.VisualPlayer{
			Tree:     sess,
			Eta:      0.001,
			Delta:    true,
			Coherent: coherent,
			Render:   render.DefaultConfig(),
		}
		res, err := p.Play(s)
		if err != nil {
			t.Fatal(err)
		}
		return res, sess
	}
	full, _ := run(false)
	coh, sess := run(true)

	if full.Queries != coh.Queries {
		t.Fatalf("query counts differ: full %d, coherent %d", full.Queries, coh.Queries)
	}
	var fullLight, cohLight int64
	for i := range full.Frames {
		ff, cf := full.Frames[i], coh.Frames[i]
		if ff.Queried != cf.Queried || ff.Polygons != cf.Polygons || ff.Fetched != cf.Fetched {
			t.Fatalf("frame %d diverged: full {q:%v poly:%g fetch:%d} coherent {q:%v poly:%g fetch:%d}",
				i, ff.Queried, ff.Polygons, ff.Fetched, cf.Queried, cf.Polygons, cf.Fetched)
		}
		fullLight += ff.LightIO
		cohLight += cf.LightIO
	}
	cs := sess.CoherenceStats()
	if cs.Full != 0 || cs.Incremental == 0 {
		t.Fatalf("coherent playback did not run incrementally: %+v", cs)
	}
	if cs.NodesReused == 0 {
		t.Fatal("no node records reused across the walk")
	}
	if cohLight >= fullLight {
		t.Fatalf("coherent walk read no less: %d vs %d light I/Os", cohLight, fullLight)
	}
}
