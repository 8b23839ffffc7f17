package walkthrough_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/render"
	"repro/internal/review"
	"repro/internal/testenv"
	"repro/internal/walkthrough"
)

func TestSessionsStayInViewRegion(t *testing.T) {
	env := testenv.Get(testenv.Small())
	for _, s := range walkthrough.Sessions(env.Scene, 200, 9) {
		if len(s.Frames) != 200 {
			t.Fatalf("%s: %d frames", s.Name, len(s.Frames))
		}
		inside := 0
		for _, p := range s.Frames {
			if env.Scene.ViewRegion.ContainsPoint(p.Eye) {
				inside++
			}
			if p.Look.Len() < 0.9 || p.Look.Len() > 1.1 {
				t.Fatalf("%s: non-unit look %v", s.Name, p.Look)
			}
		}
		// The whole path should stay in the walkable slab.
		if inside < len(s.Frames)*9/10 {
			t.Fatalf("%s: only %d/%d frames inside view region", s.Name, inside, len(s.Frames))
		}
	}
}

func TestSessionsAreDistinct(t *testing.T) {
	env := testenv.Get(testenv.Small())
	ss := walkthrough.Sessions(env.Scene, 100, 9)
	if ss[0].Name == ss[1].Name || ss[1].Name == ss[2].Name {
		t.Fatal("duplicate session names")
	}
	// Turning session sweeps gaze; normal session does not.
	maxTurn := func(s walkthrough.Session) float64 {
		worst := 0.0
		for i := 1; i < len(s.Frames); i++ {
			d := 1 - s.Frames[i].Look.Dot(s.Frames[i-1].Look)
			if d > worst {
				worst = d
			}
		}
		return worst
	}
	if maxTurn(ss[1]) <= maxTurn(ss[0]) {
		t.Fatal("turning session does not turn more than normal session")
	}
	// Back-forward session reverses direction.
	reversed := false
	for i := 1; i < len(ss[2].Frames); i++ {
		if ss[2].Frames[i].Look.Dot(ss[2].Frames[i-1].Look) < 0 {
			reversed = true
			break
		}
	}
	if !reversed {
		t.Fatal("back-forward session never reverses")
	}
}

func TestCacheBasics(t *testing.T) {
	c := walkthrough.NewCache(0)
	k1 := walkthrough.CacheKey{ObjectID: 1, NodeID: core.NilNode}
	k2 := walkthrough.CacheKey{ObjectID: 2, NodeID: core.NilNode}
	if c.Has(k1) {
		t.Fatal("empty cache has entry")
	}
	c.Add(k1, 1, 100, geom.V(0, 0, 0), geom.V(0, 0, 0))
	c.Add(k2, 0, 200, geom.V(10, 0, 0), geom.V(0, 0, 0))
	if !c.Has(k1) || !c.Has(k2) {
		t.Fatal("entries missing")
	}
	if c.Bytes() != 300 || c.Len() != 2 {
		t.Fatalf("bytes=%d len=%d", c.Bytes(), c.Len())
	}
	// Finer level replaces; coarser is ignored.
	c.Add(k1, 0, 150, geom.V(0, 0, 0), geom.V(0, 0, 0))
	if c.Bytes() != 350 || c.Len() != 2 {
		t.Fatalf("after finer re-add: bytes=%d len=%d", c.Bytes(), c.Len())
	}
	c.Add(k1, 3, 10, geom.V(0, 0, 0), geom.V(0, 0, 0))
	if c.Bytes() != 350 {
		t.Fatalf("coarser re-add changed bytes: %d", c.Bytes())
	}
	if c.PeakBytes() != 350 {
		t.Fatalf("peak=%d", c.PeakBytes())
	}
	c.Clear()
	if c.Bytes() != 0 || c.Len() != 0 || c.Has(k1) {
		t.Fatal("clear failed")
	}
	if c.PeakBytes() != 350 {
		t.Fatal("peak lost on clear")
	}
}

func TestCacheCovers(t *testing.T) {
	c := walkthrough.NewCache(0)
	k := walkthrough.CacheKey{ObjectID: 5, NodeID: core.NilNode}
	c.Add(k, 1, 100, geom.V(0, 0, 0), geom.V(0, 0, 0))
	if c.Covers(k, 0) {
		t.Fatal("coarser resident level covers finer request")
	}
	if !c.Covers(k, 1) || !c.Covers(k, 3) {
		t.Fatal("resident level should cover itself and coarser requests")
	}
	if c.Covers(walkthrough.CacheKey{ObjectID: 6, NodeID: core.NilNode}, 3) {
		t.Fatal("absent key covers")
	}
}

func TestCacheSemanticEviction(t *testing.T) {
	// Distance-based replacement: the farthest entry goes first.
	c := walkthrough.NewCache(250)
	eye := geom.V(0, 0, 0)
	near := walkthrough.CacheKey{ObjectID: 1, NodeID: core.NilNode}
	mid := walkthrough.CacheKey{ObjectID: 2, NodeID: core.NilNode}
	far := walkthrough.CacheKey{ObjectID: 3, NodeID: core.NilNode}
	c.Add(near, 0, 100, geom.V(1, 0, 0), eye)
	c.Add(far, 0, 100, geom.V(100, 0, 0), eye)
	c.Add(mid, 0, 100, geom.V(10, 0, 0), eye) // overflow: 300 > 250
	if c.Has(far) {
		t.Fatal("farthest entry survived eviction")
	}
	if !c.Has(near) || !c.Has(mid) {
		t.Fatal("near entries evicted")
	}
	if c.Bytes() > 250 {
		t.Fatalf("over budget: %d", c.Bytes())
	}
}

func TestVisualPlayback(t *testing.T) {
	env := testenv.Get(testenv.Medium())
	s := walkthrough.RecordNormal(env.Scene, 300, 3)
	p := &walkthrough.VisualPlayer{
		Tree:   env.Tree,
		Eta:    0.001,
		Delta:  true,
		Render: render.DefaultConfig(),
	}
	res, err := p.Play(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 300 {
		t.Fatalf("%d frames", len(res.Frames))
	}
	if res.Queries == 0 {
		t.Fatal("no queries ran — path never crossed a cell?")
	}
	if res.Queries >= len(res.Frames) {
		t.Fatal("query every frame — cell tracking broken")
	}
	if res.AvgFrameTime() <= 0 {
		t.Fatal("zero average frame time")
	}
	if res.PeakBytes == 0 {
		t.Fatal("no memory used")
	}
	// Frames with queries are slower (the spikes of Figure 10).
	var qSum, qN, nSum, nN float64
	for _, f := range res.Frames {
		if f.Queried {
			qSum += float64(f.Total)
			qN++
		} else {
			nSum += float64(f.Total)
			nN++
		}
	}
	if qN == 0 || nN == 0 {
		t.Skip("degenerate session")
	}
	if qSum/qN <= nSum/nN {
		t.Fatal("query frames not slower than idle frames")
	}
}

func TestVisualDeltaSearchSavesIO(t *testing.T) {
	env := testenv.Get(testenv.Medium())
	s := walkthrough.RecordBackForward(env.Scene, 300, 3)
	run := func(delta bool) int64 {
		p := &walkthrough.VisualPlayer{
			Tree:   env.Tree,
			Eta:    0.001,
			Delta:  delta,
			Render: render.DefaultConfig(),
		}
		res, err := p.Play(s)
		if err != nil {
			t.Fatal(err)
		}
		var heavy int64
		for _, f := range res.Frames {
			heavy += f.HeavyIO
		}
		return heavy
	}
	with := run(true)
	without := run(false)
	// Ablation D4: the delta search must cut heavy I/O on a
	// revisit-heavy session.
	if with >= without {
		t.Fatalf("delta search saved nothing: %d vs %d", with, without)
	}
}

func TestVisualEtaTradeoff(t *testing.T) {
	env := testenv.Get(testenv.Medium())
	s := walkthrough.RecordNormal(env.Scene, 300, 3)
	run := func(eta float64) *walkthrough.Result {
		p := &walkthrough.VisualPlayer{
			Tree: env.Tree, Eta: eta, Delta: true, Render: render.DefaultConfig(),
		}
		res, err := p.Play(s)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Figure 10(b)'s effect at this scene's DoV scale: frame time is
	// non-increasing in eta across a ladder, with a strict drop somewhere.
	// (The paper's exact 0.0003/0.001 pair assumes its gigabyte city's
	// much smaller per-object DoVs; the medium test city resolves the
	// same trade-off at coarser thresholds.)
	// Like the paper's Table 3, the curve may have small local bumps
	// (theirs rises at eta=0.0001), but the end-to-end trend must hold:
	// the largest threshold is clearly faster and lighter than eta=0.
	etas := []float64{0, 0.001, 0.01, 0.05}
	first := run(etas[0])
	var last *walkthrough.Result
	for _, eta := range etas {
		cur := run(eta)
		if cur.AvgFrameTime() > first.AvgFrameTime()*1.10 {
			t.Fatalf("avg frame time at eta=%v (%v ms) more than 10%% over eta=0 (%v ms)",
				eta, cur.AvgFrameTime(), first.AvgFrameTime())
		}
		last = cur
	}
	if last.AvgFrameTime() >= first.AvgFrameTime() {
		t.Fatalf("eta=%v avg %.3f ms not faster than eta=0 %.3f ms",
			etas[len(etas)-1], last.AvgFrameTime(), first.AvgFrameTime())
	}
	if last.PeakBytes >= first.PeakBytes {
		t.Fatalf("eta=%v memory %d not below eta=0 %d", etas[len(etas)-1], last.PeakBytes, first.PeakBytes)
	}
}

func TestReviewPlayback(t *testing.T) {
	env := testenv.Get(testenv.Medium())
	s := walkthrough.RecordNormal(env.Scene, 300, 3)
	rp := &walkthrough.ReviewPlayer{
		Sys:        review.New(env.Tree, review.DefaultConfig()),
		Complement: true,
		Render:     render.DefaultConfig(),
	}
	rres, err := rp.Play(s)
	if err != nil {
		t.Fatal(err)
	}
	vp := &walkthrough.VisualPlayer{
		Tree: env.Tree, Eta: 0.001, Delta: true, Render: render.DefaultConfig(),
	}
	vres, err := vp.Play(s)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: VISUAL is faster, smoother, and uses less
	// memory than REVIEW with comparable-fidelity boxes (Table 3).
	if vres.AvgFrameTime() >= rres.AvgFrameTime() {
		t.Fatalf("VISUAL avg %.2fms not faster than REVIEW %.2fms",
			vres.AvgFrameTime(), rres.AvgFrameTime())
	}
	if vres.VarFrameTime() >= rres.VarFrameTime() {
		t.Fatalf("VISUAL variance %.2f not smoother than REVIEW %.2f",
			vres.VarFrameTime(), rres.VarFrameTime())
	}
	if vres.PeakBytes >= rres.PeakBytes {
		t.Fatalf("VISUAL memory %d not below REVIEW %d", vres.PeakBytes, rres.PeakBytes)
	}
	if rres.AvgQueryTime() <= 0 || rres.AvgQueryIO() <= 0 {
		t.Fatal("REVIEW query metrics empty")
	}
	if vres.AvgQueryTime() >= rres.AvgQueryTime() {
		t.Fatalf("VISUAL query time %.2f not below REVIEW %.2f (Figure 12a)",
			vres.AvgQueryTime(), rres.AvgQueryTime())
	}
}

func TestResultMetrics(t *testing.T) {
	r := &walkthrough.Result{}
	if r.AvgFrameTime() != 0 || r.VarFrameTime() != 0 || r.AvgQueryTime() != 0 || r.AvgQueryIO() != 0 {
		t.Fatal("empty result nonzero metrics")
	}
	if r.PercentileFrameTime(95) != 0 || r.MaxFrameTime() != 0 {
		t.Fatal("empty result nonzero percentiles")
	}
}

func TestPercentiles(t *testing.T) {
	r := &walkthrough.Result{}
	for i := 1; i <= 100; i++ {
		r.Frames = append(r.Frames, walkthrough.FrameStat{Total: time.Duration(i) * time.Millisecond})
	}
	if got := r.PercentileFrameTime(50); got != 50 {
		t.Fatalf("p50 = %v", got)
	}
	if got := r.PercentileFrameTime(95); got != 95 {
		t.Fatalf("p95 = %v", got)
	}
	if got := r.PercentileFrameTime(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := r.MaxFrameTime(); got != 100 {
		t.Fatalf("max = %v", got)
	}
	// Percentiles are monotone in p.
	prev := 0.0
	for p := 0.0; p <= 100; p += 5 {
		v := r.PercentileFrameTime(p)
		if v < prev {
			t.Fatalf("percentile not monotone at p=%v", p)
		}
		prev = v
	}
}

func TestSessionEncodeDecode(t *testing.T) {
	env := testenv.Get(testenv.Small())
	s := walkthrough.RecordTurning(env.Scene, 50, 7)
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := walkthrough.ReadSession(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != s.Name || len(got.Frames) != len(s.Frames) {
		t.Fatal("session shape changed")
	}
	for i := range s.Frames {
		if got.Frames[i] != s.Frames[i] {
			t.Fatalf("frame %d changed", i)
		}
	}
	// A decoded session plays back identically. Simulated times depend on
	// the disk head position left behind by whichever test ran before, so
	// zero them and compare the full traces — the I/O counters pin the
	// actual read sequence.
	p := &walkthrough.VisualPlayer{Tree: env.Tree, Eta: 0.001, Delta: true, Render: render.DefaultConfig()}
	a, err := p.Play(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Play(got)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*walkthrough.Result{a, b} {
		for i := range r.Frames {
			r.Frames[i].QueryTime = 0
			r.Frames[i].Total = 0
		}
	}
	if a.Queries != b.Queries || !reflect.DeepEqual(a, b) {
		t.Fatal("replayed session diverged")
	}
}

func TestSessionValidate(t *testing.T) {
	if (walkthrough.Session{}).Validate() == nil {
		t.Fatal("empty session accepted")
	}
	if (walkthrough.Session{Name: "x"}).Validate() == nil {
		t.Fatal("frameless session accepted")
	}
	bad := walkthrough.Session{Name: "x", Frames: []walkthrough.Pose{{}}}
	if bad.Validate() == nil {
		t.Fatal("zero look accepted")
	}
	nan := walkthrough.Session{Name: "x", Frames: []walkthrough.Pose{{
		Eye:  geom.V(math.NaN(), 0, 0),
		Look: geom.V(1, 0, 0),
	}}}
	if nan.Validate() == nil {
		t.Fatal("NaN pose accepted")
	}
	if _, err := walkthrough.ReadSession(bytes.NewBufferString("{nope")); err == nil {
		t.Fatal("garbage JSON accepted")
	}
}
