package main

import (
	"fmt"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"
	"time"

	hdov "repro"
)

const (
	// eta is the DoV threshold every request uses.
	eta = 0.001
	// blockSide is the side of a sharded-batch request's cell block.
	blockSide = 4
	// batchEvery spaces the writer's batches: batch i starts i×batchEvery
	// into the timed phase, so each window of the reader holds one batch
	// however fast Update runs.
	batchEvery = windowLen
	// moveStep is the x and y displacement of one update-mix move, in
	// metres.
	moveStep = 2.0
)

// workload is one closed-loop traffic mix.
type workload struct {
	name string
	// clients is the number of closed-loop reader goroutines, each with
	// its own Session; writer adds one goroutine applying Update batches.
	clients int
	writer  bool
	// codec selects the compressed V-page layout for the build.
	codec bool
	// setup runs after Build and is timed with it in setup_s.
	setup func(*hdov.DB) error
	// request issues one request and returns its answers, in a buffer the
	// next request may reuse.
	request func(*client) ([]*hdov.Result, error)
}

var workloads = []workload{
	// Fig. 7/8's workload on the paper's uncached prototype: every light
	// read and payload extent goes to the media.
	{name: "cold-random", clients: 2, request: coldRandom},
	// A walkthrough client whose payloads are resident: the codec light
	// working set fits the pool, so time goes to traversal, the retained
	// cut, V-page decode and pool hits. The work is all CPU, so a second
	// client on a two-core host left the runtime no core of its own and
	// spread the latency from run to run by twice as much.
	{name: "warm-walk", clients: 1, codec: true, request: warmWalk,
		setup: func(db *hdov.DB) error { db.SetCacheSize(8192); return nil }},
	// Scatter-gather and merge in the shard router, with per-shard pools
	// smaller than the raw light working set, so they hit and evict.
	{name: "sharded-batch", clients: 1, request: shardedBatch,
		setup: func(db *hdov.DB) error {
			return db.EnableSharding(hdov.ShardConfig{Shards: 4, CachePagesPerShard: 128})
		}},
	// Writes beside reads: every batch re-lays all three V-data schemes
	// while a reader keeps querying and re-pins at each new epoch.
	{name: "update-mix", clients: 1, writer: true, request: updateRead},
}

// movers are the objects the update-mix writer moves, one per batch, on
// the fixed dataset. A ±2 m move of any of them, in any direction,
// re-casts 13 to 19 of the 576 cells where the median object re-casts
// about 130, so a batch is mostly the single-threaded re-lay of the V-data
// schemes. The re-cast runs on every core, and the longer it lasts the
// more the reader's tail follows the host's spare capacity: beside a
// one-core CPU hog, req_p99_us rose by 97% and throughput_rps fell by 29%
// with five objects spread evenly over the IDs, and by 56% and 17% with
// these.
//
// Five batches also bound the page file, which never shrinks: each batch
// appends about 36 MB of re-laid pages, and about ten grow the file from
// 1 GiB to 2 GiB. Where the disk or the file size limit has no room for
// that, Update fails.
var movers = []int64{56, 200, 392, 680, 728}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// phase is one closed-loop measurement interval. Clients run until stop
// is set; only a recording phase keeps latencies and samples.
type phase struct {
	start  time.Time
	stop   atomic.Bool
	record bool
}

// client is one closed-loop reader.
type client struct {
	w  *workload
	db *hdov.DB
	s  *hdov.Session
	// epoch is the database epoch s pinned.
	epoch int
	g     *gen
	// cell is a walker's position; cells and out are per-request buffers.
	cell  int
	cells []int
	out   []*hdov.Result
	// shardLo holds each shard's first cell on a sharded database.
	shardLo []int

	tr *tracer // nil when untraced
	// stats is statsOf's DiskStats after the client's last traced call;
	// only this client charges its session, so it is also the next
	// call's starting point.
	stats   hdov.DiskStats
	statsOf *hdov.Session

	recs     []record
	answers  int
	samples  []sample
	firstErr error
}

func newClient(w *workload, db *hdov.DB, g *gen) *client {
	c := &client{w: w, db: db, g: g}
	c.repin()
	c.cell = g.cell()
	for _, st := range db.ShardDiskStats() {
		c.shardLo = append(c.shardLo, st.Lo)
	}
	return c
}

// repin replaces the client's session with one on the current epoch and
// records which epoch that is: an epoch read before and after NewSession
// that agrees brackets the pinned tree.
func (c *client) repin() {
	for {
		e := c.db.Epoch()
		s := c.db.NewSession()
		if c.db.Epoch() == e {
			c.s, c.epoch = s, e
			return
		}
	}
}

// reset clears the client's phase outputs.
func (c *client) reset() {
	c.recs, c.answers, c.samples, c.firstErr = c.recs[:0], 0, nil, nil
}

// loop issues requests back to back until the phase stops.
func (c *client) loop(ph *phase) {
	for !ph.stop.Load() {
		start := time.Now()
		if c.tr != nil {
			c.tr.begin(spanRequest, start)
		}
		res, err := c.w.request(c)
		end := time.Now()
		if c.tr != nil {
			c.tr.end(end)
		}
		if !ph.record {
			continue
		}
		c.recs = append(c.recs, record{end: end.Sub(ph.start), lat: end.Sub(start), failed: err != nil})
		if err != nil {
			if c.firstErr == nil {
				c.firstErr = err
			}
			continue
		}
		for _, r := range res {
			c.answer(r)
		}
	}
}

// answer counts one answer and digests every sampleEvery-th.
func (c *client) answer(r *hdov.Result) {
	c.answers++
	if c.answers%sampleEvery == 0 {
		c.samples = append(c.samples, sample{epoch: c.epoch, cell: r.Cell, digest: answerDigest(r)})
	}
	if c.tr != nil {
		c.tr.result(r)
	}
}

// call runs fn, one public call into a layer. When tracing it records fn
// as a child span of the open request, with the session's I/O and media
// time over the call.
func (c *client) call(kind spanKind, fn func() error) error {
	if c.tr == nil {
		return fn()
	}
	s := c.s
	if c.statsOf != s {
		c.stats, c.statsOf = s.Stats(), s
	}
	before := c.stats
	start := time.Now()
	err := fn()
	end := time.Now()
	c.stats = s.Stats()
	c.tr.child(kind, start, end, c.stats.MeasuredTime-before.MeasuredTime)
	addIO(&c.tr.io, c.stats, before)
	return err
}

func (c *client) one(r *hdov.Result) []*hdov.Result {
	c.out = append(c.out[:0], r)
	return c.out
}

// coldRandom queries a uniformly random cell and fetches the payloads.
func coldRandom(c *client) ([]*hdov.Result, error) {
	cell := c.g.cell()
	var r *hdov.Result
	err := c.call(spanQuery, func() (err error) {
		r, err = c.s.QueryCell(cell, eta)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := c.call(spanFetch, func() error { return c.s.Fetch(r) }); err != nil {
		return nil, err
	}
	return c.one(r), nil
}

// warmWalk takes one neighbour step and queries through the retained cut.
func warmWalk(c *client) ([]*hdov.Result, error) {
	c.cell = c.g.step(c.cell)
	var r *hdov.Result
	err := c.call(spanQuery, func() (err error) {
		r, err = c.s.QueryCellCoherent(c.cell, eta)
		return err
	})
	if err != nil {
		return nil, err
	}
	return c.one(r), nil
}

// shardedBatch scatter-gathers a square block of cells.
func shardedBatch(c *client) ([]*hdov.Result, error) {
	c.cells = c.g.block(c.cells, blockSide)
	var rs []*hdov.Result
	err := c.call(spanMany, func() (err error) {
		rs, err = c.s.QueryMany(c.cells, eta)
		return err
	})
	if c.tr != nil {
		c.tr.shards += int64(c.distinctShards(c.cells))
	}
	return rs, err
}

// distinctShards counts the shards owning cells.
func (c *client) distinctShards(cells []int) int {
	var seen uint64
	for _, cell := range cells {
		i := len(c.shardLo) - 1
		for i > 0 && cell < c.shardLo[i] {
			i--
		}
		seen |= 1 << uint(i)
	}
	return bits.OnesCount64(seen)
}

// updateRead is a cold-random request that first re-pins the session
// when the writer has published a new epoch.
func updateRead(c *client) ([]*hdov.Result, error) {
	if c.db.Epoch() != c.epoch {
		_ = c.call(spanRepin, func() error { c.repin(); return nil })
	}
	return coldRandom(c)
}

// writer applies single-move Update batches on a fixed schedule.
type writer struct {
	db  *hdov.DB
	ops []move
	tr  *tracer // nil when untraced

	lat     []time.Duration
	stats   []*hdov.UpdateStats
	applied []move // the batches that committed, in epoch order
	failed  int
}

// run applies batch i at begin + i×batchEvery, or as soon as batch i-1
// ends if that is later, until the ops run out or the next batch would
// start at or after deadline. The batch in flight at the deadline
// completes.
func (w *writer) run(begin, deadline time.Time) {
	for i, m := range w.ops {
		at := begin.Add(time.Duration(i) * batchEvery)
		if !at.Before(deadline) {
			return
		}
		time.Sleep(time.Until(at))
		start := time.Now()
		if !start.Before(deadline) {
			return
		}
		if w.tr != nil {
			w.tr.begin(spanBatch, start)
		}
		st, err := w.db.Update(func(u *hdov.Updater) { u.Move(m.id, m.dx, m.dy, 0) })
		end := time.Now()
		if w.tr != nil {
			w.tr.child(spanUpdate, start, end, 0)
			w.tr.end(end)
		}
		if err != nil {
			w.failed++
			fmt.Fprintf(os.Stderr, "hdovperf: update batch: %v\n", err)
			continue
		}
		w.lat = append(w.lat, end.Sub(start))
		w.stats = append(w.stats, st)
		w.applied = append(w.applied, m)
	}
}

// runPhase runs the clients (and the writer, if any) for d, or until the
// batch the writer has in flight at d ends, and returns the elapsed wall
// time once every client has stopped.
func runPhase(cs []*client, wr *writer, d time.Duration, record bool) time.Duration {
	ph := &phase{start: time.Now(), record: record}
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.loop(ph)
		}(c)
	}
	if wr != nil {
		wr.run(ph.start, ph.start.Add(d))
	}
	time.Sleep(time.Until(ph.start.Add(d)))
	ph.stop.Store(true)
	wg.Wait()
	return time.Since(ph.start)
}
