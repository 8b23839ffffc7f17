package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	hdov "repro"
)

// spanKind names a span. A request (or a writer batch) is a root span;
// each public call that enters a layer is a child span named after that
// layer.
type spanKind uint8

const (
	spanRequest spanKind = iota
	spanBatch
	spanQuery
	spanFetch
	spanMany
	spanRepin
	spanUpdate
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spanRequest: "request",
	spanBatch:   "batch",
	spanQuery:   "core.query",
	spanFetch:   "core.fetch",
	spanMany:    "shard.querymany",
	spanRepin:   "hdov.newsession",
	spanUpdate:  "hdov.update",
}

// span is one timed interval. Times are offsets from the start of the
// timed phase. A root span's parent is -1 and its req is its own id.
type span struct {
	id, parent, req int64
	kind            spanKind
	start, end      time.Duration
}

// callAcc accumulates the child calls of one span kind.
type callAcc struct {
	wall  []time.Duration
	media time.Duration
}

// tracer records one client's spans, and the layer counters read at the
// same boundaries, in memory. It is used by one goroutine only.
type tracer struct {
	base   time.Time
	idBase int64
	spans  []span
	open   int // index of the open root span

	calls [numSpanKinds]callAcc
	// io sums the session's DiskStats deltas over every child call.
	io hdov.DiskStats
	// nodes, early and items total the answers' traversal work; shards
	// counts distinct shards per scatter-gather request.
	nodes, early, items, shards int64
}

// newTracer returns the tracer of client number client; base is the
// phase start all span times are measured from.
func newTracer(base time.Time, client int) *tracer {
	return &tracer{base: base, idBase: int64(client) << 32}
}

// begin opens a root span.
func (t *tracer) begin(kind spanKind, at time.Time) {
	id := t.idBase + int64(len(t.spans))
	t.open = len(t.spans)
	t.spans = append(t.spans, span{id: id, parent: -1, req: id, kind: kind, start: at.Sub(t.base)})
}

// end closes the open root span.
func (t *tracer) end(at time.Time) { t.spans[t.open].end = at.Sub(t.base) }

// child records a call inside the open root span, with the media time the
// session's DiskStats charged to it.
func (t *tracer) child(kind spanKind, start, end time.Time, media time.Duration) {
	root := t.spans[t.open]
	t.spans = append(t.spans, span{
		id: t.idBase + int64(len(t.spans)), parent: root.id, req: root.req, kind: kind,
		start: start.Sub(t.base), end: end.Sub(t.base),
	})
	a := &t.calls[kind]
	a.wall = append(a.wall, end.Sub(start))
	a.media += media
}

// addIO adds the counters a per-layer metric uses from after-before to
// dst.
func addIO(dst *hdov.DiskStats, after, before hdov.DiskStats) {
	dst.LightReads += after.LightReads - before.LightReads
	dst.HeavyReads += after.HeavyReads - before.HeavyReads
	dst.Seeks += after.Seeks - before.Seeks
	dst.CoalescedReads += after.CoalescedReads - before.CoalescedReads
}

// result records an answer's traversal work.
func (t *tracer) result(r *hdov.Result) {
	t.nodes += int64(r.NodesVisited)
	t.early += int64(r.EarlyStops)
	t.items += int64(len(r.Items))
}

// traceSet merges the tracers of one phase.
type traceSet struct {
	calls                       [numSpanKinds]callAcc
	io                          hdov.DiskStats
	nodes, early, items, shards int64
	// rootWall and childWall total the root spans and their children;
	// their ratio is the trace's coverage.
	rootWall, childWall time.Duration
	reqWall             []time.Duration
}

func mergeTraces(ts []*tracer) *traceSet {
	m := &traceSet{}
	for _, t := range ts {
		for k := range t.calls {
			m.calls[k].wall = append(m.calls[k].wall, t.calls[k].wall...)
			m.calls[k].media += t.calls[k].media
		}
		addIO(&m.io, t.io, hdov.DiskStats{})
		m.nodes += t.nodes
		m.early += t.early
		m.items += t.items
		m.shards += t.shards
		for _, s := range t.spans {
			d := s.end - s.start
			switch {
			case s.parent >= 0:
				m.childWall += d
			case s.kind == spanRequest:
				m.rootWall += d
				m.reqWall = append(m.reqWall, d)
			default:
				m.rootWall += d
			}
		}
	}
	return m
}

// meanSelfUS is the mean of wall time minus media time per call, in
// microseconds.
func (a *callAcc) meanSelfUS() float64 {
	var wall time.Duration
	for _, d := range a.wall {
		wall += d
	}
	return ratio(float64(wall-a.media)/float64(time.Microsecond), float64(len(a.wall)))
}

// meanMediaUS is the mean media time per call, in microseconds.
func (a *callAcc) meanMediaUS() float64 {
	return ratio(float64(a.media)/float64(time.Microsecond), float64(len(a.wall)))
}

// writeSpans writes every span as one tab-separated line, times in
// nanoseconds from the start of the timed phase.
func writeSpans(path string, ts []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for _, t := range ts {
		for _, s := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.req, spanNames[s.kind], int64(s.start), int64(s.end))
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
