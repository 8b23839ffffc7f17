package main

import (
	"math"
	"testing"
	"time"
)

// micros returns n latencies of 1, 2, ..., n microseconds.
func micros(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(n-i) * time.Microsecond
	}
	return out
}

func TestSummarizeReportsSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n, failed      int
		pct, tail, p50 float64
	}{
		{n: 1000, pct: 99, tail: 990, p50: 500},
		{n: 999, pct: 95, tail: 950, p50: 500},
		{n: 100, pct: 90, tail: 90, p50: 50},
		{n: 30, pct: 50, tail: 15, p50: 15},
		// Too few samples for any percentile to have ten beyond it.
		{n: 12, pct: 50, tail: 6, p50: 6},
		// Failed requests sit at +Inf, beyond every successful one.
		{n: 990, failed: 10, pct: 99, tail: 990, p50: 500},
		{n: 989, failed: 11, pct: 99, tail: math.Inf(1), p50: 500},
	} {
		l := summarize(micros(tc.n), tc.failed)
		if l.N != tc.n+tc.failed || l.Failed != tc.failed {
			t.Errorf("n=%d failed=%d: got N=%d Failed=%d", tc.n, tc.failed, l.N, l.Failed)
		}
		if l.TailPct != tc.pct || l.Tail != tc.tail || l.P50 != tc.p50 {
			t.Errorf("n=%d failed=%d: got p50 %g, tail p%g = %g; want p50 %g, tail p%g = %g",
				tc.n, tc.failed, l.P50, l.TailPct, l.Tail, tc.p50, tc.pct, tc.tail)
		}
	}
}

func TestSummarizeAllFailed(t *testing.T) {
	if l := summarize(nil, 3); !math.IsInf(l.P50, 1) || l.N != 3 || l.Failed != 3 {
		t.Errorf("all-failed run: got %+v, want N=3, Failed=3 and p50 +Inf", l)
	}
}

func TestWindows(t *testing.T) {
	s := time.Second
	recs := []record{
		{end: s / 2, lat: 10 * time.Microsecond},
		{end: s, lat: 30 * time.Microsecond},
		{end: 3 * s / 2, failed: true},
		{end: 5 * s / 2, lat: 20 * time.Microsecond},
		{end: 3 * s, lat: 40 * time.Microsecond},
		// After the last whole window: left out.
		{end: 9 * s / 2, lat: time.Second},
	}
	ws := windows(recs, 5*s)
	if len(ws) != 2 {
		t.Fatalf("%d windows, want 2", len(ws))
	}
	if l := ws[0].lat; l.N != 3 || l.Failed != 1 || l.P50 != 30 {
		t.Errorf("window 0: %+v, want n=3, one failure, p50 30 us", l)
	}
	if ws[0].rps != 1 || ws[1].rps != 1 {
		t.Errorf("rps %g and %g, want 1 completed request per second each", ws[0].rps, ws[1].rps)
	}
	if l := ws[1].lat; l.N != 2 || l.Failed != 0 || l.P50 != 20 {
		t.Errorf("window 1: %+v, want n=2, no failure, p50 20 us", l)
	}
	if got := medianOver(ws, func(w window) float64 { return w.lat.P50 }); got != 25 {
		t.Errorf("median p50 over windows = %g, want 25", got)
	}

	// A phase shorter than two windows is one window over all of it.
	short := windows(recs[:2], 3*s/2)
	if len(short) != 1 || short[0].lat.N != 2 || short[0].rps != 2/1.5 {
		t.Errorf("short phase: %+v, want one window of 2 requests at %g rps", short, 2/1.5)
	}
	// A window in which nothing completed reads as a stall.
	if ws := windows(recs[:1], 4*s); !math.IsInf(ws[1].lat.P50, 1) {
		t.Errorf("empty window p50 = %g, want +Inf", ws[1].lat.P50)
	}
}
