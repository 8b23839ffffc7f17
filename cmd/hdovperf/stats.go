package main

import (
	"math"
	"sort"
	"time"
)

// tailPcts are the percentiles a tail latency may be reported at, highest
// first. A percentile is reported only when at least minBeyond samples lie
// beyond it, so a short run reports a lower percentile rather than its
// single slowest request.
var tailPcts = []float64{99, 95, 90, 75, 50}

const minBeyond = 10

// latency summarizes request latencies in microseconds.
type latency struct {
	// N is the number of attempted requests, Failed how many of them
	// failed. A failed request enters the sample at +Inf.
	N, Failed int
	P50       float64
	// Tail is the latency at TailPct, the highest of tailPcts with at
	// least minBeyond samples beyond it (50 when none has).
	Tail, TailPct float64
}

// summarize reports the median and tail of the ok latencies, with failed
// more requests counted at +Inf.
func summarize(ok []time.Duration, failed int) latency {
	us := make([]float64, 0, len(ok)+failed)
	for _, d := range ok {
		us = append(us, float64(d)/float64(time.Microsecond))
	}
	for i := 0; i < failed; i++ {
		us = append(us, math.Inf(1))
	}
	sort.Float64s(us)
	l := latency{N: len(us), Failed: failed, TailPct: 50}
	if l.N == 0 {
		return l
	}
	l.P50 = rank(us, 50)
	l.Tail = l.P50
	for _, p := range tailPcts {
		if l.N-rankIndex(l.N, p)-1 >= minBeyond {
			l.TailPct, l.Tail = p, rank(us, p)
			break
		}
	}
	return l
}

// windowLen is the length of the slices the timed phase is cut into. A
// timing metric is the median over the slices, so a burst of load from
// outside the benchmark that covers one slice does not move it.
const windowLen = 2 * time.Second

// record is one request of the timed phase; end is measured from the
// start of the phase.
type record struct {
	end, lat time.Duration
	failed   bool
}

// window summarizes one slice of the timed phase.
type window struct {
	lat latency
	// rps is completed requests per second of the slice.
	rps float64
}

// windows cuts the phase into whole windowLen slices by completion time
// and summarizes each. Requests after the last whole slice are left out;
// a phase shorter than two slices is a single slice.
func windows(recs []record, elapsed time.Duration) []window {
	k, span := int(elapsed/windowLen), windowLen
	if k < 2 {
		k, span = 1, elapsed
	}
	oks := make([][]time.Duration, k)
	failed := make([]int, k)
	for _, r := range recs {
		i := int(r.end / span)
		if k == 1 {
			i = 0
		} else if i >= k {
			continue
		}
		if r.failed {
			failed[i]++
		} else {
			oks[i] = append(oks[i], r.lat)
		}
	}
	ws := make([]window, k)
	for i := range ws {
		ws[i] = window{lat: summarize(oks[i], failed[i]), rps: float64(len(oks[i])) / span.Seconds()}
		if ws[i].lat.N == 0 {
			// Nothing completed in the slice: a stall longer than it.
			ws[i].lat.P50, ws[i].lat.Tail = math.Inf(1), math.Inf(1)
		}
	}
	return ws
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianOver returns the median over the windows of f.
func medianOver(ws []window, f func(window) float64) float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	return median(xs)
}

// rankIndex is the 0-based nearest-rank index of percentile p in n
// sorted samples.
func rankIndex(n int, p float64) int {
	return max(0, int(math.Ceil(p/100*float64(n)))-1)
}

// rank returns percentile p of the sorted samples by nearest rank.
func rank(sorted []float64, p float64) float64 {
	return sorted[rankIndex(len(sorted), p)]
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
