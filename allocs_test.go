//go:build !race

package hdov

import (
	"runtime"
	"testing"
)

// TestWarmCoherentQueryAllocations holds the warm read path's allocation
// line: on a small pooled codec DB with every cell warmed, a pair of
// coherent queries that moves the retained cut between two neighboring
// cells measured 15 allocations and 2.4 KiB. What is left is per query
// (the result, its items, the public wrapper) and per cut expansion,
// none per visited node: records are read in place and V-data decodes
// into session buffers. Decoding each visited record and V-page into
// fresh memory, with a new map per cell flip, measured 48 allocations
// and 6.9 KiB per pair; copying each pool page out again adds about 70
// allocations and 63 KiB. The bounds leave headroom over the
// measurement and none for either. (Race builds are excluded:
// instrumentation changes what allocates.)
func TestWarmCoherentQueryAllocations(t *testing.T) {
	const maxAllocs, maxBytes = 18, 3 << 10
	cfg := testConfig()
	cfg.Codec = true
	db, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetCacheSize(1 << 14)
	s := db.NewSession()
	for c := 0; c < db.NumCells(); c++ {
		if _, err := s.QueryCell(c, 0.001); err != nil {
			t.Fatal(err)
		}
	}
	a := db.CellOf(centerPoint(db))
	pair := func() {
		for _, c := range []int{a, a + 1} {
			if _, err := s.QueryCellCoherent(c, 0.001); err != nil {
				t.Fatal(err)
			}
		}
	}
	pair()
	if allocs := testing.AllocsPerRun(100, pair); allocs > maxAllocs {
		t.Fatalf("warm coherent query pair allocates %v times, want <= %d", allocs, maxAllocs)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		pair()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > maxBytes {
		t.Fatalf("warm coherent query pair allocates %d bytes, want <= %d", b, maxBytes)
	}
}
