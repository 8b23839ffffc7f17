//go:build !race

package storage

import "testing"

// TestPoolHitReadBytesAllocatesNothing: a pool-resident single-page
// extent is served as the frame itself, so the warm read path allocates
// nothing. The hotalloc lint cannot see a single make per call; this can.
// (Race builds are excluded: instrumentation changes what allocates.)
func TestPoolHitReadBytesAllocatesNothing(t *testing.T) {
	d := NewDisk(0, DefaultCostModel())
	start := d.AllocPages(4)
	if err := d.WriteBytes(start, []byte("resident node record")); err != nil {
		t.Fatal(err)
	}
	d.SetCacheSize(16)
	c := d.NewClient()
	if _, err := c.ReadBytes(start, 20, ClassLight); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		b, err := c.ReadBytes(start, 20, ClassLight)
		if err != nil || len(b) != 20 || cap(b) != 20 {
			t.Fatalf("read %d bytes (cap %d): %v", len(b), cap(b), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("pool-hit ReadBytes allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkReadBytes measures a pool-hit ReadBytes through a session
// client: one page-sized node record served from a resident frame, the
// read every warm node visit pays (ReportAllocs is on).
func BenchmarkReadBytes(b *testing.B) {
	d := NewDisk(0, DefaultCostModel())
	start := d.AllocPages(4)
	rec := make([]byte, d.PageSize())
	if err := d.WriteBytes(start, rec); err != nil {
		b.Fatal(err)
	}
	d.SetCacheSize(16)
	c := d.NewClient()
	if _, err := c.ReadBytes(start, len(rec), ClassLight); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadBytes(start, len(rec), ClassLight); err != nil {
			b.Fatal(err)
		}
	}
}
