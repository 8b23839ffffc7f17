//go:build !race

package storage_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/filestore"
)

// TestPoolHitReadBytesAllocatesNothing: a pool-resident single-page
// extent is served as the frame itself, so the warm read path allocates
// nothing. The hotalloc lint cannot see a single make per call; this can.
// (Race builds are excluded: instrumentation changes what allocates.)
func TestPoolHitReadBytesAllocatesNothing(t *testing.T) {
	d := storage.NewDisk(0, storage.DefaultCostModel())
	start := d.AllocPages(4)
	if err := d.WriteBytes(start, []byte("resident node record")); err != nil {
		t.Fatal(err)
	}
	d.SetCacheSize(16)
	c := d.NewClient()
	if _, err := c.ReadBytes(start, 20, storage.ClassLight, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		b, err := c.ReadBytes(start, 20, storage.ClassLight, nil)
		if err != nil || len(b) != 20 || cap(b) != 20 {
			t.Fatalf("read %d bytes (cap %d): %v", len(b), cap(b), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("pool-hit ReadBytes allocates %v times per call, want 0", allocs)
	}
}

// mediaDisks returns a disk on the in-memory media and one on each mode
// of the file media (mmap and pread), each with pages allocated.
func mediaDisks(t *testing.T, pages int) map[string]*storage.Disk {
	t.Helper()
	out := map[string]*storage.Disk{"mem": storage.NewDisk(0, storage.DefaultCostModel())}
	for name, opts := range map[string]filestore.Options{"file": {}, "file-pread": {NoMmap: true}} {
		fs, err := filestore.Create(filepath.Join(t.TempDir(), name+".dat"), storage.DefaultPageSize, opts)
		if err != nil {
			t.Fatal(err)
		}
		d := storage.NewDiskOn(fs, storage.DefaultCostModel())
		t.Cleanup(func() { _ = d.Close() })
		out[name] = d
	}
	for _, d := range out {
		d.AllocPages(pages)
	}
	return out
}

// TestUncachedReadBytesAllocatesNothing: with no buffer pool, a read
// into a caller buffer that holds its length lands in that buffer and
// allocates nothing, on every media — a record shorter than a page, a
// whole page and most of a three-page extent alike — and the media copy
// only the bytes asked for, leaving the buffer's tail as it was.
func TestUncachedReadBytesAllocatesNothing(t *testing.T) {
	for name, d := range mediaDisks(t, 8) {
		psz := d.PageSize()
		data := make([]byte, 3*psz)
		for i := range data {
			data[i] = byte(i * 13)
		}
		if err := d.WriteBytes(2, data); err != nil {
			t.Fatal(err)
		}
		c := d.NewClient()
		for _, length := range []int{100, psz, 3*psz - 7} {
			buf := bytes.Repeat([]byte{0xEE}, 3*psz)
			allocs := testing.AllocsPerRun(50, func() {
				b, err := c.ReadBytes(2, length, storage.ClassLight, buf[:0])
				if err != nil {
					t.Fatal(err)
				}
				if &b[0] != &buf[0] || !bytes.Equal(b, data[:length]) {
					t.Fatalf("%s: %d-byte read did not land in the caller's buffer", name, length)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: uncached %d-byte ReadBytes into a caller buffer allocates %v times per call, want 0",
					name, length, allocs)
			}
			if !bytes.Equal(buf[length:], bytes.Repeat([]byte{0xEE}, 3*psz-length)) {
				t.Errorf("%s: a %d-byte read wrote past its length", name, length)
			}
		}
	}
}

// TestReadBytesCallerBuffer pins what a read does with its caller's
// buffer: a pool hit serves the resident frame and leaves the buffer as
// it was; a pooled multi-page extent is assembled into it; a buffer too
// small for the read's length is never written, the extent landing in a
// fresh buffer instead.
func TestReadBytesCallerBuffer(t *testing.T) {
	d := storage.NewDisk(0, storage.DefaultCostModel())
	psz := d.PageSize()
	start := d.AllocPages(4)
	data := make([]byte, 3*psz)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	if err := d.WriteBytes(start, data); err != nil {
		t.Fatal(err)
	}
	c := d.NewClient()
	sentinel := func(n int) []byte { return bytes.Repeat([]byte{0xEE}, n) }

	// A too-small buffer, pooled or not: not written.
	for _, pooled := range []bool{false, true} {
		if pooled {
			d.SetCacheSize(16)
		}
		small := sentinel(2 * psz)
		got, err := c.ReadBytes(start, 2*psz+1, storage.ClassLight, small[:0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[:2*psz+1]) {
			t.Fatalf("pooled %v: wrong bytes through a too-small buffer", pooled)
		}
		if !bytes.Equal(small, sentinel(2*psz)) {
			t.Fatalf("pooled %v: a too-small buffer was written", pooled)
		}
	}

	// A pool hit: the resident frame, the buffer untouched.
	buf := sentinel(psz)
	first, err := c.ReadBytes(start, psz, storage.ClassLight, buf)
	if err != nil {
		t.Fatal(err)
	}
	hits := d.PoolStats().LightHits
	got, err := c.ReadBytes(start, psz, storage.ClassLight, buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.PoolStats().LightHits != hits+1 {
		t.Fatal("the second read was not a pool hit")
	}
	if &got[0] != &first[0] || &got[0] == &buf[0] {
		t.Fatal("a pool hit did not serve the resident frame")
	}
	if !bytes.Equal(got, data[:psz]) {
		t.Fatal("a pool hit served the wrong bytes")
	}
	if !bytes.Equal(buf, sentinel(psz)) {
		t.Fatal("a pool hit wrote the caller's buffer")
	}

	// A pooled multi-page extent: assembled into the buffer.
	big := make([]byte, 3*psz)
	got, err = c.ReadBytes(start, 3*psz, storage.ClassLight, big)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &big[0] || !bytes.Equal(got, data) {
		t.Fatal("a pooled multi-page extent was not assembled into the caller's buffer")
	}
}

// BenchmarkReadBytes measures a pool-hit ReadBytes through a session
// client: one page-sized node record served from a resident frame, the
// read every warm node visit pays (ReportAllocs is on).
func BenchmarkReadBytes(b *testing.B) {
	d := storage.NewDisk(0, storage.DefaultCostModel())
	start := d.AllocPages(4)
	rec := make([]byte, d.PageSize())
	if err := d.WriteBytes(start, rec); err != nil {
		b.Fatal(err)
	}
	d.SetCacheSize(16)
	c := d.NewClient()
	if _, err := c.ReadBytes(start, len(rec), storage.ClassLight, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadBytes(start, len(rec), storage.ClassLight, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadBytesUncached measures an uncached ReadBytes through a
// session client on the file media: one page-sized node record read into
// the caller's buffer, the read every node visit pays with no pool
// (ReportAllocs is on).
func BenchmarkReadBytesUncached(b *testing.B) {
	fs, err := filestore.Create(filepath.Join(b.TempDir(), "pages.dat"), storage.DefaultPageSize, filestore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	d := storage.NewDiskOn(fs, storage.DefaultCostModel())
	defer d.Close()
	start := d.AllocPages(4)
	rec := make([]byte, d.PageSize())
	if err := d.WriteBytes(start, rec); err != nil {
		b.Fatal(err)
	}
	c := d.NewClient()
	buf := make([]byte, len(rec))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadBytes(start, len(rec), storage.ClassLight, buf); err != nil {
			b.Fatal(err)
		}
	}
}
