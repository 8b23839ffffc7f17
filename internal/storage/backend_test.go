package storage_test

// Backend differential coverage: the same Disk workload over the
// simulated in-memory media and the real file media must be
// byte-identical — page reads, serialized page runs, views —
// with the only divergence being MeasuredTime (zero on simulated media,
// positive on real I/O).

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/filestore"
)

// diskPair builds an in-memory disk and a file-backed disk with the same
// geometry.
func diskPair(t *testing.T, pageSize int) (*storage.Disk, *storage.Disk) {
	t.Helper()
	mem := storage.NewDisk(pageSize, storage.DefaultCostModel())
	fs, err := filestore.Create(filepath.Join(t.TempDir(), "pages.dat"), pageSize, filestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fd := storage.NewDiskOn(fs, storage.DefaultCostModel())
	t.Cleanup(func() { _ = fd.Close() })
	return mem, fd
}

// runOf serializes d's pages from watermark from.
func runOf(t *testing.T, d *storage.Disk, from storage.PageID) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := d.WriteRunTo(&buf, from); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openRun rebuilds a disk from one serialized run 0 on media built for
// its page size.
func openRun(t *testing.T, raw []byte, media func(pageSize int) (storage.Backend, error)) *storage.Disk {
	t.Helper()
	r, err := storage.ParseRun(raw)
	if err != nil {
		t.Fatal(err)
	}
	b, err := media(r.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	d := storage.NewDiskOn(b, storage.DefaultCostModel())
	if err := d.ApplyRun(r); err != nil {
		t.Fatal(err)
	}
	return d
}

// fill writes the same page workload to both disks.
func fill(t *testing.T, disks ...*storage.Disk) {
	t.Helper()
	for _, d := range disks {
		base := d.AllocPages(64)
		for i := 0; i < 64; i += 2 {
			buf := bytes.Repeat([]byte{byte(i + 1)}, d.PageSize())
			if err := d.WritePage(base+storage.PageID(i), buf); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestBackendsReadIdentical(t *testing.T) {
	mem, fd := diskPair(t, 128)
	fill(t, mem, fd)
	for i := storage.PageID(0); i < 64; i++ {
		a, err := mem.ReadBytes(i, mem.PageSize(), storage.ClassLight, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fd.ReadBytes(i, fd.PageSize(), storage.ClassLight, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("page %d differs across backends", i)
		}
	}
	a, err := mem.ReadBytes(3, 20*128, storage.ClassLight, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fd.ReadBytes(3, 20*128, storage.ClassLight, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("extent read differs across backends")
	}
	// Simulated accounting is identical; only MeasuredTime diverges.
	ms, fsx := mem.Stats(), fd.Stats()
	if ms.MeasuredTime != 0 {
		t.Fatalf("simulated backend charged MeasuredTime %v", ms.MeasuredTime)
	}
	if fsx.MeasuredTime <= 0 {
		t.Fatal("file backend charged no MeasuredTime")
	}
	ms.MeasuredTime, fsx.MeasuredTime = 0, 0
	if ms != fsx {
		t.Fatalf("simulated accounting diverged:\nmem  %+v\nfile %+v", ms, fsx)
	}
	if mem.Timed() || !fd.Timed() {
		t.Fatal("Timed misreported")
	}
}

func TestBackendsImageIdentical(t *testing.T) {
	mem, fd := diskPair(t, 128)
	fill(t, mem, fd)
	// Run 0 (the whole disk) and an epoch run from watermark 32.
	for _, from := range []storage.PageID{0, 32} {
		if !bytes.Equal(runOf(t, mem, from), runOf(t, fd, from)) {
			t.Fatalf("serialized runs from %d differ across backends", from)
		}
	}
}

func TestImageRoundTripIntoFileBackend(t *testing.T) {
	mem, _ := diskPair(t, 128)
	fill(t, mem)
	img := runOf(t, mem, 0)
	dir := t.TempDir()
	fd := openRun(t, img, func(pageSize int) (storage.Backend, error) {
		return filestore.Create(filepath.Join(dir, "pages.dat"), pageSize, filestore.Options{})
	})
	defer fd.Close()
	if fd.NumPages() != mem.NumPages() {
		t.Fatalf("allocation %d, want %d", fd.NumPages(), mem.NumPages())
	}
	if !bytes.Equal(img, runOf(t, fd, 0)) {
		t.Fatal("image round trip through file backend not byte-identical")
	}
}

// TestViewIsolatesDynamics: a view reads its source's pages and copies
// its corruption and quarantine marks at View time, but its stats, buffer
// pool and fault marks are its own from then on, on either media. It
// never writes the shared media, and closing it leaves the source open.
func TestViewIsolatesDynamics(t *testing.T) {
	mem, fd := diskPair(t, 128)
	fill(t, mem, fd)
	for _, d := range []*storage.Disk{mem, fd} {
		d.CorruptPage(2)
		d.Quarantine(4)
		d.SetCacheSize(8)
		if _, err := d.ReadBytes(0, d.PageSize(), storage.ClassLight, nil); err != nil {
			t.Fatal(err)
		}
		v := d.View()
		if v.PageSize() != d.PageSize() || v.NumPages() != d.NumPages() || v.Timed() != d.Timed() {
			t.Fatalf("view geometry %d pages × %d bytes, source %d × %d",
				v.NumPages(), v.PageSize(), d.NumPages(), d.PageSize())
		}
		if s := v.Stats(); s != (storage.Stats{}) {
			t.Fatalf("view inherited stats: %+v", s)
		}
		if v.PoolStats().Capacity != 0 {
			t.Fatal("view inherited the buffer pool")
		}
		if _, err := v.ReadBytes(2, v.PageSize(), storage.ClassLight, nil); err == nil {
			t.Fatal("view lost the corruption mark")
		}
		if !v.IsQuarantined(4) {
			t.Fatal("view lost the quarantine mark")
		}
		want, err := d.ReadBytes(6, d.PageSize(), storage.ClassLight, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := d.Stats()
		v.SetCacheSize(4)
		for i := 0; i < 2; i++ {
			got, err := v.ReadBytes(6, v.PageSize(), storage.ClassLight, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("view reads different bytes than its source")
			}
		}
		if d.Stats() != before {
			t.Fatalf("view reads charged the source: %+v -> %+v", before, d.Stats())
		}
		if ps := v.PoolStats(); ps.LightHits != 1 || ps.LightMisses != 1 {
			t.Fatalf("view pool %+v, want 1 hit and 1 miss", ps)
		}
		// Marks made after View stay on the side that made them.
		v.CorruptPage(8)
		v.Quarantine(10)
		d.CorruptPage(12)
		if _, err := d.ReadBytes(8, d.PageSize(), storage.ClassLight, nil); err != nil {
			t.Fatalf("view corruption mark leaked into source: %v", err)
		}
		if d.IsQuarantined(10) {
			t.Fatal("view quarantine leaked into source")
		}
		if _, err := v.ReadBytes(12, v.PageSize(), storage.ClassLight, nil); err != nil {
			t.Fatalf("source corruption mark leaked into view: %v", err)
		}
		v.InjectPageFault(14, storage.FaultPermanent, 1)
		if _, err := d.ReadBytes(14, d.PageSize(), storage.ClassLight, nil); err != nil {
			t.Fatalf("view fault leaked into source: %v", err)
		}
		if err := v.WritePage(0, []byte("x")); err == nil {
			t.Fatal("view wrote the shared media")
		}
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ReadBytes(16, 16*128, storage.ClassHeavy, nil); err != nil {
			t.Fatalf("closing a view closed the source's media: %v", err)
		}
	}
}

// TestViewBoundedByWatermark: pages the source appends after View lie
// above the view's watermark. The view cannot read them, and its image
// and resident bytes leave them out, so the image still opens.
func TestViewBoundedByWatermark(t *testing.T) {
	mem, fd := diskPair(t, 128)
	fill(t, mem, fd)
	for _, d := range []*storage.Disk{mem, fd} {
		want := runOf(t, d, 0)
		resident := d.ResidentBytes()
		v := d.View()
		base := d.AllocPages(4)
		for i := 0; i < 4; i++ {
			if err := d.WritePage(base+storage.PageID(i), []byte{0xAB}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := v.ReadBytes(base, v.PageSize(), storage.ClassLight, nil); !storage.IsOutOfRange(err) {
			t.Fatalf("view read page %d above its watermark: err = %v", base, err)
		}
		if got := v.ResidentBytes(); got != resident {
			t.Fatalf("view resident bytes %d, want %d", got, resident)
		}
		img := runOf(t, v, 0)
		if !bytes.Equal(img, want) {
			t.Fatal("view image holds pages above its watermark")
		}
		re := openRun(t, img, func(pageSize int) (storage.Backend, error) {
			return storage.NewMemBackend(pageSize), nil
		})
		if re.NumPages() != v.NumPages() {
			t.Fatalf("reopened view image has %d pages, want %d", re.NumPages(), v.NumPages())
		}
	}
}
